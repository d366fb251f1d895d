package machine

import (
	"errors"
	"fmt"
)

// Grouping splits compute processes (CMs) into g equally sized groups and
// attaches m checksum processes (CHs) to each group, as in §5 and §6 of the
// paper. Compute ranks are 0..NumCompute-1 and are assigned to groups round
// robin; checksum ranks follow at NumCompute..NumCompute+NumGroups*M-1.
type Grouping struct {
	NumCompute int
	NumGroups  int
	M          int
}

// NewGrouping validates and constructs a grouping.
func NewGrouping(numCompute, numGroups, m int) (Grouping, error) {
	switch {
	case numCompute <= 0:
		return Grouping{}, errors.New("machine: no compute processes")
	case numGroups <= 0:
		return Grouping{}, errors.New("machine: no groups")
	case numGroups > numCompute:
		return Grouping{}, fmt.Errorf("machine: %d groups for %d compute processes", numGroups, numCompute)
	case m < 0:
		return Grouping{}, errors.New("machine: negative checksum count")
	}
	return Grouping{NumCompute: numCompute, NumGroups: numGroups, M: m}, nil
}

// TotalRanks returns the total number of processes, CMs plus CHs.
func (g Grouping) TotalRanks() int { return g.NumCompute + g.NumGroups*g.M }

// NumChecksum returns the total number of checksum processes |CH|.
func (g Grouping) NumChecksum() int { return g.NumGroups * g.M }

// GroupSize returns |G| = |P|/g + m, the paper's group size (compute members
// plus checksum members). Uses ceiling division for uneven splits.
func (g Grouping) GroupSize() int {
	return (g.NumCompute+g.NumGroups-1)/g.NumGroups + g.M
}

// IsChecksum reports whether rank is a checksum process.
func (g Grouping) IsChecksum(rank int) bool {
	return rank >= g.NumCompute && rank < g.TotalRanks()
}

// GroupOf returns the group index of a rank (compute or checksum).
func (g Grouping) GroupOf(rank int) int {
	if rank < 0 || rank >= g.TotalRanks() {
		panic(fmt.Sprintf("machine: rank %d out of range 0..%d", rank, g.TotalRanks()-1))
	}
	if g.IsChecksum(rank) {
		return (rank - g.NumCompute) / g.M
	}
	return rank % g.NumGroups
}

// ChecksumRanks returns the checksum ranks of the given group.
func (g Grouping) ChecksumRanks(group int) []int {
	out := make([]int, g.M)
	for k := 0; k < g.M; k++ {
		out[k] = g.NumCompute + group*g.M + k
	}
	return out
}

// ComputeMembers returns the compute ranks of the given group.
func (g Grouping) ComputeMembers(group int) []int {
	var out []int
	for r := group; r < g.NumCompute; r += g.NumGroups {
		out = append(out, r)
	}
	return out
}

// MemberIndex returns a compute rank's position within its group, in
// ComputeMembers order — its shard slot in the group's erasure code.
func (g Grouping) MemberIndex(rank int) int { return rank / g.NumGroups }

// Members returns all ranks of a group: compute members then checksum ranks.
func (g Grouping) Members(group int) []int {
	return append(g.ComputeMembers(group), g.ChecksumRanks(group)...)
}

// Placement maps every rank to a node of an FDH; M(p,k) follows from the
// FDH's uniform nesting. It corresponds to the map M of Eq. 5.
type Placement struct {
	FDH    FDH
	NodeOf []int
	// Level is the t-awareness level this placement was built for (0 when
	// the placement is topology-oblivious).
	Level int
}

// M returns the index of the failure-domain element at level k on which
// rank p runs — the paper's M(p, k).
func (pl Placement) M(p, k int) int {
	return pl.FDH.Ancestor(pl.NodeOf[p], k)
}

// BlockPlacement packs ranks onto nodes contiguously, coresPerNode ranks per
// node, with no topology awareness (the "no-topo" policy of Fig. 10c).
func BlockPlacement(fdh FDH, ranks, coresPerNode int) (Placement, error) {
	if coresPerNode <= 0 {
		return Placement{}, errors.New("machine: non-positive cores per node")
	}
	nodesNeeded := (ranks + coresPerNode - 1) / coresPerNode
	if nodesNeeded > fdh.Count(1) {
		return Placement{}, fmt.Errorf("machine: need %d nodes, FDH has %d", nodesNeeded, fdh.Count(1))
	}
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r / coresPerNode
	}
	return Placement{FDH: fdh, NodeOf: nodeOf}, nil
}

// TAwarePlacement distributes the ranks of each group across distinct
// level-n failure-domain elements, satisfying Eq. 6 for m=1 (no two members
// of the same group share an element at any level k <= n). Member j of group
// i is placed on level-n element (i+j) mod H_n; within the element, ranks
// spread across its nodes round robin.
//
// It fails when a group has more members than there are level-n elements,
// in which case Eq. 6 is unsatisfiable.
func TAwarePlacement(fdh FDH, g Grouping, level int) (Placement, error) {
	if level < 1 || level > fdh.Levels() {
		return Placement{}, fmt.Errorf("machine: t-awareness level %d out of range 1..%d", level, fdh.Levels())
	}
	hn := fdh.Count(level)
	if g.GroupSize() > hn {
		return Placement{}, fmt.Errorf("machine: group size %d exceeds %d %s; Eq. 6 unsatisfiable",
			g.GroupSize(), hn, fdh.LevelName(level))
	}
	nodesPerElem := fdh.Count(1) / hn
	if nodesPerElem < 1 {
		nodesPerElem = 1
	}
	nodeOf := make([]int, g.TotalRanks())
	// next[e] counts ranks already placed on element e, to spread within it.
	next := make([]int, hn)
	place := func(rank, group, member int) {
		e := (group + member) % hn
		node := e*nodesPerElem + next[e]%nodesPerElem
		next[e]++
		nodeOf[rank] = node
	}
	for grp := 0; grp < g.NumGroups; grp++ {
		member := 0
		for _, r := range g.ComputeMembers(grp) {
			place(r, grp, member)
			member++
		}
		for _, r := range g.ChecksumRanks(grp) {
			place(r, grp, member)
			member++
		}
	}
	return Placement{FDH: fdh, NodeOf: nodeOf, Level: level}, nil
}

// CheckTAware verifies Eq. 6 for m=1: within every group, no two members map
// to the same failure-domain element at any level k <= n. It returns nil if
// the invariant holds.
func CheckTAware(pl Placement, g Grouping, level int) error {
	for grp := 0; grp < g.NumGroups; grp++ {
		members := g.Members(grp)
		for k := 1; k <= level; k++ {
			seen := make(map[int]int, len(members))
			for _, r := range members {
				e := pl.M(r, k)
				if prev, ok := seen[e]; ok {
					return fmt.Errorf("machine: group %d ranks %d and %d share %s element %d",
						grp, prev, r, pl.FDH.LevelName(k), e)
				}
				seen[e] = r
			}
		}
	}
	return nil
}
