package ftrma

import (
	"fmt"
	"sync"

	"repro/internal/erasure"
	"repro/internal/machine"
	"repro/internal/rma"
	"repro/internal/sim"
)

// counterSnap is the counter vector a checkpoint confirmation carries
// (§6.2): the GsyNc counter, the flush (Get) counter, and the rank's lock
// sequence counter at checkpoint time.
type counterSnap struct {
	GC  int
	GNC int
	SC  int
}

// memberSnap is the small per-member metadata a CH stores next to the
// parity: the counter snapshot of the member's latest checkpoint plus its
// applied-epoch vector. Peers read it to trim logs (§6.2); recovery reads
// it to restore the failed rank's counters.
type memberSnap struct {
	snap   counterSnap
	epochs []int
}

// parityResidence is where one level's shards live: the hosting rank (-1
// models the paper's dedicated CH process, which never computes and never
// fails) and the shard contents. valid drops to false between the hosting
// rank's death and the level's rebuild — a window in which the shards are
// simply gone.
type parityResidence struct {
	host  *parityHost
	rank  int
	valid bool
}

// chGroup is the checksum state of one group: m parity shards per level
// over the members' checkpoint copies (Reed–Solomon, whose first shard is
// the members' XOR), each checksum with a shared-bandwidth resource that
// serializes concurrent checkpoint transfers to it — this is what makes
// |CH| a performance knob (Fig. 12). Which rank the shards reside at is the
// parityResidence's business: the paper's dedicated CH by default, or an
// elected peer rank (Config.PeerParityHosts).
type chGroup struct {
	group   int
	members []int       // compute ranks, defining the shard order
	m       int         // checksums (shards) per level
	words   int         // shard length
	rs      *erasure.RS // RS(len(members), m); m == 1 is plain XOR

	mu      sync.Mutex
	parity  [NumLevels]parityResidence
	ucSnaps map[int]memberSnap
	ccSnaps map[int]memberSnap
	res     []*sim.SharedResource
}

func newCHGroup(group int, members []int, m, words int, params sim.Params) (*chGroup, error) {
	rs, err := erasure.NewRS(len(members), m)
	if err != nil {
		return nil, err
	}
	g := &chGroup{group: group, members: members, m: m, words: words, rs: rs}
	for l := 0; l < NumLevels; l++ {
		g.parity[l] = parityResidence{host: newParityHost(rs, m, words), rank: -1, valid: true}
	}
	g.ucSnaps = make(map[int]memberSnap)
	g.ccSnaps = make(map[int]memberSnap)
	g.res = make([]*sim.SharedResource, m)
	for i := 0; i < m; i++ {
		g.res[i] = sim.NewSharedResource(params.NetBW, params.NetLatency)
	}
	return g, nil
}

// hostRank returns the rank hosting one level's shards (-1 = runtime).
func (g *chGroup) hostRank(level int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parity[level].rank
}

// memberIndex returns a rank's shard position within the group.
func (g *chGroup) memberIndex(rank int) int {
	for i, r := range g.members {
		if r == rank {
			return i
		}
	}
	return -1
}

// fold integrates one member's checkpoint change (old -> new at the given
// ranges) into one level's parity. g.mu is held once for the whole batch
// set, excluding other members' concurrent folds and reconstructions. A
// level whose host died (invalid) skips the fold: the shards are gone and
// will be re-encoded wholesale at the rebuild.
func (g *chGroup) fold(level, rank int, oldData, newData []uint64, ranges []rma.DirtyRange, workers int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr := &g.parity[level]
	if pr.valid {
		pr.host.foldRanges(g.memberIndex(rank), oldData, newData, ranges, workers)
	}
}

// encodeShards computes fresh parity shards from the members' checkpoint
// copies (indexed by member position). Rebuilds and global rollbacks use
// it: a failed rank's pre-rollback parity contribution is unknowable, so
// incremental folding cannot repair parity — re-encoding can, and is
// cheap with the word kernels. Because every fold keeps the base copies
// and the parity in lock step, the encode of the current copies is
// bit-identical to the incrementally folded shards it replaces.
func (g *chGroup) encodeShards(copies [][]uint64) [][]uint64 {
	shards := make([][]uint64, g.m)
	for i := range shards {
		shards[i] = make([]uint64, g.words)
	}
	for j, c := range copies {
		for i := range shards {
			if err := g.rs.AddShardWords(shards[i], i, j, c); err != nil {
				panic(fmt.Sprintf("ftrma: parity encode: %v", err))
			}
		}
	}
	return shards
}

// reconstruct recovers the checkpoint copies of the failed members from the
// survivors' copies and one level's parity shards. survivors maps
// rank -> copy. A level whose shards died with their host refuses with an
// error, which steers recovery to the next line of defense (the
// coordinated fallback, or a catastrophic-failure report).
func (g *chGroup) reconstruct(level int, survivors map[int][]uint64, failed []int) (map[int][]uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr := &g.parity[level]
	if !pr.valid {
		return nil, fmt.Errorf("ftrma: group %d level-%d parity died with its host rank %d", g.group, level, pr.rank)
	}
	parity := pr.host.shards
	// The survivors' copies and the parity feed the decoder directly;
	// present shards are read-only, missing ones come back freshly
	// allocated.
	shards := make([][]uint64, len(g.members)+len(parity))
	for i, r := range g.members {
		if c, ok := survivors[r]; ok {
			shards[i] = c
		}
	}
	for i := range parity {
		shards[len(g.members)+i] = parity[i]
	}
	if err := g.rs.ReconstructWords(shards); err != nil {
		return nil, fmt.Errorf("ftrma: group %d: %v", g.group, err)
	}
	out := make(map[int][]uint64, len(failed))
	for _, f := range failed {
		j := g.memberIndex(f)
		if j < 0 {
			return nil, fmt.Errorf("ftrma: rank %d not in group %d", f, g.group)
		}
		out[f] = shards[j]
	}
	return out, nil
}

// System is the per-world protocol state: one Process per compute rank and
// one chGroup per process group.
type System struct {
	world    *rma.World
	cfg      Config
	grouping machine.Grouping
	procs    []*Process
	groups   []*chGroup

	// streamDelay, when non-nil, perturbs the streaming checkpoint
	// schedule: it is called once per chunk batch (on the first checksum
	// process's schedule; the same delay applies to every CH of the
	// group) with the checkpointing rank and the batch index and returns
	// extra seconds added to that batch's transfer start. Tests use it to
	// model slow or reordered chunk deliveries and to kill ranks
	// mid-stream; production code leaves it nil.
	streamDelay func(rank, batch, batches int) float64

	statsMu sync.Mutex
	stats   Stats

	// om is the pre-resolved metrics instrument set (never nil).
	om *sysMetrics
}

// NewSystem attaches the protocol to a world. The world's ranks are the
// computing processes; checksum processes are modeled as passive storage
// with their own bandwidth (DESIGN.md §2). When cfg.TAware is set, group
// membership is validated against Eq. 6 on the supplied placement.
func NewSystem(w *rma.World, cfg Config) (*System, error) {
	n := w.N()
	cfg = cfg.withDefaults()
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	grouping, err := machine.NewGrouping(n, cfg.Groups, cfg.ChecksumsPerGroup)
	if err != nil {
		return nil, err
	}
	if cfg.TAware {
		pl := cfg.Placement
		pl.NodeOf = pl.NodeOf[:n]
		if err := machine.CheckTAware(machine.Placement{FDH: pl.FDH, NodeOf: pl.NodeOf}, grouping, cfg.TAwareLevel); err != nil {
			return nil, fmt.Errorf("ftrma: placement not t-aware: %w", err)
		}
	}
	s := &System{world: w, cfg: cfg, grouping: grouping, om: newSysMetrics(cfg.Metrics)}
	words := w.Proc(0).WindowWords()
	s.groups = make([]*chGroup, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		members := grouping.ComputeMembers(g)
		grp, err := newCHGroup(g, members, cfg.ChecksumsPerGroup, words, w.Params())
		if err != nil {
			return nil, err
		}
		s.groups[g] = grp
	}
	s.procs = make([]*Process, n)
	for r := 0; r < n; r++ {
		s.procs[r] = newProcess(s, w.Proc(r))
	}
	if cfg.PeerParityHosts {
		// Every shard is still zero: electing the hosts moves nothing.
		for _, grp := range s.groups {
			for level := range grp.parity {
				grp.parity[level].rank = s.electParityHost(grp, level)
			}
		}
	}
	return s, nil
}

// ---- Parity residence ------------------------------------------------------

// encodeLevel re-encodes one level's shards from the members' current
// checkpoint copies, each read under its owner's ckptMu.
func (s *System) encodeLevel(grp *chGroup, level int) [][]uint64 {
	copies := make([][]uint64, len(grp.members))
	for j, r := range grp.members {
		rp := s.procs[r]
		rp.ckptMu.Lock()
		if level == LevelUC {
			copies[j] = cloneWords(rp.ucData)
		} else {
			copies[j] = cloneWords(rp.ccData)
		}
		rp.ckptMu.Unlock()
	}
	return grp.encodeShards(copies)
}

// electParityHost picks the hosting rank of one level by the
// ElectParityHost policy, steering clear of the other level's host
// (grp.mu held, or grp not yet shared).
func (s *System) electParityHost(grp *chGroup, level int) int {
	return ElectParityHost(s.world.N(), grp.members, grp.group, level, s.world.Alive, grp.parity[1-level].rank)
}

// placeLevelLocked elects a hosting rank for one level and installs
// shards as its contents (grp.mu held).
func (s *System) placeLevelLocked(grp *chGroup, level int, shards [][]uint64) {
	pr := &grp.parity[level]
	pr.rank = s.electParityHost(grp, level)
	pr.host.install(shards)
	pr.valid = true
}

// ParityHostRank returns the rank hosting (group, level)'s parity shards,
// or -1 for the paper's dedicated checksum process. Kill schedulers of the
// host-failure tests aim with it.
func (s *System) ParityHostRank(group, level int) int {
	return s.groups[group].hostRank(level)
}

// repairParityHosts handles parity that died with its hosting rank: for
// every level whose host is no longer alive, the shards are lost. If all
// members of the group survive, the level is re-encoded from their
// current checkpoint copies and handed to a freshly elected host (a
// parity handoff); otherwise the level stays invalid — reconstruction
// against it fails, steering recovery to the coordinated fallback, or
// (if the coordinated level itself died together with a member copy) to
// a catastrophic-failure report, exactly as concurrently losing a CH and
// a CM of one group exceeds the code's tolerance in the paper (§5.1).
// Recovery calls it first, before touching any parity. The recovered rank
// f counts as lost even once respawned: its copies are empty, and parity
// re-encoded from them would reconstruct nothing.
func (s *System) repairParityHosts(f int) {
	for _, grp := range s.groups {
		allMembersAlive := true
		for _, r := range grp.members {
			if r == f || !s.world.Alive(r) {
				allMembersAlive = false
			}
		}
		for level := 0; level < NumLevels; level++ {
			grp.mu.Lock()
			pr := grp.parity[level]
			grp.mu.Unlock()
			if pr.rank < 0 || pr.rank != f && s.world.Alive(pr.rank) {
				continue
			}
			if !allMembersAlive {
				grp.mu.Lock()
				grp.parity[level].valid = false
				grp.mu.Unlock()
				continue
			}
			shards := s.encodeLevel(grp, level)
			grp.mu.Lock()
			s.placeLevelLocked(grp, level, shards)
			grp.mu.Unlock()
			s.bumpStats(func(st *Stats) {
				st.ParityRebuilds++
				st.ParityHandoffs++
			})
		}
	}
}

// Process returns the protocol wrapper of a rank. Applications use this in
// place of the raw rma.Proc.
func (s *System) Process(r int) *Process { return s.procs[r] }

// Grouping returns the CM/CH group structure.
func (s *System) Grouping() machine.Grouping { return s.grouping }

// groupOf returns the chGroup a rank belongs to.
func (s *System) groupOf(r int) *chGroup { return s.groups[s.grouping.GroupOf(r)] }

// Stats returns a snapshot of the protocol counters, mirroring the block
// into the ftrma.stats.* gauges of the metrics registry as it goes.
func (s *System) Stats() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	s.om.publish(&st)
	return st
}

func (s *System) bumpStats(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}
