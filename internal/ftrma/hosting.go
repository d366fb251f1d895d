package ftrma

// Where the protocol's recovery state lives (§5, §6.1).
//
// The paper's model keeps every piece of recovery state in some process's
// volatile memory: a rank holds its own access logs and checkpoint copy,
// and a checksum process (CH) per group holds the parity shards. The
// System keeps both next to the runtime:
//
//   - LogStore (logs.go) holds one rank's LP/LG records and N/M flags in
//     a slab arena. The System keeps one per rank; the symmetric fabric
//     (internal/fabric) holds one in each rank's own process
//     (NewLocalLogHost).
//   - parityHost holds one (group, level)'s parity shards. With
//     Config.PeerParityHosts each level is tagged with an elected hosting
//     rank, whose death loses the shards and forces the rebuild and
//     re-election path (repairParityHosts).

import (
	"fmt"
	"sync"

	"repro/internal/erasure"
	"repro/internal/rma"
)

// Parity levels: each group guards its members' uncoordinated (demand)
// checkpoints and their coordinated checkpoints with separate shard sets.
const (
	// LevelUC is the uncoordinated (demand) checkpoint parity.
	LevelUC = 0
	// LevelCC is the coordinated checkpoint parity.
	LevelCC = 1
	// NumLevels counts the parity levels of a group.
	NumLevels = 2
)

// NewLocalLogHost returns an in-memory LogStore: the slab-arena access-log
// store a fabric node holds its rank's records in. Zero/negative tuning
// values select the defaults.
func NewLocalLogHost(slabWords, segmentRecords int, compactFraction float64) *LogStore {
	c := Config{Log: LogConfig{
		SlabWords:       slabWords,
		SegmentRecords:  segmentRecords,
		CompactFraction: compactFraction,
	}}
	return newLogStore(c.logTuning())
}

// ---- Parity hosting ---------------------------------------------------------

// parityHost holds the m parity shards of one (group, level) as plain
// arrays. Callers hold the owning chGroup's mutex across every method, so
// it never sees concurrent folds, reads, or installs for one level.
type parityHost struct {
	rs     *erasure.RS
	shards [][]uint64
}

func newParityHost(rs *erasure.RS, m, words int) *parityHost {
	h := &parityHost{rs: rs, shards: make([][]uint64, m)}
	for i := range h.shards {
		h.shards[i] = make([]uint64, words)
	}
	return h
}

// foldRanges integrates one member's checkpoint change — old -> new at
// the given word ranges — into every shard. memberIdx is the member's
// shard position within the group (the Reed–Solomon column); workers
// bounds intra-fold concurrency (Config.Stream.Depth). The delta is fused
// into the erasure kernel (no temporary delta buffer). The batches are
// disjoint word ranges, so the shard writes never overlap and the worker
// goroutines need no locking.
func (h *parityHost) foldRanges(memberIdx int, oldData, newData []uint64, ranges []rma.DirtyRange, workers int) {
	fold := func(r rma.DirtyRange) {
		lo, hi := r.Off, r.Off+r.Len
		for i := range h.shards {
			if err := h.rs.UpdateParityDeltaWords(h.shards[i][lo:hi], i, memberIdx, oldData[lo:hi], newData[lo:hi]); err != nil {
				panic(fmt.Sprintf("ftrma: parity update: %v", err))
			}
		}
	}
	if workers > len(ranges) {
		workers = len(ranges)
	}
	if workers < 2 {
		for _, r := range ranges {
			fold(r)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ranges); i += workers {
				fold(ranges[i])
			}
		}(w)
	}
	wg.Wait()
}

// install copies the given contents over the shard arrays (a rebuild, a
// handoff to a re-elected host, or a post-rollback re-encode).
func (h *parityHost) install(shards [][]uint64) {
	for i := range h.shards {
		copy(h.shards[i], shards[i])
	}
}

// FoldDelta applies a precomputed xor-delta (old ^ new) of member shard
// memberIdx to every shard at word offset off: shards[i] ^=
// coef(i, memberIdx)·delta, which for the first shard (all of m = 1) is
// shards[0] ^= delta, the paper's XOR. It is the arithmetic a wire-fed
// parity host runs on an incoming parity-fold frame — the member computes
// the delta once, the host folds it where the parity lives. Bit-identical
// to the fused foldRanges path (the code is linear, so folding
// coef·(old^new) equals folding the fused delta).
func FoldDelta(rs *erasure.RS, shards [][]uint64, memberIdx, off int, delta []uint64) {
	lo, hi := off, off+len(delta)
	for i := range shards {
		if err := rs.UpdateParityWords(shards[i][lo:hi], i, memberIdx, delta); err != nil {
			panic(fmt.Sprintf("ftrma: parity fold: %v", err))
		}
	}
}

// ---- Placement policy -------------------------------------------------------

// ElectParityHost picks the rank that hosts one (group, level)'s parity
// shards among the alive ranks. The policy prefers, in order:
//
//  1. alive ranks outside the group, excluding avoid;
//  2. alive ranks outside the group (avoid permitted);
//  3. alive group members, excluding avoid;
//  4. alive group members.
//
// Hosting outside the group means a single failure never takes a member's
// checkpoint copy down together with the parity guarding it — the group
// analogue of the paper's t-aware placement (§5.2). avoid is typically
// the other level's host, so the two levels lose at most one of
// themselves per failure. Within a preference class the choice rotates by
// group and level so hosting duty spreads across ranks deterministically
// (every elector computes the same result). Returns -1 if no rank is
// alive.
func ElectParityHost(n int, members []int, group, level int, alive func(int) bool, avoid int) int {
	inGroup := make(map[int]bool, len(members))
	for _, r := range members {
		inGroup[r] = true
	}
	pick := func(allowGroup, allowAvoid bool) int {
		var cands []int
		for r := 0; r < n; r++ {
			if !alive(r) || (!allowGroup && inGroup[r]) || (!allowAvoid && r == avoid) {
				continue
			}
			cands = append(cands, r)
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[(group*NumLevels+level)%len(cands)]
	}
	for _, try := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		if r := pick(try[0], try[1]); r >= 0 {
			return r
		}
	}
	return -1
}
