// Package ftrma implements the paper's contribution: holistic, diskless,
// in-memory fault tolerance for RMA programs (§3–§6).
//
// The layered protocol of Figure 9:
//
//   - Layer 1 transparently logs remote memory accesses: source-side put
//     logs LP_p[q], target-side get logs LG_q[p] written in two phases
//     (Algorithm 1), with the order-information counters EC/GC/SC/GNC of
//     §4.1 and the N (in-flight get) and M (combining put) flags.
//   - Layer 2 takes uncoordinated demand checkpoints to trim logs when the
//     per-process log memory budget is exhausted (§6.2).
//   - Layer 3 takes coordinated checkpoints, transparently after gsyncs
//     (the Gsync scheme, Theorem 3.1) or collectively under a zero lock
//     counter (the Locks scheme, Theorem 3.2), at Daly's optimal interval.
//
// All checkpoint data stays in volatile memory: every computing process
// (CM) keeps its latest checkpoint locally and a checksum process (CH) per
// group holds the XOR of its members' checkpoints (m=1; Reed–Solomon
// generalizes to m>1). A failed rank is recovered causally by Algorithm 2
// (gsync codes) or Algorithm 3 (lock codes); if an N or M flag forbids
// causal replay, the system falls back to the last coordinated checkpoint.
//
// A Process wraps an rma.Proc and intercepts every RMA call, exactly as the
// paper's library interposes via the PMPI profiling interface (§6.1).
//
// # State residence
//
// The System holds every rank's access logs (LogHost) and every (group,
// level)'s parity shards next to the runtime (hosting.go). By default
// the shards model the paper's infallible checksum processes;
// Config.PeerParityHosts tags each level with an elected hosting rank, so
// that the host's death loses the shards and forces the rebuild +
// re-election path. The symmetric fabric (internal/fabric) keeps each
// rank's logs and its group's parity in real peer processes instead.
//
// # Invariants
//
//   - Byte accounting: LogHost.Bytes() — the value the §6.2 demand
//     budget compares against Config.Log.BudgetBytes — always equals the
//     summed footprints (64 + 8·payload words) of the live records;
//     logs_property_test.go asserts it after every mutation.
//   - Parity ≡ encode(current checkpoint base copies): every fold keeps
//     base and shards in lock step, so a level lost with its host is
//     re-encoded bit-identically from the surviving members' copies.
//   - Recovered state is bit-identical to a failure-free oracle at the
//     matching phase boundary — the crash-recovery property test pins it
//     across random kills, configs, and peer-hosted placements.
package ftrma

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
)

// CCScheme selects the coordinated-checkpointing scheme of §3.1.2.
type CCScheme int

const (
	// CCGsync checkpoints transparently right after application gsyncs.
	CCGsync CCScheme = iota
	// CCLocks checkpoints at explicit collective points where every
	// rank's lock counter is zero (flush-all, barrier, checkpoint).
	CCLocks
)

// LogConfig groups the access-logging knobs (Config.Log): what is logged,
// the per-process memory budget, and the slab-arena tuning.
type LogConfig struct {
	// Puts and Gets enable access logging (the f-puts and f-puts-gets
	// configurations of §7.2.2).
	Puts bool
	Gets bool
	// BudgetBytes bounds the per-process log memory; exceeding it
	// triggers a demand checkpoint (§6.2). Zero means unlimited.
	BudgetBytes int
	// SlabWords sizes the payload slabs of the per-rank log arena in
	// 64-bit words. Zero selects the default (4096 words = 32 KiB).
	SlabWords int
	// SegmentRecords is the capacity of one per-peer log ring segment
	// in records. Zero selects the default (128).
	SegmentRecords int
	// CompactFraction is the live-ratio threshold below which the log
	// arena compacts its slabs (live payload words / allocated words).
	// Zero selects the default (0.5), negative disables compaction; must
	// stay below 1.
	CompactFraction float64
}

// StreamConfig groups the demand-checkpoint streaming knobs
// (Config.Stream): §6.2's variant (1) and its pipeline shape.
type StreamConfig struct {
	// Demand selects variant (1) of §6.2 (stream the checkpoint piece by
	// piece: memory-efficient, the CH only ever buffers Depth chunks)
	// instead of variant (2) (one bulk send: the CH needs a full
	// window-sized staging buffer and integrates the parity off the
	// member's critical path).
	Demand bool
	// ChunkBytes is the chunk size for streaming demand checkpoints.
	// Must be a positive multiple of the 8-byte word size when streaming
	// is enabled.
	ChunkBytes int
	// Depth is the number of in-flight chunk batches of the streaming
	// checkpoint pipeline: the CH holds this many chunk buffers, so the
	// transfer of batch k+1 overlaps the erasure fold of batch k (and the
	// member's local copy of batch k+2 overlaps both). It also sizes the
	// worker pool that performs the real parity folds. 1 removes all
	// transfer/fold overlap at the CH: each chunk's transfer must wait for
	// the previous chunk's fold to free the single buffer (member-side
	// copies always pipeline ahead — the snapshot is staged in the
	// member's own memory). Zero selects the default (4).
	Depth int
}

// Config tunes the protocol; the fields mirror the knobs the paper's window
// creation accepts (§6.1: number of CHs, MTBF, t-awareness). The tuning
// surface is grouped: Log holds the access-logging knobs, Stream the
// demand-checkpoint streaming knobs.
type Config struct {
	// Log groups the access-logging knobs.
	Log LogConfig
	// Stream groups the demand-checkpoint streaming knobs.
	Stream StreamConfig
	// Groups is the number of process groups; each gets one checksum
	// process, so |CH| = Groups (m = 1). Must be in 1..N.
	Groups int
	// ChecksumsPerGroup is m, the number of checksum processes per group.
	// 1 selects XOR parity (the paper's implementation); >1 selects
	// Reed–Solomon coding (the paper's §5 generalization).
	ChecksumsPerGroup int
	// MTBF is the machine's mean time between failures in (virtual)
	// seconds, used by Daly's formula.
	MTBF float64
	// UseDaly selects Daly's interval between coordinated checkpoints;
	// when false, FixedInterval is used (the f-no-daly configuration).
	UseDaly bool
	// FixedInterval is the coordinated-checkpoint interval in virtual
	// seconds when UseDaly is false. Zero disables coordinated
	// checkpointing entirely (pure UC operation).
	FixedInterval float64
	// Scheme selects the coordinated-checkpointing scheme.
	Scheme CCScheme
	// FullCheckpoints disables the incremental dirty-region checkpoint
	// path: every checkpoint copies the whole window and folds all of it
	// into the group parity, whether or not it changed. Incremental
	// checkpointing (the default, false) copies, transfers, and folds only
	// the words written since the previous checkpoint — the §6.2
	// incremental checksum integration — and is bit-identical in outcome;
	// this knob exists for A/B cost comparisons and equivalence tests.
	FullCheckpoints bool
	// PFSEveryN enables the multi-level extension: every N-th coordinated
	// checkpoint round is additionally flushed to stable storage through
	// the shared parallel file system, surviving catastrophic failures
	// (more concurrent group losses than the parity tolerates). Zero
	// disables the level (the paper's diskless default).
	PFSEveryN int
	// PeerParityHosts moves each group's parity shards from the paper's
	// dedicated (infallible) checksum processes onto elected peer ranks:
	// the ElectParityHost policy places every (group, level) on an alive
	// rank — outside the group when possible, the UC and CC levels on
	// distinct ranks when possible — and the hosting rank's death loses
	// the shards, forcing a rebuild from the surviving members' copies
	// and a handoff to a freshly elected host. The fabric hosts parity
	// this way; here it models that placement in-process.
	PeerParityHosts bool
	// TAware enables topology-aware group formation; Placement must then
	// describe where ranks run.
	TAware    bool
	Placement machine.Placement
	// TAwareLevel is the FDH level for t-awareness (1 = nodes), used when
	// TAware is set.
	TAwareLevel int
	// Metrics optionally mirrors the protocol's activity into a metrics
	// registry: live ftrma.recover.* counters and latency histograms, plus
	// the cumulative Stats block as ftrma.stats.* gauges refreshed on each
	// Stats() read. nil keeps a private registry, so instrumented code
	// never branches on its presence.
	Metrics *obs.Registry
}

// withDefaults returns the configuration with every zero-valued tuning knob
// resolved to its default. NewSystem normalizes through it before
// validating, so zero always means "default", never "nonsense"; explicit
// out-of-range values survive normalization and are rejected by Validate.
func (c Config) withDefaults() Config {
	if c.Stream.Depth == 0 {
		c.Stream.Depth = 4
	}
	if c.Log.SlabWords == 0 {
		c.Log.SlabWords = 4096
	}
	if c.Log.SegmentRecords == 0 {
		c.Log.SegmentRecords = 128
	}
	if c.Log.CompactFraction == 0 {
		c.Log.CompactFraction = 0.5
	}
	return c
}

// Validate checks the configuration against a world of n compute ranks.
// Zero-valued tuning knobs are resolved to their defaults first (see
// withDefaults), so only explicitly nonsensical combinations are rejected —
// with a descriptive error instead of misbehaving at runtime.
func (c Config) Validate(n int) error {
	c = c.withDefaults()
	if c.Groups < 1 || c.Groups > n {
		return fmt.Errorf("ftrma: %d groups for %d ranks", c.Groups, n)
	}
	if c.ChecksumsPerGroup < 1 {
		return errors.New("ftrma: need at least one checksum process per group")
	}
	if c.UseDaly && c.MTBF <= 0 {
		return errors.New("ftrma: Daly's interval needs a positive MTBF")
	}
	if c.Log.BudgetBytes < 0 {
		return fmt.Errorf("ftrma: Log.BudgetBytes %d is negative (zero means unlimited)", c.Log.BudgetBytes)
	}
	if c.Stream.Demand {
		if c.Stream.ChunkBytes <= 0 {
			return errors.New("ftrma: streaming demand checkpoints need a positive Stream.ChunkBytes")
		}
		if c.Stream.ChunkBytes%8 != 0 {
			return fmt.Errorf("ftrma: Stream.ChunkBytes %d is not a multiple of the 8-byte word size", c.Stream.ChunkBytes)
		}
	}
	if c.Stream.Depth < 1 {
		return fmt.Errorf("ftrma: Stream.Depth %d, need at least one in-flight chunk batch", c.Stream.Depth)
	}
	if c.PFSEveryN < 0 {
		return errors.New("ftrma: negative PFS checkpoint cadence")
	}
	if c.Log.SlabWords <= 0 {
		return fmt.Errorf("ftrma: Log.SlabWords %d must be positive", c.Log.SlabWords)
	}
	if c.Log.SegmentRecords <= 0 {
		return fmt.Errorf("ftrma: Log.SegmentRecords %d must be positive", c.Log.SegmentRecords)
	}
	if c.Log.CompactFraction >= 1 {
		return errors.New("ftrma: Log.CompactFraction must stay below 1 (negative disables compaction)")
	}
	if c.TAware {
		if len(c.Placement.NodeOf) < n {
			return fmt.Errorf("ftrma: placement covers %d ranks, world has %d", len(c.Placement.NodeOf), n)
		}
		if c.TAwareLevel < 1 || c.TAwareLevel > c.Placement.FDH.Levels() {
			return fmt.Errorf("ftrma: t-awareness level %d out of range", c.TAwareLevel)
		}
	}
	return nil
}

// logTuning packages the arena knobs for the store, resolving defaults for
// any zero values (callers may hold a raw, un-normalized Config).
func (c Config) logTuning() logTuning {
	c = c.withDefaults()
	return logTuning{
		slabWords:    c.Log.SlabWords,
		segRecords:   c.Log.SegmentRecords,
		compactRatio: c.Log.CompactFraction,
	}
}

// Stats aggregates protocol activity over a run.
type Stats struct {
	UCCheckpoints     int // uncoordinated (demand) checkpoints taken
	CCCheckpoints     int // coordinated checkpoint rounds completed
	DemandRequests    int // demand-checkpoint requests issued (Fig. 11a)
	PutsLogged        int
	GetsLogged        int
	LogBytesPeak      int
	LogBytesTrimmed   int
	PFSCheckpoints    int // per-rank stable-storage flushes (multi-level)
	Recoveries        int
	Fallbacks         int // causal recovery aborted, rolled back to CC
	ParityRebuilds    int // parity re-encoded after its hosting rank died
	ParityHandoffs    int // parity re-elections onto a new hosting rank
	ActionsReplayed   int
	CheckpointSeconds float64 // virtual time spent checkpointing
}
