package resilience

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

// CorrelatedConfig describes a correlated-failure simulation: ranks are
// placed on nodes, and a hardware failure takes out a whole node — every
// rank on it — at once. This is the dynamic counterpart of the paper's
// t-awareness study (§5.1): whether a node loss is survivable depends on
// how process groups map onto nodes.
type CorrelatedConfig struct {
	// Nodes and RanksPerNode define the machine: N = Nodes*RanksPerNode.
	Nodes        int
	RanksPerNode int
	// Iters is the number of workload iterations.
	Iters int
	// NodeMTBF is the per-system mean time between node failures in
	// virtual seconds.
	NodeMTBF float64
	// Seed fixes failure times and victims.
	Seed int64
	// TAware selects the placement: true spreads each group across nodes
	// (no two members share a node, Eq. 6); false packs group members
	// onto the same node — the worst case of Fig. 8.
	TAware bool
	// Groups is the number of process groups (m = 1, XOR parity).
	Groups int
	// CheckpointInterval is the coordinated-checkpoint interval in
	// iterations' worth of virtual time (approximate); node-failure
	// recovery rolls back to the last coordinated checkpoint.
	CheckpointEveryIters int
	// PeerParityHosts places each group's parity shards on elected peer
	// ranks (ftrma's ElectParityHost policy) instead of the paper's
	// infallible checksum processes. The fabric hosts parity this way, so
	// predictions meant to match a real multi-process run must set it: a node loss can then take a group's member copy and
	// the parity guarding it down together — the §5.1 catastrophic case —
	// which infallible-checksum simulations never see.
	PeerParityHosts bool
}

// CorrelatedReport summarizes a correlated-failure simulation.
type CorrelatedReport struct {
	NodeFailures     int
	Rollbacks        int  // successful coordinated fallbacks
	Catastrophic     bool // a group lost more members than its parity covers
	RedoneIterations int
	Verified         bool
	Efficiency       float64
}

// rankOfSlot maps (node, slot) to a rank under the chosen placement. The
// ftrma grouping is fixed (round-robin: rank r is in group r mod Groups), so
// placement controls correlation:
//   - t-aware: consecutive ranks per node — a node holds ranks of
//     RanksPerNode *different* groups (when Groups >= RanksPerNode);
//   - not t-aware: a node holds ranks that are Nodes apart; when Groups
//     divides Nodes every node is group-pure, so one node failure kills
//     several members of one group.
func (c CorrelatedConfig) rankOfSlot(node, slot int) int {
	if c.TAware {
		return node*c.RanksPerNode + slot
	}
	return node + slot*c.Nodes
}

// RankOfSlot exposes the placement's (node, slot) -> rank mapping, so a
// caller can name a whole node's ranks the way the simulation places
// them.
func (c CorrelatedConfig) RankOfSlot(node, slot int) int { return c.rankOfSlot(node, slot) }

// Validate checks the configuration.
func (c CorrelatedConfig) Validate() error {
	n := c.Nodes * c.RanksPerNode
	switch {
	case c.Nodes < 2 || c.RanksPerNode < 1:
		return errors.New("resilience: need at least 2 nodes")
	case c.Iters < 1:
		return errors.New("resilience: need at least 1 iteration")
	case c.Groups < 1 || c.Groups > n:
		return fmt.Errorf("resilience: %d groups for %d ranks", c.Groups, n)
	case c.TAware && c.Groups < c.RanksPerNode:
		return errors.New("resilience: t-aware placement needs Groups >= RanksPerNode")
	case !c.TAware && c.Nodes%c.Groups != 0:
		return errors.New("resilience: non-t-aware correlation needs Groups dividing Nodes")
	}
	return nil
}

// SimulateCorrelated runs the workload under whole-node failures.
func SimulateCorrelated(cfg CorrelatedConfig) (CorrelatedReport, error) {
	if err := cfg.Validate(); err != nil {
		return CorrelatedReport{}, err
	}
	n := cfg.Nodes * cfg.RanksPerNode

	ref := rma.NewWorld(rma.Config{N: n, WindowWords: windowWords(n)})
	ref.Run(func(r int) {
		for it := 0; it < cfg.Iters; it++ {
			step(ref.Proc(r), it)
		}
	})
	ideal := ref.MaxTime()

	w := rma.NewWorld(rma.Config{N: n, WindowWords: windowWords(n)})
	ftCfg := ftrma.Config{
		Groups: cfg.Groups, ChecksumsPerGroup: 1,
		Log:             ftrma.LogConfig{Puts: true},
		PeerParityHosts: cfg.PeerParityHosts,
	}
	if cfg.CheckpointEveryIters > 0 {
		// Calibrate the fixed interval from the fault-free iteration time.
		ftCfg.FixedInterval = ideal / float64(cfg.Iters) * float64(cfg.CheckpointEveryIters) * 0.99
	}
	sys, err := ftrma.NewSystem(w, ftCfg)
	if err != nil {
		return CorrelatedReport{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextFailure := failureTime(rng, cfg.NodeMTBF, 0)

	rep := CorrelatedReport{}
	it := 0
	for it < cfg.Iters {
		cur := it
		w.Run(func(r int) { step(sys.Process(r), cur) })
		it++
		if cfg.NodeMTBF > 0 && it < cfg.Iters && w.MaxTime() >= nextFailure {
			node := rng.Intn(cfg.Nodes)
			for slot := 0; slot < cfg.RanksPerNode; slot++ {
				w.Kill(cfg.rankOfSlot(node, slot))
			}
			rep.NodeFailures++
			// A whole node died: causal recovery is impossible (the
			// victims' mutual logs are gone); Recover detects the
			// concurrent failures and rolls back to the coordinated
			// level, which survives iff no group lost 2+ members.
			res, err := sys.Recover(cfg.rankOfSlot(node, 0))
			switch {
			case errors.Is(err, ftrma.ErrFallback):
				rep.Rollbacks++
				resume := res.Proc.GNC()
				if resume > it {
					return rep, fmt.Errorf("resilience: rollback to the future")
				}
				rep.RedoneIterations += it - resume
				it = resume
			case err != nil:
				// Catastrophic: the parity could not reconstruct the
				// group (Fig. 8's worst case).
				rep.Catastrophic = true
				rep.Efficiency = 0
				return rep, nil
			default:
				// Single-rank node: causal recovery applies.
				w.RunRank(cfg.rankOfSlot(node, 0), func() { res.Proc.ReplayAll(res.Logs) })
			}
			nextFailure = failureTime(rng, cfg.NodeMTBF, w.MaxTime())
		}
	}
	if t := w.MaxTime(); t > 0 {
		rep.Efficiency = ideal / t
	}
	rep.Verified = true
	for r := 0; r < n; r++ {
		a := ref.Proc(r).ReadAt(0, windowWords(n))
		b := w.Proc(r).ReadAt(0, windowWords(n))
		for i := range a {
			if a[i] != b[i] {
				rep.Verified = false
			}
		}
	}
	return rep, nil
}

// PredictCrash classifies the recovery one simultaneous fail-stop crash
// of the given ranks admits under this config's grouping and parity
// placement: ftrma.Classify over the hosts a fresh ftrma.System elects
// (the paper's infallible checksum processes unless PeerParityHosts): the
// same grouping, election policy and rule the runtimes use, so a run
// disagreeing with the prediction is a runtime bug, not a modeling gap.
// Set PeerParityHosts when the run under test hosts parity on peer ranks
// (the fabric does).
func (c CorrelatedConfig) PredictCrash(ranks []int) (ftrma.Verdict, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if len(ranks) == 0 {
		return 0, errors.New("resilience: empty crash")
	}
	n := c.Nodes * c.RanksPerNode
	for _, r := range ranks {
		if r < 0 || r >= n {
			return 0, fmt.Errorf("resilience: rank %d out of range 0..%d", r, n-1)
		}
	}
	sys, err := ftrma.NewSystem(rma.NewWorld(rma.Config{N: n, WindowWords: 1}), ftrma.Config{
		Groups: c.Groups, ChecksumsPerGroup: 1, PeerParityHosts: c.PeerParityHosts,
	})
	if err != nil {
		return 0, err
	}
	return ftrma.Classify(sys.Grouping(), sys.ParityHostRank, ftrma.NumLevels, ranks, false), nil
}
