package resilience

import (
	"testing"

	"repro/internal/ftrma"
)

func TestCorrelatedTAwarePlacementSurvives(t *testing.T) {
	// Multi-rank nodes, t-aware placement: every node failure hits each
	// group at most once, the coordinated fallback reconstructs all
	// victims, and the run finishes verified.
	rep, err := SimulateCorrelated(CorrelatedConfig{
		Nodes: 4, RanksPerNode: 2, Iters: 16,
		NodeMTBF: 3e-4, Seed: 5,
		TAware: true, Groups: 4,
		CheckpointEveryIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeFailures == 0 {
		t.Fatal("no node failures injected")
	}
	if rep.Catastrophic {
		t.Fatal("t-aware placement suffered a catastrophic failure")
	}
	if rep.Rollbacks != rep.NodeFailures {
		t.Fatalf("rollbacks %d != node failures %d", rep.Rollbacks, rep.NodeFailures)
	}
	if !rep.Verified {
		t.Fatal("final state does not match the fault-free reference")
	}
	if rep.RedoneIterations == 0 {
		t.Error("rollbacks redid no iterations (checkpoint cadence broken?)")
	}
}

func TestCorrelatedNaivePlacementIsCatastrophic(t *testing.T) {
	// Same machine, same failures, but group members packed onto the same
	// node: one node loss kills 2 members of one group — beyond the XOR
	// parity — which the paper calls a catastrophic failure (§5.1).
	rep, err := SimulateCorrelated(CorrelatedConfig{
		Nodes: 4, RanksPerNode: 2, Iters: 16,
		NodeMTBF: 3e-4, Seed: 5,
		TAware: false, Groups: 4,
		CheckpointEveryIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeFailures == 0 {
		t.Fatal("no node failures injected")
	}
	if !rep.Catastrophic {
		t.Fatal("naive placement survived a whole-node loss with XOR parity")
	}
	if rep.Efficiency != 0 {
		t.Fatal("catastrophic run reported nonzero efficiency")
	}
}

func TestCorrelatedSingleRankNodesUseCausalRecovery(t *testing.T) {
	// One rank per node: a node failure is a single-rank failure, so the
	// causal path applies and nothing rolls back.
	rep, err := SimulateCorrelated(CorrelatedConfig{
		Nodes: 6, RanksPerNode: 1, Iters: 16,
		NodeMTBF: 3e-4, Seed: 9,
		TAware: true, Groups: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeFailures == 0 {
		t.Fatal("no failures injected")
	}
	if rep.Rollbacks != 0 {
		t.Fatalf("single-rank failures caused %d rollbacks", rep.Rollbacks)
	}
	if !rep.Verified {
		t.Fatal("state mismatch after causal recoveries")
	}
}

func TestPredictCrashVerdicts(t *testing.T) {
	// The chaos harness's machine: 2 nodes x 2 ranks, 2 groups, t-aware,
	// parity hosted on peer ranks like the cluster runtime.
	cfg := CorrelatedConfig{
		Nodes: 2, RanksPerNode: 2, Iters: 8,
		TAware: true, Groups: 2, PeerParityHosts: true,
	}
	node := func(n int) []int {
		return []int{cfg.RankOfSlot(n, 0), cfg.RankOfSlot(n, 1)}
	}
	for _, tc := range []struct {
		name  string
		ranks []int
		want  ftrma.Verdict
	}{
		// Any lone death replays causally, whoever it is.
		{"single-rank", []int{2}, ftrma.VerdictCausal},
		// Node 0 = ranks {0,1}: one member per group lost, both parity
		// hosts (ranks 2 and 3) alive — the coordinated rollback covers it.
		{"node0-fallback", node(0), ftrma.VerdictFallback},
		// Node 1 = ranks {2,3}: a group member dies together with a
		// parity host guarding a group it belongs to — member copy and
		// parity gone at once, the §5.1 catastrophic case.
		{"node1-catastrophic", node(1), ftrma.VerdictCatastrophic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := cfg.PredictCrash(tc.ranks)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("PredictCrash(%v) = %v, want %v", tc.ranks, got, tc.want)
			}
		})
	}
}

func TestPredictCrashMatchesInfallibleSim(t *testing.T) {
	// Without peer parity hosts the predictor must agree with the
	// infallible-checksum simulation: t-aware node losses are fallbacks
	// (TestCorrelatedTAwarePlacementSurvives), packed ones catastrophic
	// (TestCorrelatedNaivePlacementIsCatastrophic).
	taware := CorrelatedConfig{Nodes: 4, RanksPerNode: 2, Iters: 8, TAware: true, Groups: 4}
	v, err := taware.PredictCrash([]int{taware.RankOfSlot(1, 0), taware.RankOfSlot(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if v != ftrma.VerdictFallback {
		t.Fatalf("t-aware node loss predicted %v, want fallback", v)
	}
	packed := CorrelatedConfig{Nodes: 4, RanksPerNode: 2, Iters: 8, TAware: false, Groups: 4}
	v, err = packed.PredictCrash([]int{packed.RankOfSlot(1, 0), packed.RankOfSlot(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if v != ftrma.VerdictCatastrophic {
		t.Fatalf("packed node loss predicted %v, want catastrophic", v)
	}
}

func TestCorrelatedConfigValidation(t *testing.T) {
	bad := []CorrelatedConfig{
		{Nodes: 1, RanksPerNode: 2, Iters: 4, Groups: 1},
		{Nodes: 4, RanksPerNode: 2, Iters: 0, Groups: 2},
		{Nodes: 4, RanksPerNode: 2, Iters: 4, Groups: 0},
		{Nodes: 4, RanksPerNode: 4, Iters: 4, Groups: 2, TAware: true},
		{Nodes: 5, RanksPerNode: 2, Iters: 4, Groups: 2, TAware: false},
	}
	for i, cfg := range bad {
		if _, err := SimulateCorrelated(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}
