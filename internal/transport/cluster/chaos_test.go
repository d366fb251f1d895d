package cluster

// Multi-failure chaos harness: seeded kill schedules — correlated
// whole-node deaths derived from internal/failure's TSUBAME PDFs over a
// machine placement, a kill of the causal replacement mid-replay, and a
// kill of a user-lock holder mid-critical-section — driven against the
// multi-process cluster, each asserting a bit-identical finish against
// the failure-free oracle. The causal smoke is the PR's acceptance
// criterion: a single conflict-free failure must recover via wire replay
// with NO coordinated fallback, and Stats must say so.

import (
	"fmt"
	"math/rand"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/ftrma"
	"repro/internal/machine"
	"repro/internal/resilience"
)

// chaosCoordinator builds a coordinator for wl with the chaos default
// timeout: generous enough for slow CI, small enough that a wedged crisis
// (a survivor waiting on a dead rank's lock, say) fails the test rather
// than hanging the suite.
func chaosCoordinator(t *testing.T, wl Workload) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Workload: wl, Timeout: 120 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return c
}

// spawnRanked spawns one worker per rank, pinned so workers[i] hosts rank
// i, and registers cleanup kills.
func spawnRanked(t *testing.T, c *Coordinator, wl Workload) []*exec.Cmd {
	t.Helper()
	workers := make([]*exec.Cmd, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		workers[i] = spawnWorkerForRank(t, c, i)
		w := workers[i]
		t.Cleanup(func() { reap(w) })
	}
	return workers
}

// awaitPhase blocks until rank r has completed at least p phase gsyncs.
func awaitPhase(t *testing.T, c *Coordinator, r, p int) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for c.PhasesDone(r) < p {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never reached phase %d (at %d)", r, p, c.PhasesDone(r))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func kill9(t *testing.T, w *exec.Cmd) {
	t.Helper()
	if err := w.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	w.Wait()
}

// TestClusterCausalReplayKill9 is the acceptance smoke for the causal
// path over the wire: under the conflict-free workload a single kill -9
// must recover by replaying the survivors' logs, phase by phase, as a
// replacement worker catches up — no coordinated rollback, and the Stats must
// distinguish the paths — finishing bit-identical to the oracle.
func TestClusterCausalReplayKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos skipped in -short")
	}
	const victim = 1
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 4,
		Mode:            ModeCausal,
		PhaseDelay:      60 * time.Millisecond,
	}
	c := chaosCoordinator(t, wl)
	defer c.Close()
	workers := spawnRanked(t, c, wl)

	awaitPhase(t, c, victim, 3)
	// Land the kill inside the victim's phase think time (its wire frames
	// are all issued back-to-back right after the gsync), so no epoch is
	// mid-flight — the conflict-free death the causal path covers.
	time.Sleep(wl.PhaseDelay / 2)
	kill9(t, workers[victim])

	replacement := spawnWorker(t, c.Addr())
	defer reap(replacement)

	got, err := c.Run()
	if err != nil {
		t.Fatalf("run after causal kill -9: %v", err)
	}
	st := c.Stats()
	if st.Recoveries < 1 {
		t.Fatalf("kill -9 did not trigger a recovery: %+v", st)
	}
	if st.CausalRecoveries < 1 {
		t.Fatalf("recovery did not take the causal path: %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("conflict-free failure fell back to coordinated rollback: %+v", st)
	}
	if st.ActionsReplayed == 0 {
		t.Fatalf("causal recovery replayed nothing: %+v", st)
	}
	if st.CausalRecoveryUs <= 0 {
		t.Fatalf("causal recovery wall time not recorded: %+v", st)
	}
	compareToOracle(t, wl, got)
	t.Logf("causal replay over the wire: %d recoveries (%d causal, %d fallbacks), %d actions replayed, %.0fus",
		st.Recoveries, st.CausalRecoveries, st.Fallbacks, st.ActionsReplayed, st.CausalRecoveryUs)
}

// correlatedNodeCrash samples seeded failure schedules from the TSUBAME
// PDFs over a block placement until one contains a whole-node crash (>= 2
// ranks at once) of the requested placement node, and returns its
// victims. The machinery is the simulation stack's own: placement M map,
// per-level PDFs, Poisson arrivals — the cluster harness just executes
// the draw for real.
func correlatedNodeCrash(t *testing.T, ranks, perNode, node int) []int {
	t.Helper()
	fdh := machine.FDH{LevelNames: []string{"node"}, Counts: []int{ranks / perNode}}
	pl, err := machine.BlockPlacement(fdh, ranks, perNode)
	if err != nil {
		t.Fatalf("placement: %v", err)
	}
	// The same (node, slot) -> rank map the correlated-failure simulation
	// uses must agree with the block placement, or the "whole node" we
	// kill is not a placement node.
	cc := resilience.CorrelatedConfig{Nodes: ranks / perNode, RanksPerNode: perNode, TAware: true}
	for node := 0; node < cc.Nodes; node++ {
		for slot := 0; slot < perNode; slot++ {
			if r := cc.RankOfSlot(node, slot); pl.NodeOf[r] != node {
				t.Fatalf("placement disagreement: rank %d on node %d, RankOfSlot says node %d", r, pl.NodeOf[r], node)
			}
		}
	}
	pdfs := failure.TSUBAMEPDFs()
	for seed := int64(1); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := failure.SampleSchedule(rng, pl, pdfs, 90*86400, perNode)
		for _, crash := range sched {
			if len(crash.Ranks) >= 2 && pl.NodeOf[crash.Ranks[0]] == node {
				t.Logf("seed %d: correlated crash of ranks %v at t=%.0fs", seed, crash.Ranks, crash.Time)
				return crash.Ranks
			}
		}
	}
	t.Fatalf("no seed produced a correlated crash of node %d", node)
	return nil
}

// TestClusterCorrelatedVerdictMatch closes the loop between the
// simulation stack and the real cluster: for every placement node, the
// expected outcome of a whole-node kill is not hardcoded but computed by
// resilience.PredictCrash — ftrma.Classify over the same grouping and
// parity election the cluster runs — and the multi-process
// cluster must land on exactly that verdict: a fallback-survivable node
// loss finishes bit-identical with coordinated rollbacks, a catastrophic
// one reports promptly and cleanly.
func TestClusterCorrelatedVerdictMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos skipped in -short")
	}
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 4,
		Mode:            ModeCausal,
		PhaseDelay:      60 * time.Millisecond,
	}
	const perNode = 2
	pred := resilience.CorrelatedConfig{
		Nodes: wl.Ranks / perNode, RanksPerNode: perNode, Iters: 8,
		TAware: true, Groups: defaultFT(wl.Ranks).Groups,
		PeerParityHosts: defaultFT(wl.Ranks).PeerParityHosts,
	}
	sawFallback, sawCatastrophic := false, false
	for node := 0; node < pred.Nodes; node++ {
		node := node
		t.Run(fmt.Sprintf("node%d", node), func(t *testing.T) {
			victims := correlatedNodeCrash(t, wl.Ranks, perNode, node)
			verdict, err := pred.PredictCrash(victims)
			if err != nil {
				t.Fatalf("predict: %v", err)
			}
			t.Logf("resilience predicts %v for node %d (ranks %v)", verdict, node, victims)

			c := chaosCoordinator(t, wl)
			defer c.Close()
			workers := spawnRanked(t, c, wl)
			awaitPhase(t, c, victims[0], 3)
			time.Sleep(wl.PhaseDelay / 2)
			for _, v := range victims {
				kill9(t, workers[v])
			}
			if verdict != ftrma.VerdictCatastrophic {
				for range victims {
					r := spawnWorker(t, c.Addr())
					defer reap(r)
				}
			}

			got, err := c.Run()
			switch verdict {
			case ftrma.VerdictFallback:
				sawFallback = true
				if err != nil {
					t.Fatalf("predicted-survivable node kill failed the run: %v", err)
				}
				if st := c.Stats(); st.Fallbacks < 1 {
					t.Fatalf("predicted fallback, but the run took none: %+v", st)
				}
				compareToOracle(t, wl, got)
			case ftrma.VerdictCatastrophic:
				sawCatastrophic = true
				if err == nil {
					t.Fatal("predicted-catastrophic node kill reported success")
				}
				if !strings.Contains(err.Error(), "catastrophic") {
					t.Fatalf("expected a catastrophic-failure report, got: %v", err)
				}
			default:
				t.Fatalf("whole-node kill of %v predicted %v — the multi-rank case cannot be causal", victims, verdict)
			}
		})
	}
	// The 2x2 machine must exercise both sides of the prediction, or the
	// match proves nothing.
	if !t.Failed() && (!sawFallback || !sawCatastrophic) {
		t.Fatalf("verdicts covered fallback=%v catastrophic=%v — need both", sawFallback, sawCatastrophic)
	}
}

// TestClusterCorrelatedNodeKill9 drives a correlated multi-failure — both
// ranks of one placement node SIGKILLed back to back, victims drawn from
// a seeded TSUBAME failure schedule. The mutual logs die together, so
// causal recovery is impossible by construction; the cluster must detect
// the concurrent failure, take the coordinated rollback for all the dead
// at once, admit two replacements, and finish bit-identical — without
// tripping the run timeout.
//
// The kill aims at placement node 0 (ranks {0, 1}): the deterministic
// parity election hosts group 0's coordinated parity at rank 3 and group
// 1's at rank 2 (out-of-group, levels spread), so node 0's loss leaves
// both CC levels alive and each group misses exactly the one member its
// XOR parity covers. Node 1's loss is the paper's Fig. 8 worst case —
// TestClusterCorrelatedCatastrophicKill9 covers that side.
func TestClusterCorrelatedNodeKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos skipped in -short")
	}
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 4,
		Mode:            ModeCausal,
		PhaseDelay:      60 * time.Millisecond,
	}
	victims := correlatedNodeCrash(t, wl.Ranks, 2, 0)
	c := chaosCoordinator(t, wl)
	defer c.Close()
	workers := spawnRanked(t, c, wl)

	awaitPhase(t, c, victims[0], 3)
	time.Sleep(wl.PhaseDelay / 2)
	for _, v := range victims {
		kill9(t, workers[v])
	}
	for range victims {
		r := spawnWorker(t, c.Addr())
		defer reap(r)
	}

	got, err := c.Run()
	if err != nil {
		t.Fatalf("run after correlated node kill: %v", err)
	}
	st := c.Stats()
	if st.Recoveries < 1 {
		t.Fatalf("correlated kill did not trigger a recovery: %+v", st)
	}
	if st.Fallbacks < 1 {
		t.Fatalf("concurrent failure did not take the coordinated rollback: %+v", st)
	}
	compareToOracle(t, wl, got)
	t.Logf("correlated node kill of %v: %d recoveries, %d causal, %d fallbacks",
		victims, st.Recoveries, st.CausalRecoveries, st.Fallbacks)
}

// TestClusterCorrelatedCatastrophicKill9 kills the node whose loss
// exceeds the parity's tolerance: node 1 holds rank 3 (a group-1 member)
// and rank 2 (group 1's elected coordinated-parity host), so the group's
// checkpoint copy and the parity guarding it die together — the paper's
// §5.1 catastrophic failure. The cluster must not hang or time out: the
// run has to return promptly with the catastrophic-failure report.
func TestClusterCorrelatedCatastrophicKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos skipped in -short")
	}
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 4,
		Mode:            ModeCausal,
		PhaseDelay:      60 * time.Millisecond,
	}
	victims := correlatedNodeCrash(t, wl.Ranks, 2, 1)
	c := chaosCoordinator(t, wl)
	defer c.Close()
	workers := spawnRanked(t, c, wl)

	awaitPhase(t, c, victims[0], 3)
	time.Sleep(wl.PhaseDelay / 2)
	for _, v := range victims {
		kill9(t, workers[v])
	}

	began := time.Now()
	_, err := c.Run()
	if err == nil {
		t.Fatal("losing a member and its group's CC parity host together reported success")
	}
	if !strings.Contains(err.Error(), "catastrophic") {
		t.Fatalf("expected a catastrophic-failure report, got: %v", err)
	}
	if since := time.Since(began); since > 60*time.Second {
		t.Fatalf("catastrophic report took %v — close to the run timeout", since)
	}
	t.Logf("catastrophic node kill of %v reported in %v: %v", victims, time.Since(began), err)
}

// TestClusterKillReplacementMidReplay kills the causal replacement while
// it is catching up — the crisis must stay open, the respawned rank be
// condemned and recovered again (causally or, if its death stranded an
// in-flight get, via the fallback), and a second replacement still drive
// the run to the bit-identical finish.
func TestClusterKillReplacementMidReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos skipped in -short")
	}
	const victim = 2
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 4,
		Mode:            ModeCausal,
		PhaseDelay:      60 * time.Millisecond,
	}
	c := chaosCoordinator(t, wl)
	defer c.Close()
	workers := spawnRanked(t, c, wl)

	// Let the victim get far enough that the replacement's catch-up spans
	// several phases (each with think time) — a wide window to kill into.
	awaitPhase(t, c, victim, 5)
	time.Sleep(wl.PhaseDelay / 2)
	kill9(t, workers[victim])

	first := spawnWorker(t, c.Addr())
	defer reap(first)

	// Wait until the causal recovery has admitted the replacement
	// (Replaying pins the rank, RanksJoined confirms the join), then kill
	// it mid-catch-up.
	deadline := time.Now().Add(90 * time.Second)
	for !(c.Replaying() == victim && c.RanksJoined() == wl.Ranks) {
		if time.Now().After(deadline) {
			t.Fatalf("causal replacement never joined (replaying=%d, joined=%d)", c.Replaying(), c.RanksJoined())
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill9(t, first)

	second := spawnWorker(t, c.Addr())
	defer reap(second)

	got, err := c.Run()
	if err != nil {
		t.Fatalf("run after mid-replay kill: %v", err)
	}
	st := c.Stats()
	if st.Recoveries < 2 {
		t.Fatalf("killing the replacement did not force a second recovery: %+v", st)
	}
	compareToOracle(t, wl, got)
	t.Logf("mid-replay kill survived: %d recoveries, %d causal, %d fallbacks, %d replayed",
		st.Recoveries, st.CausalRecoveries, st.Fallbacks, st.ActionsReplayed)
}

// TestClusterLockHolderKill9 kills a rank that spends its think time
// inside a user-locked critical section, so the SIGKILL lands (with
// overwhelming probability) while the victim holds the lock and a
// survivor is blocked acquiring it. Condemnation must force-release the
// lock — otherwise the survivor can never drain into the crisis
// rendezvous and the run times out — and the finish must still be
// bit-identical.
func TestClusterLockHolderKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos skipped in -short")
	}
	const victim = 0
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 4,
		Mode:            ModeLocked,
		PhaseDelay:      60 * time.Millisecond,
	}
	c := chaosCoordinator(t, wl)
	defer c.Close()
	workers := spawnRanked(t, c, wl)

	awaitPhase(t, c, victim, 3)
	// ModeLocked spends PhaseDelay inside the critical section: half a
	// delay after a phase boundary the victim holds the user lock.
	time.Sleep(wl.PhaseDelay / 2)
	kill9(t, workers[victim])

	replacement := spawnWorker(t, c.Addr())
	defer reap(replacement)

	began := time.Now()
	got, err := c.Run()
	if err != nil {
		t.Fatalf("run after lock-holder kill: %v", err)
	}
	st := c.Stats()
	if st.Recoveries < 1 {
		t.Fatalf("lock-holder kill did not trigger a recovery: %+v", st)
	}
	compareToOracle(t, wl, got)
	t.Logf("lock-holder kill recovered in %v: %d recoveries, %d causal, %d fallbacks",
		time.Since(began), st.Recoveries, st.CausalRecoveries, st.Fallbacks)
}
