package soak

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/leakcheck"
	"repro/internal/transport/flaky"
)

func vLogf(t *testing.T) func(string, ...any) {
	if testing.Verbose() {
		return t.Logf
	}
	return nil
}

// runGuarded is Run held to the fabric's Close contract at teardown (a
// cfg.Logf the test set sees every line as well): once
// Run has returned — every node closed, survivable leg or not — nothing
// may log any more and the goroutine count must come back to where it
// was before the fabric existed.
func runGuarded(t *testing.T, cfg Config) (*Report, error) {
	t.Helper()
	log := leakcheck.NewLog(t, testing.Verbose())
	if watch := cfg.Logf; watch != nil {
		cfg.Logf = func(format string, args ...any) {
			watch(format, args...)
			log.Logf(format, args...)
		}
	} else {
		cfg.Logf = log.Logf
	}
	base := runtime.NumGoroutine()
	rep, err := Run(cfg)
	log.Close()
	leakcheck.Goroutines(t, base)
	log.Check("the soak")
	return rep, err
}

// assertSoakReport checks the deterministic section values of a
// survivable run: exact op count, the injected schedule exactly as
// configured, zero fallbacks (the whole point of the causal path), one
// recovery per kill, and every section populated.
func assertSoakReport(t *testing.T, rep *Report, wl Workload, c Chaos) {
	t.Helper()
	if want := uint64(wl.ExpectedOps()); rep.Throughput.Ops != want {
		t.Errorf("ops = %d, want %d (each (rank, phase) issued exactly once)", rep.Throughput.Ops, want)
	}
	if got := rep.Chaos; got.Kills != c.Kills || got.NodeKills != c.NodeKill || got.Mutes != c.Mutes {
		t.Errorf("injected %d kills, %d node kills, %d mutes; want %d, %d, %d",
			got.Kills, got.NodeKills, got.Mutes, c.Kills, c.NodeKill, c.Mutes)
	}
	if rep.Chaos.Fallbacks != 0 {
		t.Errorf("%d fallbacks on a causal-only schedule", rep.Chaos.Fallbacks)
	}
	if rep.Chaos.Recoveries != c.Kills {
		t.Errorf("recoveries = %d, want %d (one per kill)", rep.Chaos.Recoveries, c.Kills)
	}
	if rep.Latency.Quiet.Count == 0 {
		t.Error("no quiet-window flushes recorded")
	}
	if c.Kills > 0 {
		if rep.Latency.Crisis.Count == 0 {
			t.Error("kills happened but no crisis-window flushes recorded")
		}
		for _, stage := range []string{"quiesce", "gather", "rebuild", "install", "total"} {
			if rep.Recovery.Stages[stage].Count == 0 {
				t.Errorf("crisis stage %q never timed", stage)
			}
		}
	}
	if rep.Checkpoint.Count == 0 {
		t.Error("no checkpoint folds timed")
	}
	if rep.Wire.BytesSent == 0 || rep.Wire.BytesRecv == 0 {
		t.Errorf("wire section empty: %+v", rep.Wire)
	}
	if testing.Verbose() {
		t.Logf("\n%s", rep)
	}
}

// TestSoak is the suite's entry point. The 64-rank kill leg and the
// catastrophic leg run in plain `go test ./...`; the full matrix (shm,
// mixed, mutes, 128 ranks) runs when REPRO_SOAK is set — `make soak`.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak legs exceed the -short budget")
	}
	t.Run("kill64", func(t *testing.T) {
		// The CI leg: 64 tcp ranks, one sampled mid-run fail-stop,
		// causal replay, bit-identical finish (Run verifies). Only the
		// killed rank is ever condemned: the teardown drains every node
		// before it closes any.
		wl := Workload{Ranks: 64, Phases: 6, Inserts: 2, Seed: 42}
		chaos := Chaos{Seed: 7, Kills: 1}
		var (
			mu                  sync.Mutex
			condemned, replaced []int
		)
		rep, err := runGuarded(t, Config{
			Transport: TransportTCP,
			Workload:  wl,
			Chaos:     chaos,
			Timeout:   4 * time.Minute,
			Logf: func(format string, args ...any) {
				line := fmt.Sprintf(format, args...)
				var r, x int
				mu.Lock()
				defer mu.Unlock()
				if _, err := fmt.Sscanf(line, "fabric: rank %d condemns rank %d", &x, &r); err == nil {
					condemned = append(condemned, r)
				} else if _, err := fmt.Sscanf(line, "soak: rank %d replaced", &r); err == nil {
					replaced = append(replaced, r)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSoakReport(t, rep, wl, chaos)
		mu.Lock()
		defer mu.Unlock()
		for _, r := range condemned {
			if !slices.Contains(replaced, r) {
				t.Errorf("rank %d was condemned, and the run killed only %v", r, replaced)
				break
			}
		}
		t.Logf("%d condemnations; killed ranks %v", len(condemned), replaced)
	})
	t.Run("catastrophic", func(t *testing.T) {
		// A sampled whole-node crash (2 ranks at once) is beyond the
		// single-failure causal path: the run must fail with a clean
		// catastrophic error, promptly, never hang.
		wl := Workload{Ranks: 8, Phases: 6, Inserts: 2, Seed: 43}
		start := time.Now()
		_, err := runGuarded(t, Config{
			Transport: TransportTCP,
			Workload:  wl,
			Chaos:     Chaos{Seed: 11, NodeKill: 1, RanksPerNode: 2},
			Timeout:   2 * time.Minute,
		})
		if err == nil {
			t.Fatal("correlated node loss survived; the fabric recovers single failures only")
		}
		if !strings.Contains(err.Error(), "catastrophic") {
			t.Fatalf("unsurvivable schedule failed without a catastrophic error: %v", err)
		}
		if el := time.Since(start); el > 90*time.Second {
			t.Fatalf("catastrophic failure took %v to surface", el)
		}
		t.Logf("catastrophic schedule failed cleanly in %v: %v", time.Since(start), err)
	})
}

// TestSoakFull is the scale-out matrix behind `make soak`: shm rings,
// the mixed transport (shm intra-node, tcp inter-node), transient mute
// faults riding along with kills, and a 128-rank fabric. Each leg ends
// bit-identical to the oracle with zero fallbacks.
func TestSoakFull(t *testing.T) {
	if os.Getenv("REPRO_SOAK") == "" {
		t.Skip("set REPRO_SOAK=1 (or run `make soak`) for the full matrix")
	}
	for _, tc := range []struct {
		name  string
		tr    Transport
		wl    Workload
		chaos Chaos
	}{
		{"shm64-kills-mute", TransportSHM,
			Workload{Ranks: 64, Phases: 9, Inserts: 2, Seed: 42},
			Chaos{Seed: 7, Kills: 2, Mutes: 1}},
		{"mixed64-kill-mute", TransportMixed,
			Workload{Ranks: 64, Phases: 8, Inserts: 2, Seed: 44},
			Chaos{Seed: 9, Kills: 1, Mutes: 1, RanksPerNode: 8}},
		{"shm128-kill", TransportSHM,
			Workload{Ranks: 128, Phases: 6, Inserts: 2, Seed: 45},
			Chaos{Seed: 13, Kills: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := runGuarded(t, Config{
				Transport: tc.tr,
				Workload:  tc.wl,
				Chaos:     tc.chaos,
				RingBytes: 32 << 10,
				Timeout:   2 * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSoakReport(t, rep, tc.wl, tc.chaos)
		})
	}
}

// TestSoakXL is the 256-rank leg. Its lazily-dialed full mesh maps
// ~130k ring regions, past the default vm.max_map_count of 65530 —
// see docs/SOAK.md for the sysctl it needs — so it wants its own opt-in
// on top of REPRO_SOAK.
func TestSoakXL(t *testing.T) {
	if os.Getenv("REPRO_SOAK_XL") == "" {
		t.Skip("set REPRO_SOAK_XL=1 for the 256-rank leg (needs vm.max_map_count >= 262144)")
	}
	wl := Workload{Ranks: 256, Phases: 5, Inserts: 1, Seed: 46}
	chaos := Chaos{Seed: 17, Kills: 1}
	rep, err := runGuarded(t, Config{
		Transport: TransportSHM,
		Workload:  wl,
		Chaos:     chaos,
		RingBytes: 16 << 10,
		Timeout:   20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSoakReport(t, rep, wl, chaos)
}

// TestMembershipConvergenceUnderPartitions is the membership property
// test: between every workload phase — the fabric quiescent, heartbeats
// and gossip still flowing — a seeded injector opens a transient Mute
// (blackholed frames on live sockets) or Refuse (failed fresh dials)
// partition around one rank, each shorter than the lease window.
// Property: the workload completes bit-identical, and the ranks converge
// to one incarnation-consistent view with no live rank condemned. The
// seed is pinned; failures print it for replay.
func TestMembershipConvergenceUnderPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("partition property test exceeds the -short budget")
	}
	const seed = 1
	rng := rand.New(rand.NewSource(seed))
	wl := Workload{Ranks: 8, Phases: 8, Inserts: 2, Seed: 47}
	tun := fabric.Tuning{LeaseInterval: 100 * time.Millisecond, LeaseMiss: 15, GossipInterval: 25 * time.Millisecond}

	eps, err := buildEndpoints(TransportTCP, wl.Ranks, 0, 1, "", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer eps.Close()
	fseed, err := fabric.NewSeed(fabric.SeedConfig{
		N: wl.Ranks, WindowWords: wl.WindowWords(), Groups: 2,
		Tuning: tun, Listener: eps.seedLn, Logf: vLogf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fseed.Close()
	type joined struct {
		nd  *fabric.Node
		ep  int
		err error
	}
	jch := make(chan joined, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		i := i
		go func() {
			nd, err := fabric.Join(fabric.JoinConfig{
				Join: fseed.Addr(), Addr: eps.eps[i].addr,
				Listener: eps.eps[i].ln, Dialer: eps.eps[i].dialer,
				Logf: vLogf(t),
			})
			jch <- joined{nd: nd, ep: i, err: err}
		}()
	}
	nodes := make([]*fabric.Node, wl.Ranks)
	dialers := make([]*flaky.Dialer, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		j := <-jch
		if j.err != nil {
			t.Fatalf("seed %d: join: %v", seed, j.err)
		}
		nodes[j.nd.Rank()] = j.nd
		dialers[j.nd.Rank()] = eps.eps[j.ep].dialer
	}
	for _, nd := range nodes {
		nd := nd
		defer nd.Close()
	}

	// Lockstep: run each phase to completion across every rank, then —
	// with no workload call in flight (a muted link destroys frames, it
	// does not delay them, so an in-flight call would strand forever) —
	// open one seeded partition window, lift it, and go again.
	window := tun.LeaseInterval * time.Duration(tun.LeaseMiss) / 4
	errs := make(chan error, wl.Ranks)
	for p := 0; p < wl.Phases; p++ {
		for _, nd := range nodes {
			nd := nd
			go func() {
				if _, err := wl.RunPhase(nd, p); err != nil {
					errs <- err
					return
				}
				errs <- nd.Sync()
			}()
		}
		for range nodes {
			if err := <-errs; err != nil {
				t.Fatalf("seed %d: phase %d: %v", seed, p, err)
			}
		}
		if p == wl.Phases-1 {
			break
		}
		victim := rng.Intn(wl.Ranks)
		refuse := rng.Intn(2) == 0
		vAddr := nodes[victim].Addr()
		for r, d := range dialers {
			if r == victim {
				continue
			}
			if refuse {
				d.Refuse(vAddr)
				dialers[victim].Refuse(nodes[r].Addr())
			} else {
				d.Mute(vAddr)
				dialers[victim].Mute(nodes[r].Addr())
			}
		}
		time.Sleep(window)
		for r, d := range dialers {
			if r == victim {
				continue
			}
			if refuse {
				d.Unrefuse(vAddr)
				dialers[victim].Unrefuse(nodes[r].Addr())
			} else {
				d.Unmute(vAddr)
				dialers[victim].Unmute(nodes[r].Addr())
			}
		}
	}

	// Convergence: every node's view says everyone is alive at
	// incarnation 0, and all views agree.
	want := nodes[0].Members()
	for r, nd := range nodes {
		ms := nd.Members()
		for i, m := range ms {
			if !m.Alive {
				t.Errorf("seed %d: rank %d condemned live rank %d under transient partitions", seed, r, m.Rank)
			}
			if m.Incarnation != 0 {
				t.Errorf("seed %d: rank %d sees rank %d at incarnation %d", seed, r, m.Rank, m.Incarnation)
			}
			if m.Rank != want[i].Rank || m.Incarnation != want[i].Incarnation || m.Alive != want[i].Alive {
				t.Errorf("seed %d: rank %d's view of rank %d diverges from rank 0's", seed, r, m.Rank)
			}
		}
	}

	// Frames flowed to the right places: bit-identity with the oracle.
	got := make([][]uint64, wl.Ranks)
	for r, nd := range nodes {
		got[r] = nd.ReadAt(0, wl.WindowWords())
	}
	if err := wl.Check(got); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// TestChaosScheduleDeterministic pins the schedule derivation: same seed
// same events, distinct phases, node kills last, and the whole-node
// crash really is one placement node.
func TestChaosScheduleDeterministic(t *testing.T) {
	wl := Workload{Ranks: 16, Phases: 10, Inserts: 2, Seed: 42}
	c := Chaos{Seed: 7, Kills: 2, Mutes: 1, NodeKill: 2, RanksPerNode: 2}
	a, err := c.Schedule(wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Schedule(wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 {
		t.Fatalf("got %d events, want 4: %v", len(a), a)
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("schedule not deterministic: %v vs %v", a[i], b[i])
		}
		if i > 0 && a[i].Phase <= a[i-1].Phase {
			t.Fatalf("phases not strictly increasing: %v", a)
		}
		if a[i].Phase < 1 || a[i].Phase >= wl.Phases {
			t.Fatalf("event outside interior phases: %v", a[i])
		}
	}
	last := a[len(a)-1]
	if last.Kind != EvNodeKill {
		t.Fatalf("node kill not last: %v", a)
	}
	if len(last.Ranks) < 2 {
		t.Fatalf("node kill of %v is not correlated", last.Ranks)
	}
	node := last.Ranks[0] / 2
	if node != 1 {
		t.Fatalf("node kill hit node %d, want 1", node)
	}
	for _, r := range last.Ranks {
		if r/2 != node {
			t.Fatalf("node kill victims %v span nodes", last.Ranks)
		}
	}
}

// TestWorkloadOracleAndTargets pins the workload shape at 2 and 4 ranks
// (rankd, the metrics gate and the conformance suite), 3 (an odd count,
// where the FFT butterfly wraps) and 8 (the soak's partition test):
// valid targets, a deterministic oracle, the documented op count, and a
// Check that passes the oracle's own windows and names the rank and word
// of a flipped one.
func TestWorkloadOracleAndTargets(t *testing.T) {
	for _, ranks := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			wl := Workload{Ranks: ranks, Phases: 6, Inserts: 2, Seed: 42}
			if err := wl.Validate(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < wl.Ranks; r++ {
				for p := 0; p < wl.Phases; p++ {
					ts := wl.Targets(r, p)
					if len(ts) == 0 {
						t.Fatalf("rank %d phase %d: no targets", r, p)
					}
					seen := map[int]bool{}
					for _, q := range ts {
						if q == r || q < 0 || q >= wl.Ranks || seen[q] {
							t.Fatalf("rank %d phase %d: bad targets %v", r, p, ts)
						}
						seen[q] = true
					}
				}
			}
			a, err := wl.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			b, err := wl.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			for r := range a {
				for i := range a[r] {
					if a[r][i] != b[r][i] {
						t.Fatalf("oracle not deterministic at rank %d word %d", r, i)
					}
				}
			}
			// Spot-check a committed block landed where the layout says.
			r, p := ranks-1, 2
			trg := wl.Targets(r, p)[0]
			if got, want := a[trg][wl.off(r, p)], wl.val(r, p, 0); got != want {
				t.Fatalf("block (%d,%d) word 0 at rank %d = %#x, want %#x", r, p, trg, got, want)
			}
			if wl.ExpectedOps() <= wl.Ranks*wl.Phases*2 {
				t.Fatalf("ExpectedOps %d implausibly small", wl.ExpectedOps())
			}

			if err := wl.Check(a); err != nil {
				t.Fatalf("Check rejects the oracle's own windows: %v", err)
			}
			word := wl.off(r, p) + 1
			a[trg][word] ^= 1
			err = wl.Check(a)
			if want := fmt.Sprintf("rank %d word %d:", trg, word); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Check of a flipped word = %v, want it to name %q", err, want)
			}
		})
	}
}
