// Command rankd runs one node of the multi-process cluster.
//
// Coordinator (holds the windows and all of the ftRMA recovery state —
// access logs, checkpoint parity — serves the epoch-batched wire
// protocol, detects worker deaths, drives recovery):
//
//	rankd -coordinator -listen 127.0.0.1:7100 -n 4 -phases 12
//
// Worker (drives one rank and holds no state of its own; the membership
// handshake assigns the rank id — a replacement started after a kill -9
// inherits the failed rank and its resume phase):
//
//	rankd -join 127.0.0.1:7100
//
// Coordinatorless (symmetric fabric): one process seeds the bootstrap
// rendezvous, N processes join it and run the causal workload entirely
// peer-to-peer — the seed serves no frame after bootstrap and may be
// killed; a replacement worker rejoins through any surviving member:
//
//	rankd -fabric-seed -listen 127.0.0.1:7100 -n 4 -phases 12 -mode causal
//	rankd -fabric-join 127.0.0.1:7100
//
// The coordinator runs the deterministic kvstore workload, waits for
// every rank to finish, then verifies the final windows bit-for-bit
// against an in-process failure-free oracle of the same workload — kill
// -9 a worker mid-run, start a replacement, and the check still passes,
// which is the whole point. Exit status 0 means bit-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/transport/cluster"
)

func main() {
	var (
		coordinator = flag.Bool("coordinator", false, "run the coordinator (window host + recovery driver)")
		listen      = flag.String("listen", "127.0.0.1:7100", "coordinator listen address")
		join        = flag.String("join", "", "worker mode: coordinator address to join")
		n           = flag.Int("n", 4, "number of ranks (coordinator)")
		phases      = flag.Int("phases", 12, "bulk-synchronous rounds (coordinator)")
		inserts     = flag.Int("inserts", 8, "DHT inserts per rank per round (coordinator)")
		slots       = flag.Int("slots", 1024, "hash-table slots per volume (coordinator)")
		phaseDelay  = flag.Duration("phase-delay", 100*time.Millisecond, "wall-clock think time per round (stretches the run so kills land mid-flight)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "coordinator: abort if the run has not completed in time")
		mode        = flag.String("mode", "combining", "workload mode: combining (forces coordinated fallback), causal (conflict-free, recovers by wire replay), locked (causal + a user-locked critical section)")
		fabricSeed  = flag.Bool("fabric-seed", false, "run the coordinatorless bootstrap seed (causal mode only)")
		fabricJoin  = flag.String("fabric-join", "", "symmetric worker mode: seed (or surviving member) address to join")
		debugAddr   = flag.String("debug-addr", "", "serve the debug endpoint (Prometheus /metrics, /flightrec, expvar, pprof) on this address; empty disables (fabric workers also honor REPRO_DEBUG_DIR)")
	)
	flag.Parse()

	switch {
	case *fabricSeed:
		wm, err := parseMode(*mode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rankd:", err)
			os.Exit(2)
		}
		serveDebug(*debugAddr, nil, nil) // seed: pprof/expvar only; workers carry the metrics
		os.Exit(runFabricSeed(*listen, cluster.Workload{
			Ranks:           *n,
			Phases:          *phases,
			InsertsPerPhase: *inserts,
			TableSlots:      *slots,
			PhaseDelay:      *phaseDelay,
			Mode:            wm,
		}, *timeout))
	case *fabricJoin != "":
		logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "rankd fabric: "+format+"\n", args...) }
		if err := cluster.RunFabricWorkerDebugAddr(*fabricJoin, *debugAddr, logf); err != nil {
			fmt.Fprintf(os.Stderr, "rankd fabric worker: %v\n", err)
			os.Exit(1)
		}
	case *coordinator:
		wm, err := parseMode(*mode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rankd:", err)
			os.Exit(2)
		}
		os.Exit(runCoordinator(*listen, cluster.Workload{
			Ranks:           *n,
			Phases:          *phases,
			InsertsPerPhase: *inserts,
			TableSlots:      *slots,
			PhaseDelay:      *phaseDelay,
			Mode:            wm,
		}, *timeout, *debugAddr))
	case *join != "":
		// A plain worker has no registry of its own (its rank's state is
		// hosted at the coordinator), but pprof and expvar are still worth
		// a listener when asked for.
		serveDebug(*debugAddr, nil, nil)
		if err := cluster.RunWorker(cluster.DialConfig{Addr: *join}); err != nil {
			fmt.Fprintf(os.Stderr, "rankd worker: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "rankd: need -coordinator or -join ADDR")
		os.Exit(2)
	}
}

func runFabricSeed(listen string, wl cluster.Workload, timeout time.Duration) int {
	s, err := cluster.NewFabricSeed(cluster.Config{Listen: listen, Workload: wl, Timeout: timeout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd fabric seed: %v\n", err)
		return 1
	}
	defer s.Close()
	fmt.Printf("rankd fabric seed: rendezvous on %s, %d ranks x %d phases\n", s.Addr(), wl.Ranks, wl.Phases)
	for s.Joined() < wl.Ranks {
		time.Sleep(50 * time.Millisecond)
	}
	members := s.Members()
	frames := s.FramesServed()
	fmt.Printf("rankd fabric seed: bootstrap complete (%d frames served); the run is now coordinatorless\n", frames)
	for _, m := range members {
		// One line per member so harness scripts (scripts/flightrec_demo.sh)
		// can point a replacement at a *survivor* — rejoining through the
		// seed would put post-bootstrap frames on its counter.
		fmt.Printf("member rank %d at %s\n", m.Rank, m.Addr)
	}

	got, err := cluster.CollectFabric(members[0].Addr, wl, timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd fabric seed: %v\n", err)
		return 1
	}
	if after := s.FramesServed(); after != frames {
		fmt.Fprintf(os.Stderr, "rankd fabric seed: served %d frames after bootstrap — steady state was not coordinatorless\n", after-frames)
		return 1
	}
	cluster.ShutdownFabric(members[0].Addr)
	want, err := wl.Oracle()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd fabric seed: oracle: %v\n", err)
		return 1
	}
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				fmt.Fprintf(os.Stderr, "MISMATCH: rank %d word %d: got %#x want %#x\n", r, i, got[r][i], want[r][i])
				return 1
			}
		}
	}
	fmt.Println("final windows bit-identical to the failure-free oracle")
	return 0
}

func parseMode(s string) (cluster.WorkloadMode, error) {
	switch s {
	case "combining":
		return cluster.ModeCombining, nil
	case "causal":
		return cluster.ModeCausal, nil
	case "locked":
		return cluster.ModeLocked, nil
	}
	return 0, fmt.Errorf("unknown -mode %q (want combining, causal, or locked)", s)
}

// serveDebug binds the debug endpoint when addr is non-empty; exits the
// process on a bind failure (an explicitly requested endpoint that
// silently is not there is worse than no endpoint).
func serveDebug(addr string, reg *obs.Registry, fr *obs.Recorder) {
	if addr == "" {
		return
	}
	srv, err := obs.Serve(addr, reg, fr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rankd: debug endpoint at http://%s/metrics\n", srv.Addr)
}

func runCoordinator(listen string, wl cluster.Workload, timeout time.Duration, debugAddr string) int {
	c, err := cluster.NewCoordinator(cluster.Config{Listen: listen, Workload: wl, Timeout: timeout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd coordinator: %v\n", err)
		return 1
	}
	defer c.Close()
	serveDebug(debugAddr, c.Obs(), obs.RecorderFromEnv(-1))
	fmt.Printf("rankd coordinator: listening on %s, %d ranks x %d phases\n", c.Addr(), wl.Ranks, wl.Phases)

	go func() {
		// Progress lines for smoke scripts: "phase N done" when the
		// slowest rank completes round N.
		last := 0
		for {
			time.Sleep(50 * time.Millisecond)
			min := wl.Phases
			for r := 0; r < wl.Ranks; r++ {
				if d := c.PhasesDone(r); d < min {
					min = d
				}
			}
			for last < min {
				last++
				fmt.Printf("phase %d done\n", last)
			}
			if last >= wl.Phases {
				return
			}
		}
	}()

	got, err := c.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd coordinator: %v\n", err)
		return 1
	}
	st := c.Stats()
	fmt.Printf("run complete: %d recoveries (%d causal replays, %d coordinated fallbacks), %d UC checkpoints, %d CC rounds, %d puts + %d gets logged\n",
		st.Recoveries, st.CausalRecoveries, st.Fallbacks, st.UCCheckpoints, st.CCCheckpoints, st.PutsLogged, st.GetsLogged)
	if st.CausalRecoveries > 0 {
		fmt.Printf("causal recovery wall time: %.0fus total, %d actions replayed\n", st.CausalRecoveryUs, st.ActionsReplayed)
	}
	if st.Fallbacks > 0 {
		fmt.Printf("fallback recovery wall time: %.0fus total\n", st.FallbackRecoveryUs)
	}

	want, err := wl.Oracle()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd coordinator: oracle: %v\n", err)
		return 1
	}
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				fmt.Fprintf(os.Stderr, "MISMATCH: rank %d word %d: got %#x want %#x\n", r, i, got[r][i], want[r][i])
				return 1
			}
		}
	}
	fmt.Println("final windows bit-identical to the failure-free oracle")
	return 0
}
