// Command rankd runs one process of a multi-process fabric run: the
// bootstrap seed, or one symmetric worker.
//
// One process seeds the bootstrap rendezvous, N processes join it and run
// the workload entirely peer-to-peer — the seed serves no frame after
// bootstrap and may be killed; a replacement worker rejoins through any
// surviving member:
//
//	rankd -fabric-seed -listen 127.0.0.1:7100 -n 4 -phases 12
//	rankd -fabric-join 127.0.0.1:7100
//
// The workload is the soak's (soak.Workload: stencil → FFT → kv phases,
// run with seed 0). The seed waits for every rank to finish, then
// verifies the final windows bit-for-bit against an in-process
// failure-free oracle of the same workload — kill -9 a worker mid-run, start a replacement, and the
// check still passes, which is the whole point. Exit status 0 means
// bit-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/soak"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7100", "seed listen address")
		n          = flag.Int("n", 4, "number of ranks (seed)")
		phases     = flag.Int("phases", 12, "bulk-synchronous rounds (seed)")
		inserts    = flag.Int("inserts", 8, "words per (source, round) put block (seed)")
		phaseDelay = flag.Duration("phase-delay", 100*time.Millisecond, "wall-clock think time per round (stretches the run so kills land mid-flight)")
		timeout    = flag.Duration("timeout", 2*time.Minute, "seed: fail if the run has not completed in time")
		fabricSeed = flag.Bool("fabric-seed", false, "run the bootstrap seed")
		fabricJoin = flag.String("fabric-join", "", "worker mode: seed (or surviving member) address to join")
		debugAddr  = flag.String("debug-addr", "", "serve the debug endpoint (Prometheus /metrics, /flightrec, expvar, pprof) on this address; empty disables (workers also honor REPRO_DEBUG_DIR)")
	)
	flag.Parse()

	switch {
	case *fabricSeed:
		serveDebug(*debugAddr) // seed: pprof/expvar only; workers carry the metrics
		os.Exit(runFabricSeed(seedConfig{
			Listen: *listen,
			Workload: soak.Workload{
				Ranks:      *n,
				Phases:     *phases,
				Inserts:    *inserts,
				PhaseDelay: *phaseDelay,
			},
			Timeout: *timeout,
		}))
	case *fabricJoin != "":
		logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "rankd fabric: "+format+"\n", args...) }
		if err := runFabricWorker(*fabricJoin, *debugAddr, logf); err != nil {
			fmt.Fprintf(os.Stderr, "rankd fabric worker: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "rankd: need -fabric-seed or -fabric-join ADDR")
		os.Exit(2)
	}
}

func runFabricSeed(cfg seedConfig) int {
	wl := cfg.Workload
	s, err := newFabricSeed(cfg)
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

	got, err := collectFabric(members[0].Addr, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd fabric seed: %v\n", err)
		return 1
	}
	if after := s.FramesServed(); after != frames {
		fmt.Fprintf(os.Stderr, "rankd fabric seed: served %d frames after bootstrap — steady state was not coordinatorless\n", after-frames)
		return 1
	}
	shutdownFabric(members[0].Addr)
	if err := wl.Check(got); err != nil {
		fmt.Fprintf(os.Stderr, "MISMATCH: %v\n", err)
		return 1
	}
	fmt.Println("final windows bit-identical to the failure-free oracle")
	return 0
}

// serveDebug binds the debug endpoint when addr is non-empty; exits the
// process on a bind failure (an explicitly requested endpoint that
// silently is not there is worse than no endpoint).
func serveDebug(addr string) {
	if addr == "" {
		return
	}
	srv, err := obs.Serve(addr, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rankd: debug endpoint at http://%s/metrics\n", srv.Addr)
}
