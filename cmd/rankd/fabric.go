package main

// Coordinatorless execution: the seed only performs the bootstrap
// rendezvous (newFabricSeed); every phase, checkpoint, failure detection,
// and recovery afterwards is peer-to-peer among the runFabricWorker
// processes. Collection is symmetric too: each rank is the sole authority
// for its own window, so final state is gathered with one
// fabric.FetchWindow per member.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// seedConfig describes a bootstrap seed and the run it collects.
type seedConfig struct {
	// Listen is the address workers dial ("127.0.0.1:0" for tests).
	Listen string
	// Workload is what every rank runs; the seed hands it to each joiner.
	Workload workload
	// Fabric is the membership timing the seed distributes to every rank.
	Fabric fabric.Tuning
	// Timeout bounds collectFabric's wait for the run to finish. Zero
	// means no limit.
	Timeout time.Duration
}

// validate rejects nonsensical configurations with descriptive errors.
func (c seedConfig) validate() error {
	if c.Listen == "" {
		return errors.New("rankd: need a Listen address for worker connections")
	}
	if _, _, err := net.SplitHostPort(c.Listen); err != nil {
		return fmt.Errorf("rankd: listen address %q: %v", c.Listen, err)
	}
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if c.Timeout < 0 {
		return fmt.Errorf("rankd: negative timeout %v", c.Timeout)
	}
	return c.Fabric.Validate()
}

// encodeWorkloadMeta packs the workload into the opaque seed Meta blob
// every joining rank receives, so workers need no side channel to learn
// what to run.
func encodeWorkloadMeta(wl workload) []byte {
	var e wire.Enc
	e.I(wl.Ranks)
	e.I(wl.Phases)
	e.I(wl.InsertsPerPhase)
	e.I(int(wl.PhaseDelay))
	return e.Bytes()
}

// decodeWorkloadMeta is the worker-side inverse.
func decodeWorkloadMeta(meta []byte) (workload, error) {
	d := wire.NewDec(meta)
	wl := workload{
		Ranks:           d.I(),
		Phases:          d.I(),
		InsertsPerPhase: d.I(),
		PhaseDelay:      time.Duration(d.I()),
	}
	if d.Failed() {
		return workload{}, errors.New("rankd: undecodable fabric workload meta")
	}
	return wl, wl.validate()
}

// fabricGroups is the parity group count: two groups from four ranks up,
// so every group's parity can be hosted outside it.
func fabricGroups(n int) int {
	if n < 4 {
		return 1
	}
	return 2
}

// newFabricSeed starts the bootstrap rendezvous for a coordinatorless run
// of cfg.Workload.
func newFabricSeed(cfg seedConfig) (*fabric.Seed, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	return fabric.NewSeed(fabric.SeedConfig{
		N:           cfg.Workload.Ranks,
		WindowWords: cfg.Workload.windowWords(),
		Groups:      fabricGroups(cfg.Workload.Ranks),
		Tuning:      cfg.Fabric,
		Meta:        encodeWorkloadMeta(cfg.Workload),
		Listener:    ln,
	})
}

// runFabricWorker joins the fabric through joinAddr (the seed during
// bootstrap, any surviving member when rejoining as a replacement), runs
// the workload from its resume phase — phase 0 for a fresh rank, the
// first un-checkpointed phase for a replacement installed by the crisis
// arbiter — and parks until the run-over notify. logf may be nil.
//
// Observability: the worker always carries a metrics registry and a
// flight recorder (configured from the REPRO_FLIGHTREC* environment).
// When debugAddr is set, or REPRO_DEBUG_DIR asks for an ephemeral
// localhost port, the debug endpoint (Prometheus metrics, flight-ring
// JSONL, expvar, pprof) is served for the worker's lifetime; under
// REPRO_DEBUG_DIR its bound address is advertised in "<dir>/rank<R>.addr"
// for post-run scraping.
func runFabricWorker(joinAddr, debugAddr string, logf func(format string, args ...any)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	reg := obs.New(-1)
	fr := obs.RecorderFromEnv(-1)
	nd, err := fabric.Join(fabric.JoinConfig{
		Join:     joinAddr,
		Addr:     ln.Addr().String(),
		Listener: ln,
		Dialer:   transport.NetDialer{},
		Logf:     logf,
		Obs:      reg,
		Flight:   fr,
	})
	if err != nil {
		return err
	}
	defer nd.Close()
	debugDir := os.Getenv(obs.EnvDebugDir)
	if debugAddr == "" && debugDir != "" {
		debugAddr = "127.0.0.1:0"
	}
	if debugAddr != "" {
		srv, err := obs.Serve(debugAddr, reg, fr)
		if err != nil {
			return fmt.Errorf("rankd: debug endpoint: %w", err)
		}
		defer srv.Close()
		if logf != nil {
			logf("rank %d debug endpoint at %s", nd.Rank(), srv.Addr)
		}
		if debugDir != "" {
			if err := obs.WriteAddrFile(debugDir, nd.Rank(), srv.Addr); err != nil {
				return fmt.Errorf("rankd: debug addr file: %w", err)
			}
		}
	}
	wl, err := decodeWorkloadMeta(nd.Meta())
	if err != nil {
		return err
	}
	for p := nd.Phase(); p < wl.Phases; p++ {
		if err := wl.runPhase(nd, nd.Rank(), p); err != nil {
			return err
		}
		if err := nd.Sync(); err != nil {
			return err
		}
	}
	nd.AwaitShutdown()
	return nil
}

// collectFabric gathers the final windows of a finished coordinatorless
// run: it polls the member at anyAddr for the membership table until every
// rank's watermark reaches the workload's phases (each completed epoch
// bumps it by one), then fetches every member's self-hosted window.
// Returns the windows in rank order.
func collectFabric(anyAddr string, cfg seedConfig) ([][]uint64, error) {
	wl := cfg.Workload
	d := transport.NetDialer{}
	deadline := time.Now().Add(cfg.Timeout)
	var members []fabric.Member
	for {
		ms, _, err := fabric.FetchMembers(d, anyAddr)
		if err == nil && len(ms) == wl.Ranks {
			done := true
			for _, m := range ms {
				if !m.Alive || m.Watermark < wl.Phases {
					done = false
					break
				}
			}
			if done {
				members = ms
				break
			}
		}
		if cfg.Timeout > 0 && time.Now().After(deadline) {
			return nil, fmt.Errorf("rankd: fabric run did not finish within %v (members %+v, err %v)", cfg.Timeout, ms, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	out := make([][]uint64, wl.Ranks)
	for _, m := range members {
		w, err := fabric.FetchWindow(d, m.Addr)
		if err != nil {
			return nil, fmt.Errorf("rankd: fetch rank %d window: %v", m.Rank, err)
		}
		if len(w) != wl.windowWords() {
			return nil, fmt.Errorf("rankd: rank %d window has %d words, want %d", m.Rank, len(w), wl.windowWords())
		}
		out[m.Rank] = w
	}
	return out, nil
}

// shutdownFabric tells every member the run is over (best effort).
func shutdownFabric(anyAddr string) {
	d := transport.NetDialer{}
	ms, _, err := fabric.FetchMembers(d, anyAddr)
	if err != nil {
		return
	}
	for _, m := range ms {
		if m.Alive {
			fabric.NotifyShutdown(d, m.Addr)
		}
	}
}
