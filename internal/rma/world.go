package rma

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
)

// TransportFactory builds one rank's transport over the world's window
// endpoints. endpoint(q) is rank q's window (nil out of range); the factory
// may serve it to remote peers (tcp) or address it directly (loopback).
type TransportFactory func(rank, n int, endpoint func(int) transport.Endpoint) (transport.Transport, error)

// Config describes a simulated RMA world.
type Config struct {
	// N is the number of ranks.
	N int
	// WindowWords is the size of each rank's exposed window in 64-bit
	// words.
	WindowWords int
	// Params is the machine cost model; zero value means sim.DefaultParams.
	Params sim.Params
	// Transport, when non-nil, builds each rank's delivery transport; nil
	// selects the in-process loopback (direct window access — the
	// semantics this World always had). The conformance suite swaps in the
	// tcp transport here to run the same worlds over real sockets.
	Transport TransportFactory
	// Metrics optionally mirrors the world's fault events into a metrics
	// registry (rma.ranks gauge, rma.kills / rma.respawns counters). nil
	// keeps a private registry.
	Metrics *obs.Registry
}

// World is a set of ranks plus the simulated machine they run on.
type World struct {
	cfg        Config
	params     sim.Params
	procs      []*Proc
	windows    []*window
	failed     []atomic.Bool
	barrier    *sim.Barrier
	pfs        *sim.SharedResource
	transports []transport.Transport

	// kills and respawns count fault events into the Config.Metrics
	// registry (a private one when unset — pointers are always valid).
	kills    *obs.Counter
	respawns *obs.Counter

	tracer atomic.Pointer[tracerBox]
}

// tracerBox wraps the Tracer interface so it can live in an atomic.Pointer.
type tracerBox struct{ t Tracer }

// killed is the panic value used to unwind a killed rank's goroutine.
type killed struct{ rank int }

// TargetFailedError is the panic value raised when a rank accesses the
// window of a failed rank. Recovery protocols catch it via RunRank.
type TargetFailedError struct{ Rank int }

func (e TargetFailedError) Error() string {
	return fmt.Sprintf("rma: target rank %d has failed", e.Rank)
}

// NewWorld builds a world of cfg.N ranks.
func NewWorld(cfg Config) *World {
	if cfg.N <= 0 {
		panic("rma: world needs at least one rank")
	}
	if cfg.WindowWords < 0 {
		panic("rma: negative window size")
	}
	if cfg.Params == (sim.Params{}) {
		cfg.Params = sim.DefaultParams()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New(-1)
	}
	w := &World{
		cfg:      cfg,
		params:   cfg.Params,
		barrier:  sim.NewBarrier(cfg.N),
		pfs:      sim.NewSharedResource(cfg.Params.PFSBW, cfg.Params.PFSLatency),
		failed:   make([]atomic.Bool, cfg.N),
		kills:    reg.Counter("rma.kills"),
		respawns: reg.Counter("rma.respawns"),
	}
	reg.Gauge("rma.ranks").Set(int64(cfg.N))
	w.windows = make([]*window, cfg.N)
	w.procs = make([]*Proc, cfg.N)
	for r := 0; r < cfg.N; r++ {
		w.windows[r] = newWindow(cfg.WindowWords, NumStructures)
		w.procs[r] = newProc(w, r)
	}
	w.transports = make([]transport.Transport, cfg.N)
	for r := 0; r < cfg.N; r++ {
		if cfg.Transport == nil {
			w.transports[r] = loopback.New(w.EndpointOf)
			continue
		}
		t, err := cfg.Transport(r, cfg.N, w.EndpointOf)
		if err != nil {
			panic(fmt.Sprintf("rma: transport for rank %d: %v", r, err))
		}
		w.transports[r] = t
	}
	return w
}

// Close shuts down the ranks' transports (listeners, peer connections).
// The default loopback holds no resources, so single-process worlds may
// skip it; worlds over tcp must call it.
func (w *World) Close() {
	for _, t := range w.transports {
		if t != nil {
			t.Close()
		}
	}
}

// N returns the number of ranks.
func (w *World) N() int { return w.cfg.N }

// Params returns the machine cost model.
func (w *World) Params() sim.Params { return w.params }

// PFS returns the shared parallel-file-system resource.
func (w *World) PFS() *sim.SharedResource { return w.pfs }

// Proc returns rank r's runtime handle.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Alive reports whether rank r has not failed.
func (w *World) Alive(r int) bool { return !w.failed[r].Load() }

// SetTracer installs a Tracer that observes every action (for the formal
// order checks in package trace). Pass nil to disable.
func (w *World) SetTracer(t Tracer) {
	if t == nil {
		w.tracer.Store(nil)
		return
	}
	w.tracer.Store(&tracerBox{t: t})
}

// Emit delivers an action to the installed tracer. The fault-tolerance
// layers use it to record internal actions (checkpoints) into the same
// trace as the runtime's communication and synchronization actions.
func (w *World) Emit(a TraceAction) {
	w.trace(func(t Tracer) { t.OnAction(a) })
}

func (w *World) trace(fn func(Tracer)) {
	if box := w.tracer.Load(); box != nil {
		fn(box.t)
	}
}

// Kill fail-stops rank r: its window contents (volatile memory) are lost,
// any structure locks it holds anywhere are broken, and its goroutine
// unwinds at its next runtime call. Killing a dead rank is a no-op.
func (w *World) Kill(r int) {
	if w.failed[r].Swap(true) {
		return
	}
	w.kills.Inc()
	w.windows[r].clear()
	for _, win := range w.windows {
		win.releaseIfHeldBy(r)
	}
	// The dead rank permanently leaves all collectives so survivors keep
	// making progress. If it is currently blocked inside a barrier it is
	// released together with the survivors and unwinds right after.
	w.barrier.Leave(r)
}

// Respawn replaces a failed rank with a fresh process (the batch system
// providing p_new, §4.3): a zeroed window, reset epochs, and a new clock
// starting at the maximum virtual time of the surviving ranks (the
// replacement cannot start in the past). The caller is responsible for
// restoring memory contents via a recovery protocol and for re-running the
// rank with RunRank.
func (w *World) Respawn(r int) *Proc {
	if !w.failed[r].Load() {
		panic(fmt.Sprintf("rma: respawn of live rank %d", r))
	}
	w.respawns.Inc()
	w.windows[r] = newWindow(w.cfg.WindowWords, NumStructures)
	p := newProc(w, r)
	start := 0.0
	for i, q := range w.procs {
		if i != r && w.Alive(i) && q.clock.Now() > start {
			start = q.clock.Now()
		}
	}
	p.clock.AdvanceTo(start)
	w.procs[r] = p
	w.failed[r].Store(false)
	w.barrier.Join(r)
	return p
}

// Run executes body once per live rank, each in its own goroutine, and
// waits for all of them. A rank killed mid-run unwinds cleanly (leaving
// collective operations), any other panic is re-raised on the caller.
func (w *World) Run(body func(rank int)) {
	var wg sync.WaitGroup
	panics := make(chan interface{}, w.cfg.N)
	for r := 0; r < w.cfg.N; r++ {
		if !w.Alive(r) {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					if _, ok := e.(killed); ok {
						// Kill already removed the rank from all
						// collectives; just unwind.
						return
					}
					panics <- e
				}
			}()
			body(r)
		}(r)
	}
	wg.Wait()
	select {
	case e := <-panics:
		panic(e)
	default:
	}
}

// RunRank executes body on a single (re)spawned rank and waits; used to run
// recovery code for p_new while survivors are parked elsewhere.
func (w *World) RunRank(r int, body func()) {
	done := make(chan interface{}, 1)
	go func() {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(killed); ok {
					done <- nil
					return
				}
				done <- e
				return
			}
			done <- nil
		}()
		body()
	}()
	if e := <-done; e != nil {
		panic(e)
	}
}

// MaxTime returns the maximum virtual time across live ranks: the makespan
// of the run so far.
func (w *World) MaxTime() float64 {
	max := 0.0
	for r, p := range w.procs {
		if w.Alive(r) && p.clock.Now() > max {
			max = p.clock.Now()
		}
	}
	return max
}
