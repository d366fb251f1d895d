// Package cluster is the process-per-rank hub runtime: a Coordinator
// process arbitrates membership and crises and holds the simulated
// runtime fabric (windows, virtual clocks, barriers) together with all of
// the ftRMA recovery state, while one worker process per rank drives its
// rank's computation over the epoch-batched wire protocol. Every rank's
// access-log records and N/M flags, and every group's checkpoint parity,
// live in the coordinator's ftrma.System; with Config.PeerParityHosts
// (the cluster default) each (group, level) of parity is tagged with an
// elected hosting rank, so that rank's death loses the shards and forces
// the same rebuild and re-election path the in-process stack models.
// Ranks live in separate OS processes and die for real: a kill -9 drops
// the connection, the heartbeat failure detector condemns the rank, the
// coordinator maps the death onto the runtime's fail-stop Kill, and the
// ftRMA recovery path — log gathering, M/N-flag inspection, parity
// rebuild + re-election for state that died with its host, parity
// reconstruction for the victim, and (for this BSP workload) the
// coordinated rollback — restores a consistent cut that the surviving
// and replacement workers re-execute to a bit-identical final state.
// See docs/ARCHITECTURE.md for the who-hosts-what table and
// docs/WIRE.md for every frame.
//
// The op pipeline opens once every rank slot has joined
// (Coordinator.Started). A host election consults worker sessions, not
// World liveness: a respawned rank whose replacement worker has not
// joined yet is World-alive but cannot host parity.
//
// # Membership
//
// Workers join with a handshake that assigns the lowest free rank id; a
// replacement for a failed rank inherits its id and resume phase. The
// bulk-synchronous rendezvous needs no extra start barrier: a worker that
// races ahead simply blocks in its first gsync until the last rank joins.
//
// # The crisis protocol
//
// Recovery must run on a quiescent, consistent machine. When a worker
// dies the coordinator first lets the system drain naturally: surviving
// workers keep executing (the victim's window is still hosted, so nothing
// fails) until each blocks in the phase gsync that the victim can no
// longer join, or parks. Only then does the coordinator — with every rank
// provably inside or outside the collective, none mid-decision — suspend
// the coordinated-checkpoint schedule, impersonate the dead rank's
// barrier arrival with a raw runtime gsync so the blocked round drains
// without checkpointing, Kill the rank, and run Recover. The suspension
// ordering guarantees the rolled-back cut is always a completed
// phase-boundary checkpoint round, which is exactly what BSP
// re-execution needs.
//
// # Recovery paths
//
// Recovery takes the paper's cheap path whenever it genuinely applies:
// if the victim's gathered flags are clean (no in-flight get, no
// combining access — §3.2.3/§4.2), the coordinator respawns the rank in
// the runtime, keeps the causally ordered log records, and admits a
// replacement worker mid-crisis. The replacement drives its own catch-up
// — per phase a replay frame, on which the coordinator applies that
// phase's records, then re-execution of its deterministic phase work,
// Algorithm 2's replay/recompute interleaving — while the survivors stay
// parked; nothing rolls back. Only when ftrma.Recover reports
// ErrFallback (or a concurrent failure) does the cluster take
// the coordinated rollback, re-executing from the last coordinated cut.
// Stats().CausalRecoveries / Fallbacks distinguish the paths.
//
// # Lock-aware crisis
//
// The crisis protocol quiesces at collective boundaries: gsync and
// barrier both drain through the shared rendezvous the victim's
// impersonated arrival completes. A rank that dies between a Lock and
// its Unlock would leave a survivor's blocked Lock un-drainable, so
// condemnation force-releases every structure and user lock the dead
// rank holds anywhere (World.ReleaseLocksHeldBy), and the rendezvous
// wait re-sweeps on every wake — a condemned rank's own parked Lock
// request may acquire a freshly released lock and must be broken again.
// Cluster workloads may therefore lock across frames; the shipped
// ModeLocked workload does exactly that to prove it.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/ftrma"
	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/transport/wire"
)

// debugCrisis dumps crisis-protocol decisions to stdout (tests flip it).
var debugCrisis = false

// rankStatus is one rank slot's membership state.
type rankStatus int

const (
	rankEmpty     rankStatus = iota // no worker bound (initial, or awaiting a replacement)
	rankJoined                      // worker connected and presumed alive
	rankCondemned                   // failure detector fired; recovery pending
	rankFinished                    // all phases completed
)

// TransportConfig groups the wire-level liveness knobs (Config.Transport):
// the heartbeat beacon and the failure detector's patience.
type TransportConfig struct {
	// HeartbeatInterval is the liveness beacon period on worker
	// connections; with HeartbeatMiss it sets the failure detector's
	// patience. Defaults: 50ms and 10 (500ms of silence condemns a rank;
	// a kill -9's connection reset is usually caught instantly).
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
}

// Config describes a Coordinator.
type Config struct {
	// Listen is the address workers dial ("127.0.0.1:0" for tests).
	// Alternatively supply a pre-bound Listener.
	Listen   string
	Listener net.Listener
	// Workload is the bulk-synchronous workload the cluster executes.
	Workload Workload
	// FT overrides the ftRMA protocol configuration; nil selects the
	// cluster default (logging on, streaming demand checkpoints, a
	// coordinated checkpoint at every phase gsync, parity on peer hosts).
	FT *ftrma.Config
	// Transport groups the wire-level liveness knobs.
	Transport TransportConfig
	// Fabric groups the symmetric (coordinatorless) runtime's membership
	// knobs; only the fabric path (NewFabricSeed / RunFabricWorker) reads
	// them.
	Fabric fabric.Tuning
	// Timeout aborts the whole run if it has not completed in time (a
	// missing replacement worker parks the cluster forever otherwise).
	// Zero means no limit.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Transport.HeartbeatInterval == 0 {
		c.Transport.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.Transport.HeartbeatMiss == 0 {
		c.Transport.HeartbeatMiss = 10
	}
	c.Fabric = c.Fabric.WithDefaults()
	return c
}

// Validate rejects nonsensical configurations with descriptive errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Listener == nil && c.Listen == "" {
		return errors.New("cluster: need a Listen address or Listener for worker connections")
	}
	if c.Listener == nil {
		if _, _, err := net.SplitHostPort(c.Listen); err != nil {
			return fmt.Errorf("cluster: listen address %q: %v", c.Listen, err)
		}
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Transport.HeartbeatInterval < 0 {
		return fmt.Errorf("cluster: negative heartbeat interval (Transport.HeartbeatInterval) %v", c.Transport.HeartbeatInterval)
	}
	if c.Transport.HeartbeatMiss < 1 {
		return fmt.Errorf("cluster: Transport.HeartbeatMiss %d, need at least 1 interval of patience", c.Transport.HeartbeatMiss)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("cluster: negative timeout %v", c.Timeout)
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	if c.FT != nil {
		if err := c.FT.Validate(c.Workload.Ranks); err != nil {
			return err
		}
	}
	return nil
}

// defaultFT is the cluster's ftRMA configuration: full access logging, a
// coordinated checkpoint at every phase boundary (tiny fixed interval
// under the Gsync scheme), a small log budget so demand checkpoints and
// their streaming pipeline are exercised by real traffic, and parity
// hosted on elected peer ranks so a host's kill -9 loses the shards.
func defaultFT(n int) ftrma.Config {
	groups := 2
	if n < 4 {
		groups = 1
	}
	return ftrma.Config{
		Groups:            groups,
		ChecksumsPerGroup: 1,
		Log:               ftrma.LogConfig{Puts: true, Gets: true, BudgetBytes: 2 << 10},
		Stream:            ftrma.StreamConfig{Demand: true, ChunkBytes: 512},
		Scheme:            ftrma.CCGsync,
		FixedInterval:     1e-12,
		PeerParityHosts:   true,
	}
}

// hostGet is a get issued host-side whose value is reported to the worker
// at the epoch close that defines it.
type hostGet struct {
	seq  uint64
	dest []uint64
}

// session is one worker connection's server state.
type session struct {
	c        *Coordinator
	conn     *wire.Conn
	rank     int
	pendGets map[int][]hostGet
}

// Coordinator hosts the world and serves the workers.
type Coordinator struct {
	cfg Config
	wl  Workload
	w   *rma.World
	sys *ftrma.System
	obs *obs.Registry
	ln  net.Listener

	// sessMu guards the rank -> session binding alone. It is a leaf lock:
	// the ftRMA recovery path calls back into sessionAlive while the
	// coordinator holds mu, so the binding must be readable without mu.
	sessMu   sync.Mutex
	sessions []*session

	mu      sync.Mutex
	cond    *sync.Cond
	started bool // every rank slot has joined once; ops admitted
	status  []rankStatus
	busy    []bool
	inGsync []bool
	parked  []bool
	gsyncs  []int
	resume  int
	// generation counts completed rollbacks. Every worker frame carries
	// the generation its sender last synchronized with; a stale frame is
	// bounced to Await even after the crisis window has closed — without
	// this, a survivor whose drained gsync "succeeded" during the crisis
	// would charge ahead into a phase the rollback just erased.
	generation uint64
	crisis     bool
	doneErr    error

	// Causal-replay crisis state (all mu-guarded). While a causal
	// recovery is in flight, crisis stays true and replaying names the
	// victim rank: its replacement worker is the only rank admitted
	// through beginOp, catching up from replayFrom (the restored
	// checkpoint's phase) to replayTarget (the survivors' phase) before
	// the crisis lifts. replayLogs holds the gathered records, which the
	// replacement's replay frames apply phase by phase until its done
	// frame; replayDone flips when that frame has been finalized.
	replaying    int
	replayFrom   int
	replayTarget int
	replayLogs   *ftrma.ReplayLogs
	replayDone   bool

	// watchdog aborts the run at Config.Timeout; it is stopped when the
	// run completes so a clean run does not leave the timer's goroutine
	// (and its reference to the whole coordinator) behind.
	watchdog *time.Timer

	deaths chan int
}

// NewCoordinator validates cfg, builds the hosted world and protocol
// state, binds the listener, and starts accepting workers.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	wl := cfg.Workload
	ftCfg := defaultFT(wl.Ranks)
	if cfg.FT != nil {
		ftCfg = *cfg.FT
	}
	// One user lock beyond the standard structures: the ModeLocked
	// workload's critical sections (and the lock-aware crisis tests) use
	// it; it costs nothing when unused.
	// One registry for the whole coordinator process: the hosted world's
	// fault events, the ftRMA protocol counters, and the recovery spans
	// all land in it, and rankd's -debug-addr endpoint serves it.
	reg := ftCfg.Metrics
	if reg == nil {
		reg = obs.New(-1)
		ftCfg.Metrics = reg
	}
	w := rma.NewWorld(rma.Config{N: wl.Ranks, WindowWords: wl.WindowWords(), ExtraLocks: 1, Metrics: reg})
	sys, err := ftrma.NewSystem(w, ftCfg)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		wl:        wl,
		w:         w,
		sys:       sys,
		obs:       reg,
		sessions:  make([]*session, wl.Ranks),
		status:    make([]rankStatus, wl.Ranks),
		busy:      make([]bool, wl.Ranks),
		inGsync:   make([]bool, wl.Ranks),
		parked:    make([]bool, wl.Ranks),
		gsyncs:    make([]int, wl.Ranks),
		replaying: -1,
		deaths:    make(chan int, 4*wl.Ranks),
	}
	c.cond = sync.NewCond(&c.mu)
	sys.SetHostAlive(c.sessionAlive)
	c.ln = cfg.Listener
	if c.ln == nil {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Listen, err)
		}
		c.ln = ln
	}
	go c.acceptLoop()
	go c.controller()
	if cfg.Timeout > 0 {
		c.watchdog = time.AfterFunc(cfg.Timeout, func() {
			err := fmt.Errorf("cluster: run exceeded timeout %v", cfg.Timeout)
			// fatal needs mu. Should a goroutine ever wedge holding it
			// on a worker connection that stays up (heartbeats keep
			// arriving, so its ReadTimeout never fires —
			// TestClusterTimeoutAbortsWedgedRun stages exactly that),
			// fatal would wedge behind it. If fatal cannot land within
			// a grace period, down every worker connection: the wedged
			// wait fails with ErrDown, its holder unwinds and releases
			// mu, and the abort proceeds.
			done := make(chan struct{})
			go func() {
				c.fatal(err)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				c.downSessions()
				<-done
			}
		})
	}
	return c, nil
}

// Addr returns the bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats returns the hosted protocol's counters (the smoke test asserts a
// genuine recovery happened).
func (c *Coordinator) Stats() ftrma.Stats { return c.sys.Stats() }

// Obs returns the coordinator's metrics registry — the world's fault
// events, the ftRMA protocol instruments, and (after a Stats read) the
// ftrma.stats.* gauges. rankd serves it on -debug-addr.
func (c *Coordinator) Obs() *obs.Registry {
	c.sys.Stats() // refresh the stats gauges before a scrape
	return c.obs
}

// PhasesDone returns how many phase gsyncs rank r has completed — the
// kill scheduler of the smoke test watches it.
func (c *Coordinator) PhasesDone(r int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gsyncs[r]
}

// Close shuts the listener down. Worker connections die with their
// sessions; call after Run returns.
func (c *Coordinator) Close() {
	if c.watchdog != nil {
		c.watchdog.Stop()
	}
	c.ln.Close()
}

func (c *Coordinator) fatal(err error) {
	c.mu.Lock()
	if c.doneErr == nil && c.countFinished() < c.wl.Ranks {
		c.doneErr = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Run blocks until every rank finishes (returning each rank's final
// window contents) or the run aborts.
func (c *Coordinator) Run() ([][]uint64, error) {
	c.mu.Lock()
	for c.doneErr == nil && c.countFinished() < c.wl.Ranks {
		c.cond.Wait()
	}
	err := c.doneErr
	c.mu.Unlock()
	if c.watchdog != nil {
		// The run is over either way; a clean run must not leave the
		// timeout goroutine (and its coordinator reference) behind.
		c.watchdog.Stop()
	}
	c.cond.Broadcast() // release finish-parked sessions
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, c.wl.Ranks)
	for r := range out {
		out[r] = c.sys.Process(r).Inner().ReadAt(0, c.wl.WindowWords())
	}
	return out, nil
}

func (c *Coordinator) countFinished() int {
	n := 0
	for _, s := range c.status {
		if s == rankFinished {
			n++
		}
	}
	return n
}

// ---- Accept / sessions ------------------------------------------------------

func (c *Coordinator) acceptLoop() {
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return
		}
		sess := &session{c: c, rank: -1, pendGets: make(map[int][]hostGet)}
		// wire.New serves frames immediately; hold them until sess.conn is
		// published (the join handler binds the session, and downSessions
		// closes it through sess.conn).
		ready := make(chan struct{})
		sess.conn = wire.New(nc, wire.Config{
			Handler: func(t byte, payload []byte) (byte, []byte, error) {
				<-ready
				return sess.handle(t, payload)
			},
			Heartbeat:   c.cfg.Transport.HeartbeatInterval,
			ReadTimeout: time.Duration(c.cfg.Transport.HeartbeatMiss) * c.cfg.Transport.HeartbeatInterval,
			OnDown: func(error) {
				c.mu.Lock()
				r := sess.rank
				c.mu.Unlock()
				c.unbindSession(r, sess)
				if r >= 0 {
					select {
					case c.deaths <- r:
					default:
					}
					// Wake any staging wait so it absorbs this death.
					c.cond.Broadcast()
				}
			},
		})
		close(ready)
	}
}

var errCrisis = wire.RemoteFail{Code: wire.CodeCrisis, Msg: "recovery pending; await and resume"}

// beginOp admits one API execution for rank r (a crisis, a stale
// rollback generation, or an unbound rank denies it) and marks the rank
// busy; the c.mu bracket also publishes the session's state between the
// per-frame goroutines.
func (c *Coordinator) beginOp(r int, gsync bool, gen uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The op pipeline opens only once every rank slot has joined: a rank
	// racing ahead would otherwise wait in its first collective on ranks
	// that have no worker yet.
	for !c.started && c.doneErr == nil {
		c.cond.Wait()
	}
	if c.doneErr != nil {
		return wire.RemoteFail{Code: wire.CodeGeneric, Msg: c.doneErr.Error()}
	}
	// A crisis bounces every rank except the causal replacement: the
	// replaying rank's catch-up (replay frames interleaved with
	// re-executed phase work) is the crisis' whole business.
	if (c.crisis && r != c.replaying) || c.status[r] != rankJoined || gen != c.generation {
		return errCrisis
	}
	c.busy[r] = true
	c.inGsync[r] = gsync
	c.cond.Broadcast()
	return nil
}

func (c *Coordinator) endOp(r int) {
	c.mu.Lock()
	c.busy[r] = false
	c.inGsync[r] = false
	c.mu.Unlock()
	c.cond.Broadcast()
}

// bumpPhase records a completed phase gsync for the progress watchers.
func (c *Coordinator) bumpPhase(r int) {
	c.mu.Lock()
	c.gsyncs[r]++
	c.mu.Unlock()
	c.cond.Broadcast()
}

// exec runs one API execution for the session's rank, translating the
// runtime's fail-stop panics into the crisis protocol.
func (c *Coordinator) exec(sess *session, collective bool, gen uint64, fn func(p *ftrma.Process)) (err error) {
	if err := c.beginOp(sess.rank, collective, gen); err != nil {
		return err
	}
	defer func() {
		c.endOp(sess.rank)
		if e := recover(); e != nil {
			switch {
			case rma.IsKillUnwind(e):
				err = errCrisis
			default:
				if _, is := e.(rma.TargetFailedError); is {
					err = errCrisis
					return
				}
				err = wire.RemoteFail{Code: wire.CodeGeneric, Msg: fmt.Sprint(e)}
			}
		}
	}()
	fn(c.sys.Process(sess.rank))
	return nil
}

// handle serves one frame of the cluster protocol.
func (s *session) handle(t byte, payload []byte) (byte, []byte, error) {
	d := wire.NewDec(payload)
	switch t {
	case cJoin:
		return s.handleJoin()
	case cAwait:
		return s.handleAwait()
	}
	if s.rank < 0 {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "not joined"}
	}
	gen := d.U() // the rollback generation this frame was issued under
	if d.Failed() {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed frame"}
	}
	switch t {
	case cFinish:
		return s.handleFinish(gen)
	case cBatch:
		return s.handleBatch(d, gen)
	case cAtomic:
		return s.handleAtomic(d, gen)
	case cSync:
		return s.handleSync(d, gen)
	case cLock:
		return s.handleLock(d, gen)
	case cLocal:
		return s.handleLocal(d, gen)
	case cReplay:
		return s.handleReplay(d, gen)
	}
	return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: fmt.Sprintf("unknown frame type %#x", t)}
}

// handleJoin assigns the lowest free rank (waiting out a pending
// recovery, so a replacement binds to the freshly respawned slot).
func (s *session) handleJoin() (byte, []byte, error) {
	c := s.c
	c.mu.Lock()
	for {
		if c.doneErr != nil {
			c.mu.Unlock()
			return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: c.doneErr.Error()}
		}
		r := -1
		if c.crisis {
			// Mid-crisis the only admissible join is the causal
			// replacement: the recovery loop freed exactly the replaying
			// rank's slot and is waiting for a worker to inherit it.
			if c.replaying >= 0 && c.status[c.replaying] == rankEmpty {
				r = c.replaying
			}
		} else {
			for i, st := range c.status {
				if st == rankEmpty {
					r = i
					break
				}
			}
		}
		if r >= 0 {
			c.status[r] = rankJoined
			s.rank = r
			resume := c.resume
			catchup := false
			if c.crisis && r == c.replaying {
				resume = c.replayFrom
				catchup = true
			}
			replayTo := c.replayTarget
			gen := c.generation
			if !slices.Contains(c.status, rankEmpty) {
				c.started = true // the initial membership is complete
			}
			c.mu.Unlock()
			c.cond.Broadcast()
			c.bindSession(r, s)
			var e wire.Enc
			e.I(r)
			e.I(c.wl.Ranks)
			e.I(c.wl.WindowWords())
			e.I(resume)
			e.U(gen)
			e.I(c.wl.Ranks)
			e.I(c.wl.Phases)
			e.I(c.wl.InsertsPerPhase)
			e.I(c.wl.TableSlots)
			e.U(uint64(c.wl.PhaseDelay))
			e.B(byte(c.wl.Mode))
			if catchup {
				e.B(1)
				e.I(replayTo)
			} else {
				e.B(0)
				e.I(0)
			}
			return cJoin, e.Bytes(), nil
		}
		pending := c.crisis
		for _, st := range c.status {
			if st == rankCondemned {
				pending = true
			}
		}
		if r < 0 && !pending {
			c.mu.Unlock()
			return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "cluster full"}
		}
		// A slot will free up once the pending recovery completes.
		c.cond.Wait()
	}
}

// handleAwait parks a crisis-bounced worker until the recovery completes
// and returns the restored phase.
func (s *session) handleAwait() (byte, []byte, error) {
	c := s.c
	c.mu.Lock()
	s.pendGets = make(map[int][]hostGet) // the aborted epoch is rolled back
	if s.rank >= 0 {
		c.parked[s.rank] = true
	}
	c.cond.Broadcast()
	for c.crisis && c.doneErr == nil {
		c.cond.Wait()
	}
	if s.rank >= 0 {
		c.parked[s.rank] = false
	}
	resume := c.resume
	gen := c.generation
	err := c.doneErr
	c.mu.Unlock()
	c.cond.Broadcast()
	if err != nil {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: err.Error()}
	}
	var e wire.Enc
	e.I(resume)
	e.U(gen)
	return cAwait, e.Bytes(), nil
}

// handleFinish records completion and parks until every rank is done — or
// a late failure rolls the cluster back, in which case the worker resumes
// phases like everyone else.
func (s *session) handleFinish(gen uint64) (byte, []byte, error) {
	c := s.c
	c.mu.Lock()
	if s.rank < 0 || c.status[s.rank] != rankJoined || c.crisis || gen != c.generation {
		c.mu.Unlock()
		return 0, nil, errCrisis
	}
	c.status[s.rank] = rankFinished
	c.cond.Broadcast()
	for c.countFinished() < c.wl.Ranks && !c.crisis && c.doneErr == nil {
		c.cond.Wait()
	}
	if c.doneErr != nil {
		err := c.doneErr
		c.mu.Unlock()
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: err.Error()}
	}
	if c.crisis {
		c.status[s.rank] = rankJoined
		c.mu.Unlock()
		c.cond.Broadcast()
		return 0, nil, errCrisis
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	return cFinish, nil, nil
}

func (s *session) handleBatch(d *wire.Dec, gen uint64) (byte, []byte, error) {
	target := d.I()
	closeMode := d.B()
	str := d.I()
	nops := d.I()
	if d.Failed() || nops > wire.MaxFrame/8 {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed batch"}
	}
	type decOp struct {
		kind     byte
		red      uint8
		off, n   int
		localOff int
		seq      uint64
		data     []uint64
	}
	// Capacity capped: nops is wire-controlled and must not drive a large
	// allocation before the per-op decode has validated the payload.
	ops := make([]decOp, 0, min(nops, 1024))
	getWords := 0
	for i := 0; i < nops; i++ {
		kind := d.B()
		switch kind {
		case 2:
			op := decOp{kind: kind, off: d.I(), n: d.I()}
			op.localOff = d.I() - 1
			op.seq = d.U()
			getWords += op.n
			// The host allocates every get destination before the epoch
			// closes; bound the batch's total get volume by what one
			// reply frame could legally carry.
			if op.n > wire.MaxFrame/8 || getWords > wire.MaxFrame/8 {
				return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed get op"}
			}
			ops = append(ops, op)
		case 0, 1:
			op := decOp{kind: kind, red: d.B(), off: d.I()}
			op.data = d.Words()
			ops = append(ops, op)
		default:
			return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "unknown batch op"}
		}
	}
	if d.Failed() {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed batch op"}
	}
	var reply wire.Enc
	err := s.c.exec(s, false, gen, func(p *ftrma.Process) {
		for i := range ops {
			op := &ops[i]
			switch op.kind {
			case 0:
				p.Put(target, op.off, op.data)
			case 1:
				p.Accumulate(target, op.off, op.data, rma.ReduceOp(op.red))
			case 2:
				var dest []uint64
				if op.localOff >= 0 {
					dest = p.GetCopy(target, op.off, op.n, op.localOff)
				} else {
					dest = p.Get(target, op.off, op.n)
				}
				s.pendGets[target] = append(s.pendGets[target], hostGet{seq: op.seq, dest: dest})
			}
		}
		switch closeMode {
		case closeFlush:
			p.Flush(target)
		case closeUnlock:
			p.Unlock(target, str)
		}
		if closeMode != closeNone {
			s.encodeGets(&reply, target)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return cBatch, reply.Bytes(), nil
}

// encodeGets reports the now-defined gets towards target and clears them.
func (s *session) encodeGets(e *wire.Enc, target int) {
	gets := s.pendGets[target]
	delete(s.pendGets, target)
	e.I(len(gets))
	for _, g := range gets {
		e.U(g.seq)
		e.Words(g.dest)
	}
}

// encodeAllGets reports every pending get (a full epoch close).
func (s *session) encodeAllGets(e *wire.Enc) {
	total := 0
	for _, gets := range s.pendGets {
		total += len(gets)
	}
	e.I(total)
	for target, gets := range s.pendGets {
		for _, g := range gets {
			e.U(g.seq)
			e.Words(g.dest)
		}
		delete(s.pendGets, target)
	}
}

func (s *session) handleAtomic(d *wire.Dec, gen uint64) (byte, []byte, error) {
	kind := d.B()
	target := d.I()
	off := d.I()
	var old, new, operand uint64
	var red uint8
	var data []uint64
	switch kind {
	case atomCAS:
		old, new = d.W64(), d.W64()
	case atomFAO:
		operand, red = d.W64(), d.B()
	case atomGetAcc:
		red = d.B()
		data = d.Words()
	default:
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "unknown atomic"}
	}
	if d.Failed() {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed atomic"}
	}
	var reply wire.Enc
	err := s.c.exec(s, false, gen, func(p *ftrma.Process) {
		switch kind {
		case atomCAS:
			reply.W64(p.CompareAndSwap(target, off, old, new))
		case atomFAO:
			reply.W64(p.FetchAndOp(target, off, operand, rma.ReduceOp(red)))
		case atomGetAcc:
			reply.Words(p.GetAccumulate(target, off, data, rma.ReduceOp(red)))
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return cAtomic, reply.Bytes(), nil
}

func (s *session) handleSync(d *wire.Dec, gen uint64) (byte, []byte, error) {
	kind := d.B()
	if d.Failed() {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed sync"}
	}
	var reply wire.Enc
	err := s.c.exec(s, kind == syncGsync || kind == syncBarrier, gen, func(p *ftrma.Process) {
		switch kind {
		case syncFlushAll:
			p.FlushAll()
			s.encodeAllGets(&reply)
		case syncGsync:
			p.Gsync()
			s.encodeAllGets(&reply)
		case syncBarrier:
			p.Barrier()
		default:
			panic(fmt.Sprintf("unknown sync kind %d", kind))
		}
	})
	if err != nil {
		return 0, nil, err
	}
	if kind == syncGsync {
		s.c.bumpPhase(s.rank)
	}
	return cSync, reply.Bytes(), nil
}

func (s *session) handleLock(d *wire.Dec, gen uint64) (byte, []byte, error) {
	d.B() // reserved
	target := d.I()
	str := d.I()
	if d.Failed() {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed lock"}
	}
	err := s.c.exec(s, false, gen, func(p *ftrma.Process) { p.Lock(target, str) })
	if err != nil {
		return 0, nil, err
	}
	return cLock, nil, nil
}

func (s *session) handleLocal(d *wire.Dec, gen uint64) (byte, []byte, error) {
	kind := d.B()
	var reply wire.Enc
	var off, n int
	var data []uint64
	var f float64
	switch kind {
	case localReadAt:
		off, n = d.I(), d.I()
	case localWriteAt:
		off = d.I()
		data = d.Words()
	case localCompute, localAdvance:
		f = d.F()
	}
	if d.Failed() {
		return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed local op"}
	}
	err := s.c.exec(s, false, gen, func(p *ftrma.Process) {
		switch kind {
		case localReadAt:
			reply.Words(p.ReadAt(off, n))
		case localWriteAt:
			p.WriteAt(off, data)
		case localCompute:
			p.Compute(f)
		case localAdvance:
			p.AdvanceTime(f)
		case localNow:
			reply.F(p.Now())
		case localUCCkpt:
			p.UCCheckpoint()
		default:
			panic(fmt.Sprintf("unknown local kind %d", kind))
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return cLocal, reply.Bytes(), nil
}

// handleReplay serves the causal replacement's catch-up frames. A phase
// frame applies the gathered records of one gsync phase to the respawned
// rank in their causal order — Algorithm 2's replay half; the worker
// re-executes its own phase work between frames. The done frame
// finalizes the recovery: the replacement adopts the
// survivors' gsync counter and every rank takes an uncoordinated
// checkpoint, re-establishing log coverage (the victim's source-side
// records died with it — without fresh checkpoints a later survivor
// failure would silently miss them).
func (s *session) handleReplay(d *wire.Dec, gen uint64) (byte, []byte, error) {
	c := s.c
	mode := d.B()
	switch mode {
	case replayPhase:
		phase := d.I()
		if d.Failed() {
			return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed replay frame"}
		}
		c.mu.Lock()
		logs, from := c.replayLogs, c.replayFrom
		c.mu.Unlock()
		if logs == nil { // no causal replay in flight
			return 0, nil, errCrisis
		}
		err := c.exec(s, false, gen, func(p *ftrma.Process) {
			// The first frame also applies the straggler records below
			// the restored phase, oldest first: their effects are in the
			// checkpoint already, but untrimmed stragglers replay
			// harmlessly in order rather than being silently dropped.
			lo := phase
			if phase == from {
				lo = 0
			}
			for g := lo; g <= phase; g++ {
				p.ReplayPhase(logs, g)
			}
		})
		if err != nil {
			return 0, nil, err
		}
		return cReplay, nil, nil
	case replayDone:
		if d.Failed() {
			return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "malformed replay frame"}
		}
		c.mu.Lock()
		valid := c.crisis && c.replaying == s.rank && !c.replayDone &&
			c.status[s.rank] == rankJoined
		target := c.replayTarget
		c.mu.Unlock()
		if !valid {
			return 0, nil, errCrisis
		}
		err := c.exec(s, false, gen, func(p *ftrma.Process) {
			p.SyncGNC(target)
			for r := 0; r < c.wl.Ranks; r++ {
				if c.w.Alive(r) {
					c.sys.Process(r).UCCheckpoint()
				}
			}
		})
		if err != nil {
			return 0, nil, err
		}
		c.mu.Lock()
		c.replayDone = true
		c.replayLogs = nil
		c.mu.Unlock()
		c.cond.Broadcast()
		return cReplay, nil, nil
	}
	return 0, nil, wire.RemoteFail{Code: wire.CodeGeneric, Msg: "unknown replay mode"}
}

// ---- Failure handling -------------------------------------------------------

// controller serializes death handling. Deaths that arrive while one
// recovery is staging are absorbed immediately (condemned ranks count as
// quiesced once idle) and recovered sequentially afterwards.
func (c *Coordinator) controller() {
	for v := range c.deaths {
		c.mu.Lock()
		c.condemnLocked(v)
		for c.doneErr == nil {
			next := c.nextCondemnedLocked()
			if next < 0 {
				break
			}
			c.recoverLocked(next)
		}
		c.mu.Unlock()
		c.cond.Broadcast()
	}
}

// condemnLocked marks a freshly dead rank for recovery (mu held); the
// broadcast wakes the crisis waits so the machine can quiesce around it.
func (c *Coordinator) condemnLocked(r int) {
	if r >= 0 && r < len(c.status) && c.status[r] == rankJoined {
		c.status[r] = rankCondemned
		// Lock-aware crisis: break every structure and user lock the dead
		// rank holds anywhere, immediately — a survivor blocked in Lock on
		// one of them could otherwise never drain into the rendezvous that
		// gates the Kill (which would be the only other lock breaker).
		c.w.ReleaseLocksHeldBy(r)
		c.cond.Broadcast()
	}
}

// sweepCondemnedLocksLocked re-runs the condemnation lock sweep for every
// condemned rank (mu held). The one-shot sweep in condemnLocked is not
// enough: a dead rank's own host-side Lock goroutine may still be parked
// on a lock a *live* rank holds, acquire it the moment that rank unlocks,
// and wedge it all over again — so the rendezvous waits sweep on every
// wake. Releasing a condemned rank's locks is idempotent and can never
// corrupt a critical section (the rank is dead; nothing of it will run
// again except unwinds).
func (c *Coordinator) sweepCondemnedLocksLocked() {
	for r, st := range c.status {
		if st == rankCondemned {
			c.w.ReleaseLocksHeldBy(r)
		}
	}
}

// drainDeathsLocked absorbs queued death events (mu held) so ranks dying
// while a recovery is already staging flip to condemned — which the
// quiescence predicate treats as "idle is enough" — instead of being
// waited on as live ranks that will never move again.
func (c *Coordinator) drainDeathsLocked() {
	for {
		select {
		case r := <-c.deaths:
			c.condemnLocked(r)
		default:
			return
		}
	}
}

// nextCondemnedLocked returns a rank awaiting recovery, or -1.
func (c *Coordinator) nextCondemnedLocked() int {
	c.drainDeathsLocked()
	for r, st := range c.status {
		if st == rankCondemned {
			return r
		}
	}
	return -1
}

// quiescedFor reports (mu held) whether the machine has drained around
// the condemned victim: the victim's session idle, and every other bound
// rank either blocked in the phase gsync, parked, or finished.
func (c *Coordinator) quiescedFor(v int) bool {
	if c.busy[v] {
		return false
	}
	for r, st := range c.status {
		if r == v {
			continue
		}
		switch st {
		case rankEmpty, rankFinished:
		case rankCondemned:
			if c.busy[r] {
				return false
			}
		case rankJoined:
			if c.busy[r] && c.inGsync[r] { // blocked in a collective (gsync or barrier)
				continue
			}
			if c.parked[r] {
				continue
			}
			return false
		}
	}
	return true
}

// recoverLocked runs the crisis protocol for one condemned rank (mu
// held; cond.Wait releases it across the rendezvous waits); see the
// package comment for the staging argument.
func (c *Coordinator) recoverLocked(v int) {
	c.cond.Broadcast()

	// Phase A: rendezvous — wait until the survivors have drained into
	// the victim-blocked collective (or all the way to the finish line).
	// Concurrent deaths are absorbed each pass so a second victim's
	// silence cannot stall the wait.
	for {
		c.drainDeathsLocked()
		c.sweepCondemnedLocksLocked()
		if c.quiescedFor(v) || c.doneErr != nil {
			break
		}
		c.cond.Wait()
	}
	if c.doneErr != nil {
		return
	}

	// A rank that died after its last gsync has already contributed all
	// its effects; its work is done, no recovery needed.
	if c.sys.Process(v).GNC() >= c.wl.Phases {
		c.status[v] = rankFinished
		return
	}

	// Phase B: the machine is staged. Suspend the checkpoint schedule
	// (every gsync-blocked rank is inside the barrier, so the skip
	// decision lands uniformly), drain the blocked round by impersonating
	// each dead rank's barrier arrival with a raw runtime gsync, and wait
	// for every session to come to rest.
	c.crisis = true
	c.sys.SetCCSuspended(true)
	anyGsync := false
	for r := range c.inGsync {
		if c.inGsync[r] {
			anyGsync = true
		}
	}
	if anyGsync {
		injections := 0
		injected := 0
		for r, st := range c.status {
			if st == rankCondemned && !c.busy[r] {
				injections++
				proc := c.sys.Process(r).Inner()
				go func() {
					defer func() {
						recover() // a kill unwind cannot happen pre-Kill; belt and braces
						c.mu.Lock()
						injected++
						c.mu.Unlock()
						c.cond.Broadcast()
					}()
					proc.Gsync()
				}()
			}
		}
		for (injected < injections || c.anyBusy()) && c.doneErr == nil {
			c.cond.Wait()
			c.drainDeathsLocked()
			c.sweepCondemnedLocksLocked()
		}
	} else {
		for c.anyBusy() && c.doneErr == nil {
			c.cond.Wait()
			c.drainDeathsLocked()
			c.sweepCondemnedLocksLocked()
		}
	}
	if c.doneErr != nil {
		return
	}

	// Phase C: fail-stop the condemned ranks for real and run the ftRMA
	// recovery for v. The cheap path is taken whenever Recover grants it;
	// ErrFallback (forced by in-flight gets, combining accesses, or a
	// concurrent failure) selects the coordinated rollback.
	began := time.Now()
	// Kill every condemned rank, not just v: a second condemned rank left
	// World-alive would count as a survivor whose worker is gone. Killing
	// it makes Recover see the concurrent failure and choose the
	// fallback, which restores all the dead at once. Likewise a rank
	// whose slot is empty because its replacement never joined has no
	// worker to re-execute it — kill it so it rides the same fallback.
	c.w.Kill(v)
	for r, st := range c.status {
		if r != v && st == rankCondemned {
			c.w.Kill(r)
		}
		if c.started && st == rankEmpty && !c.sessionAlive(r) && c.w.Alive(r) {
			c.w.Kill(r)
		}
	}
	res, err := c.sys.Recover(v)

	switch {
	case err == nil:
		// The cheap path: nothing rolled back. A replacement worker
		// replays the gathered records and re-executes its way to the
		// survivors' phase; the crisis stays open until it is done.
		c.recoverCausalLocked(v, res, began)
		return
	case errors.Is(err, ftrma.ErrFallback):
		err = nil
	}
	if err != nil {
		c.doneErr = fmt.Errorf("cluster: recovery of rank %d: %w", v, err)
		return
	}
	// The fallback restored every rank — including v — to the same
	// coordinated cut, so the victim's own restored counter is the
	// resume phase. The progress counters roll back with it (the drained
	// and re-executed rounds would otherwise over-report progress to the
	// smoke watchers).
	c.resume = c.sys.Process(v).GNC()
	for r := range c.gsyncs {
		c.gsyncs[r] = c.resume
	}
	c.generation++
	if debugCrisis {
		fmt.Printf("cluster debug: recovered rank %d (fallback), resume=%d, gsyncs=%v, stats=%+v\n", v, c.resume, c.gsyncs, c.sys.Stats())
	}
	// The fallback restored (and respawned) every dead rank; all their
	// slots now await replacement workers.
	for r, st := range c.status {
		if st == rankCondemned {
			c.status[r] = rankEmpty
		}
	}
	c.status[v] = rankEmpty
	c.crisis = false
	c.sys.SetCCSuspended(false)
	c.sys.NoteFallbackRecovery(float64(time.Since(began)) / float64(time.Microsecond))
}

// recoverCausalLocked drives the cheap recovery path after a successful
// ftrma.Recover (mu held, crisis open): keep the causally ordered
// records, free v's slot so a replacement worker can inherit it
// mid-crisis, and wait for its catch-up — phase replay frames
// interleaved with re-executed phase work — to finish. If the
// replacement itself dies mid-replay, the crisis stays open and the
// controller loop re-enters recoverLocked(v): the respawned rank is
// killed for real this time, the survivors' records about v are still
// in place (nothing trimmed them), and a fresh Recover reproduces the
// same result for the next replacement.
func (c *Coordinator) recoverCausalLocked(v int, res *ftrma.RecoverResult, began time.Time) {
	target := c.replayTargetLocked(v)
	c.replaying = v
	c.replayFrom = res.Proc.GNC()
	c.replayTarget = target
	c.replayLogs = res.Logs
	c.replayDone = false
	c.status[v] = rankEmpty // handleJoin admits the replacement mid-crisis
	if debugCrisis {
		fmt.Printf("cluster debug: causal recovery of rank %d, replay [%d..%d), %d records\n",
			v, c.replayFrom, target, res.Logs.Len())
	}
	c.cond.Broadcast()

	abort := func() {
		// The replacement died (or never came) — leave the crisis open and
		// let the controller loop re-run recoverLocked for v.
		c.replaying = -1
		c.replayLogs = nil
		c.replayDone = false
	}

	// Wait for a replacement worker to join and finish its catch-up, or
	// die trying: its OnDown condemnation ends the wait.
	for !c.replayDone && c.status[v] != rankCondemned && c.doneErr == nil {
		c.cond.Wait()
		c.drainDeathsLocked()
		c.sweepCondemnedLocksLocked()
	}
	if c.doneErr != nil {
		return
	}
	if !c.replayDone {
		abort()
		return
	}

	// Catch-up complete: the replacement is at the survivors' phase, all
	// ranks hold fresh uncoordinated checkpoints, nothing was rolled
	// back. Close the crisis without bumping the rollback generation —
	// no survivor state was invalidated.
	c.resume = target
	c.gsyncs[v] = target
	c.replaying = -1
	c.replayDone = false
	if debugCrisis {
		fmt.Printf("cluster debug: causal recovery of rank %d complete, resume=%d, stats=%+v\n", v, c.resume, c.sys.Stats())
	}
	c.crisis = false
	c.sys.SetCCSuspended(false)
	c.sys.NoteCausalRecovery(float64(time.Since(began)) / float64(time.Microsecond))
}

// replayTargetLocked returns the phase the survivors stand at (mu held,
// post-drain): the phase the causal replacement must catch up to. In BSP
// lockstep every live rank agrees; finished ranks sit at Phases.
func (c *Coordinator) replayTargetLocked(v int) int {
	target := 0
	for r, st := range c.status {
		if r == v {
			continue
		}
		if st == rankJoined || st == rankFinished {
			if g := c.sys.Process(r).GNC(); g > target {
				target = g
			}
		}
	}
	return target
}

func (c *Coordinator) anyBusy() bool {
	for _, b := range c.busy {
		if b {
			return true
		}
	}
	return false
}

// ---- Worker sessions ---------------------------------------------------------

func (c *Coordinator) bindSession(r int, s *session) {
	c.sessMu.Lock()
	c.sessions[r] = s
	c.sessMu.Unlock()
}

// downSessions force-closes every bound worker connection. Leaf-locked
// (sessMu only): the timeout watchdog calls it precisely when mu may be
// wedged behind a wait on a connection that will never answer, so it must
// not need mu. Closing a connection fails that wait with ErrDown and lets
// the holder unwind.
func (c *Coordinator) downSessions() {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	for _, s := range c.sessions {
		if s != nil && s.conn != nil {
			s.conn.Close()
		}
	}
}

func (c *Coordinator) unbindSession(r int, s *session) {
	c.sessMu.Lock()
	if r >= 0 && r < len(c.sessions) && c.sessions[r] == s {
		c.sessions[r] = nil
	}
	c.sessMu.Unlock()
}

// sessionAlive is the liveness predicate the ftRMA host elections use: a
// rank can host parity only while a worker session is bound to it.
// (World.Alive is weaker — a respawned rank is World-alive before its
// replacement worker joins.) Leaf-locked: safe from any goroutine,
// including recovery paths holding the coordinator mutex.
func (c *Coordinator) sessionAlive(r int) bool {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	return r >= 0 && r < len(c.sessions) && c.sessions[r] != nil
}

// ParityHostRank returns the rank elected to host (group, level)'s parity
// shards, or -1 when they stay with the paper's infallible checksum
// process (a Config.FT without PeerParityHosts). The parity-host kill
// smoke aims with it.
func (c *Coordinator) ParityHostRank(group, level int) int {
	return c.sys.ParityHostRank(group, level)
}

// Started reports whether every rank slot has joined once (the op
// pipeline is open).
func (c *Coordinator) Started() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started
}

// Replaying returns the rank whose causal replacement is currently
// awaited or catching up, or -1 when no causal recovery is in flight.
// The chaos tests aim their kill-the-replacement-mid-replay schedules
// with it.
func (c *Coordinator) Replaying() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replaying
}

// RanksJoined counts the rank slots currently bound to a worker. Tests
// spawn workers one at a time against it to pin the rank <-> process
// correspondence.
func (c *Coordinator) RanksJoined() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.status {
		if st != rankEmpty {
			n++
		}
	}
	return n
}
