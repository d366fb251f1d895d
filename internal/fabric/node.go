package fabric

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/erasure"
	"repro/internal/ftrma"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ErrClosed reports an operation on a node after Close.
var ErrClosed = errors.New("fabric: node closed")

// JoinConfig configures one worker's entry into the fabric.
type JoinConfig struct {
	// Join is the address to join through: the seed during bootstrap, or
	// any live member when rejoining as a replacement (the member
	// redirects to the crisis arbiter if it is not the arbiter itself).
	Join string
	// Addr is the address peers dial this node's Listener at.
	Addr string
	// Listener accepts the node's peer connections. The node owns it.
	Listener net.Listener
	// Dialer opens the node's peer connections.
	Dialer transport.Dialer
	// Logf, when set, receives progress lines (testing.T.Logf shape).
	Logf func(format string, args ...any)
	// Obs, when set, receives the node's metrics (fabric.* counters and
	// histograms, crisis.* spans). Nil builds a private unlabeled
	// registry so instrumentation never needs nil checks.
	Obs *obs.Registry
	// Flight, when set, is the node's flight recorder. Nil builds one
	// from the environment (obs.RecorderFromEnv).
	Flight *obs.Recorder
	// FlightDir, when set, receives a JSONL flight-ring dump on every
	// crisis close; empty falls back to REPRO_FLIGHTREC_DIR.
	FlightDir string
}

// pendOp is one buffered access of the open epoch towards a target.
type pendOp struct {
	put      bool
	off      int
	data     []uint64 // puts: private copy of the payload
	n        int      // gets: word count
	localOff int      // gets: exposed landing offset, -1 private
	dest     []uint64 // gets: the slice handed to the caller
	sc       int      // puts: global source sequence
	gc       int      // gets: global get counter
}

// peerConn is the node's outbound connection to one incarnation of a rank.
type peerConn struct {
	c   *wire.Conn
	inc int
}

// connState attributes an inbound connection once its fHello arrives and
// keys it in the peer table; Node.cmu guards it.
type connState struct {
	rank    int
	inc     int
	helloed bool
	down    bool
}

// The node's lifecycle, forward only. A joining node has no rank state
// yet and passes no verdicts; a draining one (fShutdown seen) still
// serves but reads its peers leaving as the end of the run, not as deaths.
const (
	stJoining int32 = iota
	stLive
	stDraining
	stClosed
)

// hostedGroup is the parity shard set this node hosts for one group.
type hostedGroup struct {
	k      int
	rs     *erasure.RS
	shards [][]uint64 // m parity shards, each windowWords long
	snaps  []snap     // per memberIdx: counters of the folded base
	folded []int      // per memberIdx: last folded phase (dedupes retries)
	// scratch backs handleParityFold's delta views; parMu guards it.
	scratch []uint64
}

// pendingInstall is the reconstructed state a crisis arbiter holds for
// the replacement of a dead rank until it joins.
type pendingInstall struct {
	rank int
	inc  int
	in   *install
}

// Node is a symmetric fabric worker: it hosts its own rank's window and
// logs, an elected share of parity, and speaks every fabric frame both
// ways. It implements Fabric.
type Node struct {
	rank        int
	n           int
	windowWords int
	grouping    machine.Grouping
	inc         int
	addr        string
	meta        []byte
	// tuning is read by the accept loop from the moment the listener is
	// up and replaced once by applyWorld (the seed distributes the whole
	// fabric's timings), hence the atomic pointer.
	tuning atomic.Pointer[Tuning]
	dialer transport.Dialer
	ln     net.Listener
	sink   func(string, ...any) // JoinConfig.Logf; called through logf only

	// obs/om/fr are set once in Join before any loop starts and are
	// immutable after: hot paths use them without nil checks (om) or
	// with the recorder's own nil/disabled fast path (fr).
	obs       *obs.Registry
	om        *nodeMetrics
	fr        *obs.Recorder
	flightDir string

	// window is the rank's exposed memory; winMu keeps remote batches,
	// local reads/writes, and checkpoint diffs atomic to each other. Every
	// write goes through writeLocked, which stamps dirty — the same tracker
	// the in-process runtime's window uses — so a checkpoint diff visits the
	// chunks written since the last committed one and nothing else.
	winMu  sync.Mutex
	window []uint64
	dirty  rma.DirtyTracker

	// ckptMu serializes the checkpoint protocol (diff, fold, base
	// commit) against crisis quiesce and base fetches; ckptCond parks
	// checkpoints while inCrisis. Outside the chunks stamped after ckptGen,
	// window == base; delta is the diff in flight, reused fold to fold.
	ckptMu   sync.Mutex
	ckptCond *sync.Cond
	inCrisis bool
	base     []uint64
	ckptGen  uint64
	delta    ckptDelta
	snapSelf snap

	// logMu guards the access logs and the causal counters.
	logMu sync.Mutex
	logs  ftrma.LogHost
	ec    []int // per-target epoch counters
	sc    int   // global put sequence
	gc    int   // global get counter
	phase int   // the phase executing next (== own watermark)
	ecAt  map[int][]int
	gcAt  map[int]int

	// pend is the open epoch per target; workload-thread only.
	pend [][]pendOp

	// mmu guards the membership and hosting tables and crisis trackers;
	// mcond wakes watermark barriers and parked deliveries.
	mmu        sync.Mutex
	mcond      *sync.Cond
	members    []Member
	hostings   []Hosting
	strikes    map[int]*strike
	crisisBusy bool
	recoveries int
	pending    *pendingInstall
	gossipPos  int // rotating fan-out cursor, guarded by mmu

	parMu  sync.Mutex
	hosted map[int]*hostedGroup

	// The peer table, guarded by cmu and nil once closed: the one outbound
	// connection per rank, opened single-flight under the rank's dialMu,
	// and every accepted connection until it goes down.
	cmu     sync.Mutex
	conns   map[int]*peerConn
	inbound map[*connState]*wire.Conn
	dialMu  []sync.Mutex

	// state is the lifecycle word. lifeMu orders enter against Close's
	// flip to stClosed, after which no work — a log line included — is
	// admitted; tasks counts the admitted work Close waits out.
	state    atomic.Int32
	lifeMu   sync.Mutex
	tasks    sync.WaitGroup
	stop     chan struct{} // closed by Close
	shutdown chan struct{} // closed by fShutdown or Close

	failMu  sync.Mutex
	failErr error
}

type strike struct {
	inc int
	n   int
}

var _ Fabric = (*Node)(nil)

// tun returns the node's current timing knobs.
func (nd *Node) tun() Tuning { return *nd.tuning.Load() }

// Join enters the fabric through cfg.Join and returns a ready node: the
// listener is serving, the world (and, for a replacement rank, the
// reconstructed install state) is applied, and gossip is running.
func Join(cfg JoinConfig) (*Node, error) {
	nd, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	w, in, err := nd.joinLoop(cfg.Join)
	if err == nil {
		err = nd.applyWorld(w, in)
	}
	if err != nil {
		nd.Close()
		return nil, err
	}
	nd.spawn(nd.gossipLoop)
	return nd, nil
}

// newNode builds a node in stJoining with its accept loop running.
func newNode(cfg JoinConfig) (*Node, error) {
	if cfg.Listener == nil || cfg.Dialer == nil {
		return nil, errors.New("fabric: JoinConfig needs a Listener and a Dialer")
	}
	nd := &Node{
		addr:     cfg.Addr,
		dialer:   cfg.Dialer,
		ln:       cfg.Listener,
		sink:     cfg.Logf,
		conns:    make(map[int]*peerConn),
		inbound:  make(map[*connState]*wire.Conn),
		hosted:   make(map[int]*hostedGroup),
		strikes:  make(map[int]*strike),
		stop:     make(chan struct{}),
		shutdown: make(chan struct{}),
	}
	tun := Tuning{}.WithDefaults()
	nd.tuning.Store(&tun)
	nd.initObs(cfg.Obs, cfg.Flight, cfg.FlightDir)
	nd.ckptCond = sync.NewCond(&nd.ckptMu)
	nd.mcond = sync.NewCond(&nd.mmu)
	nd.spawn(nd.acceptLoop)
	return nd, nil
}

// joinLoop follows redirects until a world arrives. A failing address falls
// back to the original one: a survivor may redirect to a stale "lowest
// alive" rank that is in fact the corpse we are replacing, and the survivor
// itself stays reachable until its own failure detector catches up and
// redirects to the real arbiter.
func (nd *Node) joinLoop(addr string) (world, *install, error) {
	orig := addr
	deadline := time.Now().Add(60 * time.Second)
	var backoff time.Duration
	for errs := 0; ; {
		if time.Now().After(deadline) {
			return world{}, nil, fmt.Errorf("fabric: join via %s: no world within 60s", addr)
		}
		r, err := nd.joinOnce(addr, deadline)
		if err != nil {
			errs++
			if errs > 200 {
				return world{}, nil, fmt.Errorf("fabric: join via %s: %w", addr, err)
			}
			addr = orig
			nd.dialBackoff(&backoff)
			continue
		}
		if r.redirect == "" {
			return r.w, r.in, nil
		}
		errs, backoff, addr = 0, 0, r.redirect
	}
}

// joinReply is one decoded fJoin exchange: a redirect, or the world.
type joinReply struct {
	redirect string
	w        world
	in       *install
}

// joinOnce is one fJoin exchange. The far side answers when it has something
// to say — the arbiter holds the call until the install is parked — so the
// wait is bounded here, by what is left of joinLoop's deadline.
func (nd *Node) joinOnce(addr string, deadline time.Time) (joinReply, error) {
	var r joinReply
	nc, err := nd.dialer.Dial(addr)
	if err != nil {
		return r, err
	}
	wc := wire.New(nc, wire.Config{
		Heartbeat: nd.tun().LeaseInterval,
		BytesOut:  nd.om.wireOut, BytesIn: nd.om.wireIn,
	})
	defer wc.Close()
	defer time.AfterFunc(time.Until(deadline), func() { wc.Close() }).Stop()
	var e wire.Enc
	e.Str(nd.addr)
	reply, err := wc.Call(fJoin, e.Bytes())
	if err != nil {
		return r, err
	}
	d := wire.NewDec(reply)
	switch mode := d.B(); mode {
	case jmRedirect:
		if r.redirect = d.Str(); r.redirect == "" {
			return r, errors.New("fabric: join redirected nowhere")
		}
	case jmWorld:
		var ok bool
		if r.w, ok = decWorld(d); !ok {
			return r, errors.New("fabric: undecodable join world")
		}
		if d.B() != 0 {
			if r.in, ok = decInstall(d); !ok {
				return r, errors.New("fabric: undecodable join install")
			}
		}
	default:
		return r, fmt.Errorf("fabric: unknown join reply mode %d", mode)
	}
	if d.Failed() {
		return r, errors.New("fabric: undecodable join reply")
	}
	return r, nil
}

// applyWorld installs the join reply: identity, tables, hosted parity,
// and — for a replacement — the reconstructed base and causal replay.
func (nd *Node) applyWorld(w world, in *install) error {
	if w.n < 2 || w.rank < 0 || w.rank >= w.n || w.windowWords < 1 ||
		w.groups < 1 || w.groups > w.n || len(w.members) != w.n {
		return fmt.Errorf("fabric: malformed world (rank %d of %d, %d window words, %d groups, %d members)",
			w.rank, w.n, w.windowWords, w.groups, len(w.members))
	}
	nd.rank, nd.n, nd.windowWords = w.rank, w.n, w.windowWords
	nd.grouping = fabricGrouping(w.n, w.groups)
	if nd.obs.Rank() < 0 {
		nd.obs.SetRank(nd.rank)
	}
	if nd.fr.Rank() < 0 {
		nd.fr.SetRank(nd.rank)
	}
	tw := w.tuning.WithDefaults()
	nd.tuning.Store(&tw)
	nd.meta = w.meta
	nd.inc = w.members[w.rank].Incarnation
	nd.window = make([]uint64, w.windowWords)
	nd.dirty = rma.NewDirtyTracker(w.windowWords)
	if in == nil {
		nd.base = make([]uint64, w.windowWords)
	}
	nd.snapSelf = snap{phase: -1, ec: make([]int, w.n)}
	nd.logs = ftrma.NewLocalLogHost(4096, 128, 0.5)
	nd.ec = make([]int, w.n)
	nd.ecAt = map[int][]int{0: make([]int, w.n)}
	nd.gcAt = map[int]int{0: 0}
	nd.pend = make([][]pendOp, w.n)
	nd.dialMu = make([]sync.Mutex, w.n)
	nd.members = append([]Member(nil), w.members...)
	nd.hostings = append([]Hosting(nil), w.hostings...)
	for _, h := range w.hostings {
		if h.Host == nd.rank {
			hg, err := newHostedGroup(len(nd.grouping.ComputeMembers(h.Group)), nd.windowWords)
			if err != nil {
				return err
			}
			nd.hosted[h.Group] = hg
		}
	}
	if in != nil {
		if err := nd.applyInstall(in); err != nil {
			return err
		}
	}
	nd.state.CompareAndSwap(stJoining, stLive)
	nd.wake() // the frames held while this node was installing
	nd.logf("fabric: rank %d inc %d joined at phase %d", nd.rank, nd.inc, nd.phase)
	return nil
}

// applyInstall replays the reconstructed state of a replacement rank:
// base, counters, then the put redeliveries and get re-deposits with
// GNC ≥ the committed phase, in the order the arbiter's ftrma.ReplayOrder
// gave them (the install's codec keeps record order).
func (nd *Node) applyInstall(in *install) error {
	t0 := time.Now()
	if len(in.base) != nd.windowWords {
		return fmt.Errorf("fabric: install base has %d words, window is %d", len(in.base), nd.windowWords)
	}
	nd.base = in.base        // decoded for this node alone
	copy(nd.window, in.base) // window == base: nothing to stamp
	nd.snapSelf = in.snap
	if len(in.snap.ec) == nd.n {
		copy(nd.ec, in.snap.ec)
	}
	nd.gc = in.snap.gc
	nd.phase = in.snap.phase + 1
	nd.ecAt = map[int][]int{nd.phase: append([]int(nil), nd.ec...)}
	nd.gcAt = map[int]int{nd.phase: nd.gc}
	if err := nd.replay(in); err != nil {
		return err
	}
	nd.om.replayChunks.Inc()
	nd.om.replayPuts.Add(uint64(len(in.puts)))
	nd.om.replayGets.Add(uint64(len(in.gets)))
	us := time.Since(t0).Microseconds()
	if us < 1 {
		us = 1
	}
	nd.om.replayUs.Observe(uint64(us))
	nd.fr.Record(obs.EvReplayChunk, int64(len(in.puts)), int64(len(in.gets)), us)
	return nil
}

// replay lands the install's records in the window, stamped like any other
// write: the replacement's first checkpoint folds exactly what they changed.
func (nd *Node) replay(in *install) error {
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	for _, r := range in.puts {
		if r.Combine || r.Op != rma.OpReplace {
			return fmt.Errorf("fabric: replay of combining put (op %v) is not supported", r.Op)
		}
		if r.Off < 0 || r.Off+len(r.Data) > nd.windowWords {
			return fmt.Errorf("fabric: replay put out of window ([%d,%d) of %d)", r.Off, r.Off+len(r.Data), nd.windowWords)
		}
		nd.writeLocked(r.Off, r.Data)
	}
	for _, r := range in.gets {
		if r.LocalOff < 0 {
			continue // private destination: re-execution re-fetches it
		}
		if r.LocalOff+len(r.Data) > nd.windowWords {
			return fmt.Errorf("fabric: replay get deposit out of window")
		}
		nd.writeLocked(r.LocalOff, r.Data)
	}
	return nil
}

func newHostedGroup(k, words int) (*hostedGroup, error) {
	rs, err := erasure.NewRS(k, 1)
	if err != nil {
		return nil, err
	}
	hg := &hostedGroup{
		k:      k,
		rs:     rs,
		shards: [][]uint64{make([]uint64, words)},
		snaps:  make([]snap, k),
		folded: make([]int, k),
	}
	for i := range hg.snaps {
		hg.snaps[i] = snap{phase: -1}
		hg.folded[i] = -1
	}
	return hg, nil
}

// ---- Liveness, failure, shutdown --------------------------------------------

func (nd *Node) fail(err error) {
	nd.failMu.Lock()
	if nd.failErr == nil {
		nd.failErr = err
		nd.logf("fabric: rank %d failed: %v", nd.rank, err)
	}
	nd.failMu.Unlock()
	nd.wake()
}

// failedOrClosed returns the terminal error of the node, if any.
func (nd *Node) failedOrClosed() error {
	if nd.state.Load() == stClosed {
		return ErrClosed
	}
	nd.failMu.Lock()
	defer nd.failMu.Unlock()
	return nd.failErr
}

// wake makes every parked wait re-test its condition. Broadcasting under
// the lock orders the wake after a waiter that just tested the old state.
func (nd *Node) wake() {
	nd.mmu.Lock()
	nd.mcond.Broadcast()
	nd.mmu.Unlock()
	nd.ckptMu.Lock()
	nd.ckptCond.Broadcast()
	nd.ckptMu.Unlock()
}

// enter admits one unit of node work — a goroutine the node starts, a
// frame handler, a connection-down callback — unless the node is closed.
// Every admitted unit ends in tasks.Done, and Close waits for them all.
func (nd *Node) enter() bool {
	nd.lifeMu.Lock()
	defer nd.lifeMu.Unlock()
	if nd.state.Load() == stClosed {
		return false
	}
	nd.tasks.Add(1)
	return true
}

// spawn runs f on a goroutine Close waits for; on a closed node it does
// nothing. Every goroutine of the node starts here, or is waited for by one
// that did (a crisis's concurrent fetches).
func (nd *Node) spawn(f func()) {
	if !nd.enter() {
		return
	}
	go func() {
		defer nd.tasks.Done()
		f()
	}()
}

// logf forwards a progress line to JoinConfig.Logf as one more unit of
// admitted work, whatever goroutine it comes from: Close waits out a call
// in flight, and none starts after it.
func (nd *Node) logf(format string, args ...any) {
	if nd.sink != nil && nd.enter() {
		defer nd.tasks.Done()
		nd.sink(format, args...)
	}
}

// dialBackoff is the one clock on the retry paths: a failed dial leaves no
// event to wait for. Each wait doubles the last one through *d — 1 ms to
// begin with, GossipInterval at most — and Close cuts it short. A recovery
// does not come through here; fabric.retry.backoffs counts who does.
func (nd *Node) dialBackoff(d *time.Duration) {
	nd.om.backoffs.Inc()
	*d = min(max(2**d, time.Millisecond), nd.tun().GossipInterval)
	select {
	case <-nd.stop:
	case <-time.After(*d):
	}
}

// awaitInstalled holds a frame that needs rank state until the world (and a
// replacement's install) is applied, so a survivor's redelivery cannot race
// the install's base restore and never has to be refused and retried. It
// reports false when the node closed instead.
func (nd *Node) awaitInstalled() bool {
	if nd.state.Load() == stJoining {
		nd.mmu.Lock()
		for nd.state.Load() == stJoining {
			nd.mcond.Wait() // until applyWorld's or Close's wake
		}
		nd.mmu.Unlock()
	}
	return nd.state.Load() != stClosed
}

// Close implements Fabric: a fail-stop. It closes the listener and every
// connection (the peers' death report), fails every parked or later call
// with ErrClosed, and returns once nothing admitted by enter is running;
// JoinConfig.Logf is never called after it returns. A second Close is a
// no-op. It waits out a dial in flight (bounded by the Dialer) and must
// not be called from a frame handler.
func (nd *Node) Close() error {
	nd.lifeMu.Lock()
	prev := nd.state.Swap(stClosed)
	nd.lifeMu.Unlock()
	if prev == stClosed {
		return nil
	}
	close(nd.stop)
	if prev != stDraining {
		close(nd.shutdown)
	}
	nd.ln.Close()
	nd.cmu.Lock()
	conns, inbound := nd.conns, nd.inbound
	nd.conns, nd.inbound = nil, nil
	nd.cmu.Unlock()
	for _, pc := range conns {
		pc.c.Close()
	}
	for _, c := range inbound {
		c.Close()
	}
	nd.wake()
	nd.tasks.Wait()
	return nil
}

// AwaitShutdown implements Fabric.
func (nd *Node) AwaitShutdown() { <-nd.shutdown }

// Meta implements Fabric.
func (nd *Node) Meta() []byte { return nd.meta }

// Addr implements Fabric.
func (nd *Node) Addr() string { return nd.addr }

// ---- Membership -------------------------------------------------------------

// Self implements Membership.
func (nd *Node) Self() Member {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return nd.members[nd.rank]
}

// Members implements Membership.
func (nd *Node) Members() []Member {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return append([]Member(nil), nd.members...)
}

// Hostings implements Membership.
func (nd *Node) Hostings() []Hosting {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return append([]Hosting(nil), nd.hostings...)
}

// InCrisis implements Crisis.
func (nd *Node) InCrisis() bool {
	nd.ckptMu.Lock()
	defer nd.ckptMu.Unlock()
	return nd.inCrisis
}

// Recoveries implements Crisis.
func (nd *Node) Recoveries() int {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return nd.recoveries
}

// condemn marks (rank, inc) dead: the local half of the failure
// detector. Verdicts are per-incarnation so a replacement is never
// condemned by stale evidence against its predecessor.
func (nd *Node) condemn(rank, inc int, cause error) {
	// Only a live node passes verdicts: one still joining has no table to
	// charge, one draining or closed sees its peers leave in good order.
	if nd.state.Load() != stLive || rank == nd.rank || !nd.enter() {
		return
	}
	defer nd.tasks.Done()
	nd.mmu.Lock()
	m := &nd.members[rank]
	if m.Incarnation != inc || !m.Alive {
		nd.mmu.Unlock()
		return
	}
	m.Alive = false
	nd.mmu.Unlock()
	nd.om.condemned.Inc()
	nd.fr.Record(obs.EvCondemn, int64(rank), int64(inc), 0)
	nd.logf("fabric: rank %d condemns rank %d (inc %d): %v", nd.rank, rank, inc, cause)
	nd.dropConn(rank, inc)
	nd.mcond.Broadcast()
	nd.spawn(nd.gossipNow)
	nd.maybeArbiter()
}

// strikeDial records a failed dial towards (rank, inc); LeaseMiss
// consecutive strikes condemn the peer. This is the detector for peers
// we hold no live connection to (established connections are covered by
// wire heartbeats + OnDown).
func (nd *Node) strikeDial(rank, inc int, cause error) {
	nd.mmu.Lock()
	s := nd.strikes[rank]
	if s == nil || s.inc != inc {
		s = &strike{inc: inc}
		nd.strikes[rank] = s
	}
	s.n++
	hit := s.n >= nd.tun().LeaseMiss
	nd.mmu.Unlock()
	if hit {
		nd.condemn(rank, inc, fmt.Errorf("unreachable after %d dial attempts: %w", nd.tun().LeaseMiss, cause))
	}
}

// mergeMembers folds a remote view into ours: higher incarnations win a
// slot outright; within one incarnation deaths are sticky and watermarks
// are monotone.
func (nd *Node) mergeMembers(ms []Member, hs []Hosting) {
	changed := false
	nd.mmu.Lock()
	for _, m := range ms {
		changed = nd.mergeLocked(m) || changed
	}
	for _, h := range hs {
		if h.Group < 0 || h.Group >= len(nd.hostings) {
			continue
		}
		if h.Version > nd.hostings[h.Group].Version {
			nd.hostings[h.Group] = h
			changed = true
		}
	}
	nd.mmu.Unlock()
	if changed {
		nd.mcond.Broadcast()
		nd.maybeArbiter()
	}
}

// mergeWatermark merges one rank's gsync progress — an fGsyncReady, or the
// fold that stands in for one at its parity host — by mergeMembers' rule.
func (nd *Node) mergeWatermark(rank, inc, wm int) {
	nd.mmu.Lock()
	changed := nd.mergeLocked(Member{Rank: rank, Incarnation: inc, Alive: true, Watermark: wm})
	nd.mmu.Unlock()
	if changed {
		nd.mcond.Broadcast()
		nd.maybeArbiter()
	}
}

// mergeLocked folds one remote entry into the table and reports whether it
// changed anything. Caller holds mmu.
func (nd *Node) mergeLocked(m Member) bool {
	if m.Rank < 0 || m.Rank >= nd.n || m.Rank == nd.rank {
		return false
	}
	cur := &nd.members[m.Rank]
	changed := false
	switch {
	case m.Incarnation > cur.Incarnation:
		*cur = m
		changed = true
	case m.Incarnation == cur.Incarnation:
		if cur.Alive && !m.Alive {
			cur.Alive = false
			changed = true
		}
		if m.Watermark > cur.Watermark {
			cur.Watermark = m.Watermark
			changed = true
		}
		if cur.Addr == "" && m.Addr != "" {
			cur.Addr = m.Addr
			changed = true
		}
	}
	return changed
}

func (nd *Node) gossipLoop() {
	t := time.NewTicker(nd.tun().GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-nd.stop:
			return
		case <-t.C:
		}
		nd.gossipNow()
		nd.maybeArbiter()
	}
}

// gossipFanout bounds how many peers one gossip round addresses. All-peers
// rounds make the anti-entropy load O(n²) frames per interval fabric-wide,
// which at a couple hundred ranks swamps the heartbeats it is meant to
// backstop; a rotating bounded fan-out keeps per-round load O(n·k) and
// still reaches every peer within ceil((n-1)/k) rounds — epidemic spread
// converges faster than that in practice, and repair is reset-driven
// anyway.
const gossipFanout = 16

func (nd *Node) gossipNow() {
	if nd.failedOrClosed() != nil {
		return
	}
	var e wire.Enc
	nd.mmu.Lock()
	encMembers(&e, nd.members)
	encHostings(&e, nd.hostings)
	peers := nd.alivePeersLocked()
	if len(peers) > gossipFanout {
		start := nd.gossipPos % len(peers)
		nd.gossipPos = (nd.gossipPos + gossipFanout) % len(peers)
		peers = append(peers[start:], peers[:start]...)[:gossipFanout]
	}
	nd.mmu.Unlock()
	nd.notify(peers, fGossip, e.Bytes())
}

// alivePeersLocked snapshots the live peers (rank, incarnation ≠ self).
func (nd *Node) alivePeersLocked() []Member {
	var out []Member
	for _, m := range nd.members {
		if m.Rank != nd.rank && m.Alive && m.Addr != "" {
			out = append(out, m)
		}
	}
	return out
}

// notify sends one best-effort notification to each of peers, dialing at
// most once each; failures feed the dial-strike detector, never block.
func (nd *Node) notify(peers []Member, t byte, payload []byte) {
	for _, m := range peers {
		if pc, err := nd.peer(m); err == nil {
			pc.c.Notify(t, payload)
		}
	}
}

// errDial marks a failed dial: of all the ways a retry loop can fail, the one
// that is followed by no event (see dialBackoff).
var errDial = errors.New("fabric: dial failed")

// peer returns the node's connection to m's incarnation, dialing it when
// the table holds none. It is the node's only lookup-or-dial and single-
// flight per rank, so a node never holds two connections to one (rank,
// incarnation) and never has a duplicate to close — which the far side
// would read as a death. A failed dial is a strike against m and wraps
// errDial; any other error means the table m was read from has moved on
// (the slot has a newer incarnation) or the node closed.
func (nd *Node) peer(m Member) (*peerConn, error) {
	nd.cmu.Lock()
	pc := nd.conns[m.Rank]
	nd.cmu.Unlock()
	if pc != nil && pc.inc == m.Incarnation {
		return pc, nil
	}
	nd.dialMu[m.Rank].Lock()
	defer nd.dialMu[m.Rank].Unlock()
	nd.cmu.Lock()
	pc, closed := nd.conns[m.Rank], nd.conns == nil
	nd.cmu.Unlock()
	switch {
	case closed:
		return nil, ErrClosed
	case pc != nil && pc.inc == m.Incarnation:
		return pc, nil // dialed while we waited our turn
	case pc != nil && pc.inc > m.Incarnation:
		return nil, fmt.Errorf("fabric: rank %d inc %d has been replaced", m.Rank, m.Incarnation)
	}
	nc, err := nd.dialer.Dial(m.Addr)
	if err != nil {
		nd.strikeDial(m.Rank, m.Incarnation, err)
		return nil, fmt.Errorf("%w: %w", errDial, err)
	}
	st := &connState{rank: m.Rank, inc: m.Incarnation, helloed: true}
	pc = &peerConn{inc: m.Incarnation}
	lease := nd.tun().LeaseInterval * time.Duration(nd.tun().LeaseMiss)
	pc.c = wire.New(nc, wire.Config{
		Handler:     func(t byte, p []byte) (byte, []byte, error) { return nd.handle(st, t, p) },
		Heartbeat:   nd.tun().LeaseInterval,
		ReadTimeout: lease,
		BytesOut:    nd.om.wireOut,
		BytesIn:     nd.om.wireIn,
		OnDown: func(err error) {
			nd.condemn(m.Rank, m.Incarnation, fmt.Errorf("connection down: %w", err))
		},
		// A frame landing inside the last LeaseMiss window slice was one
		// heartbeat from condemning a live peer: count it so operators see
		// lease pressure long before the first false positive.
		OnNearMiss: func(gap time.Duration) {
			nd.om.nearMiss.Inc()
			nd.fr.Record(obs.EvLeaseNearMiss, int64(m.Rank), gap.Microseconds(), lease.Microseconds())
		},
	})
	var e wire.Enc
	e.I(nd.rank)
	e.I(nd.inc)
	pc.c.Notify(fHello, e.Bytes())
	nd.cmu.Lock()
	old := nd.conns[m.Rank]
	if closed = nd.conns == nil; !closed {
		nd.conns[m.Rank] = pc
	}
	nd.cmu.Unlock()
	if closed {
		pc.c.Close()
		return nil, ErrClosed
	}
	if old != nil {
		old.c.Close() // to an older incarnation, so no verdict: condemn ignores it
	}
	nd.mmu.Lock()
	delete(nd.strikes, m.Rank)
	nd.mmu.Unlock()
	return pc, nil
}

// dropConn closes the connection to a condemned (rank, inc).
func (nd *Node) dropConn(rank, inc int) {
	nd.cmu.Lock()
	if pc := nd.conns[rank]; pc != nil && pc.inc <= inc {
		delete(nd.conns, rank)
		defer pc.c.Close() // unlocked: its OnDown comes back through condemn
	}
	nd.cmu.Unlock()
}

// conn returns a live connection to target, parking (interruptibly)
// while the target is dead and its replacement has not joined yet.
func (nd *Node) conn(target int) (*peerConn, error) {
	var backoff time.Duration
	refused := -1 // the incarnation the last dial failed against
	for {
		nd.mmu.Lock()
		err := nd.failedOrClosed()
		for err == nil && (!nd.members[target].Alive || nd.members[target].Addr == "") {
			nd.mcond.Wait() // until the table shows a replacement incarnation
			err = nd.failedOrClosed()
		}
		m := nd.members[target]
		nd.mmu.Unlock()
		if err != nil {
			return nil, err
		}
		if m.Incarnation == refused {
			// The table still calls alive what refused the dial (had the
			// verdict merely been on its way, the wait above would have
			// taken it): there is nothing to wait for but time.
			nd.dialBackoff(&backoff)
		}
		pc, err := nd.peer(m)
		if err == nil {
			return pc, nil
		}
		if errors.Is(err, errDial) {
			refused = m.Incarnation
		}
	}
}

// ---- The rma.API surface ----------------------------------------------------

// Rank implements rma.API.
func (nd *Node) Rank() int { return nd.rank }

// N implements rma.API.
func (nd *Node) N() int { return nd.n }

// ReadAt implements rma.API.
func (nd *Node) ReadAt(off, n int) []uint64 {
	out := make([]uint64, n)
	nd.winMu.Lock()
	copy(out, nd.window[off:off+n])
	nd.winMu.Unlock()
	return out
}

// ReadInto is the allocation-free read path rma.ReadWindow probes for.
func (nd *Node) ReadInto(off int, dst []uint64) {
	nd.winMu.Lock()
	copy(dst, nd.window[off:off+len(dst)])
	nd.winMu.Unlock()
}

// WriteAt implements rma.API. The write is stamped, so the next
// checkpoint's diff visits the chunks it touched.
func (nd *Node) WriteAt(off int, data []uint64) {
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	nd.writeLocked(off, data)
}

// writeLocked is the window's only writer: it copies data to off and stamps
// the chunks it covers, which is what lets a checkpoint skip every other
// chunk. Caller holds winMu. A range outside the window is a usage error and
// aborts as on the in-process runtime; handlers validate what arrives off
// the wire before they call it.
func (nd *Node) writeLocked(off int, data []uint64) {
	rma.CheckRange(off, len(data), len(nd.window))
	copy(nd.window[off:], data)
	nd.dirty.Mark(off, len(data))
}

// Put implements rma.API.
func (nd *Node) Put(target, off int, data []uint64) {
	if target == nd.rank {
		nd.WriteAt(off, data)
		return
	}
	cp := append([]uint64(nil), data...)
	nd.logMu.Lock()
	sc := nd.sc
	nd.sc++
	nd.logMu.Unlock()
	nd.pend[target] = append(nd.pend[target], pendOp{put: true, off: off, data: cp, sc: sc})
}

// PutValue implements rma.API.
func (nd *Node) PutValue(target, off int, v uint64) { nd.Put(target, off, []uint64{v}) }

// Get implements rma.API.
func (nd *Node) Get(target, off, n int) []uint64 { return nd.addGet(target, off, n, -1) }

// GetCopy implements rma.API.
func (nd *Node) GetCopy(target, off, n, localOff int) []uint64 {
	return nd.addGet(target, off, n, localOff)
}

// GetInto implements rma.API by rejection: the fabric window never hands
// out aliases (GetCopy covers the recoverable-landing use).
func (nd *Node) GetInto(target, off, n, localOff int) []uint64 {
	panic("fabric: GetInto (window aliasing) is not supported; use GetCopy")
}

// GetBlocking implements rma.API.
func (nd *Node) GetBlocking(target, off, n int) []uint64 {
	if target == nd.rank {
		return nd.ReadAt(off, n)
	}
	dest := nd.addGet(target, off, n, -1)
	nd.Flush(target)
	return dest
}

func (nd *Node) addGet(target, off, n, localOff int) []uint64 {
	dest := make([]uint64, n)
	if target == nd.rank {
		nd.winMu.Lock()
		defer nd.winMu.Unlock()
		copy(dest, nd.window[off:off+n])
		if localOff >= 0 {
			nd.writeLocked(localOff, dest)
		}
		return dest
	}
	nd.logMu.Lock()
	gc := nd.gc
	nd.gc++
	nd.logMu.Unlock()
	nd.pend[target] = append(nd.pend[target], pendOp{off: off, n: n, localOff: localOff, dest: dest, gc: gc})
	return dest
}

// Flush implements rma.API: it closes the epoch towards target by
// shipping the buffered batch peer-to-peer. Delivery failures park and
// redeliver to the target's replacement (idempotent under the causal
// model); terminal node failures surface at the next Sync.
func (nd *Node) Flush(target int) {
	if target == nd.rank || len(nd.pend[target]) == 0 {
		return
	}
	ops := nd.pend[target]
	nd.pend[target] = nil
	nd.deliver(target, ops)
}

// FlushAll implements rma.API.
func (nd *Node) FlushAll() {
	for t := 0; t < nd.n; t++ {
		nd.Flush(t)
	}
}

func (nd *Node) deliver(target int, ops []pendOp) {
	t0 := time.Now()
	nd.logMu.Lock()
	phase := nd.phase
	nd.logMu.Unlock()
	var e wire.Enc
	e.I(nd.rank)
	e.I(nd.inc)
	e.I(phase)
	nputs, ngets := 0, 0
	for _, op := range ops {
		if op.put {
			nputs++
		} else {
			ngets++
		}
	}
	e.I(nputs)
	for _, op := range ops {
		if op.put {
			e.I(op.off)
			e.Words(op.data)
		}
	}
	e.I(ngets)
	for _, op := range ops {
		if !op.put {
			e.I(op.off)
			e.I(op.n)
			e.I(op.localOff + 1)
			e.I(op.gc)
		}
	}
	payload := e.Bytes()
	for {
		pc, err := nd.conn(target)
		if err != nil {
			return // failed or closed: the next Sync reports it
		}
		reply, err := pc.c.Call(fBatch, payload)
		if err == nil {
			nd.om.batchSent.Inc()
			nd.om.flushUs.ObserveSince(t0)
			nd.fr.Record(obs.EvFrameSend, int64(fBatch), int64(target), int64(len(payload)))
			nd.ackBatch(target, phase, ops, reply)
			return
		}
		var rf wire.RemoteFail
		if errors.As(err, &rf) && rf.Code != wire.CodeCrisis || errors.Is(err, wire.ErrFrameTooLarge) {
			nd.fail(fmt.Errorf("fabric: batch to rank %d rejected: %w", target, err))
			return
		}
		// The connection died under the call, or the target answered that it
		// is closing: a fail-stop of that incarnation either way. Pass the
		// verdict here — the connection's OnDown is about to, but wire fails
		// its callers first — so conn() parks for the replacement instead of
		// handing the dead connection back; redelivery is idempotent. A
		// draining node passes no verdicts, and the dead connection has to
		// leave its table all the same: conn() then redials.
		nd.dropConn(target, pc.inc)
		nd.condemn(target, pc.inc, err)
	}
}

// ackBatch commits a delivered epoch: source-side put logs and get
// result placement.
func (nd *Node) ackBatch(target, phase int, ops []pendOp, reply []byte) {
	nd.logMu.Lock()
	epoch := nd.ec[target]
	for _, op := range ops {
		if !op.put {
			continue
		}
		nd.logs.AppendLP(target, ftrma.LogRecord{
			Kind: ftrma.LogPut, Src: nd.rank, Trg: target,
			Off: op.off, Data: op.data, LocalOff: -1,
			EC: epoch, SC: op.sc, GNC: phase,
		})
	}
	nd.ec[target] = epoch + 1
	nd.logMu.Unlock()
	d := wire.NewDec(reply)
	count := d.I()
	for _, op := range ops {
		if op.put {
			continue
		}
		if count <= 0 {
			nd.fail(fmt.Errorf("fabric: batch reply from rank %d misses get results", target))
			return
		}
		count--
		if !d.WordsInto(op.dest) {
			nd.fail(fmt.Errorf("fabric: undecodable batch reply from rank %d", target))
			return
		}
		if op.localOff >= 0 {
			nd.WriteAt(op.localOff, op.dest)
		}
	}
}

// Unsupported rma.API surface (see the package doc: the fabric is scoped
// to causal workloads; the in-process ftrma stack runs the rest).
func (nd *Node) Accumulate(target, off int, data []uint64, op rma.ReduceOp) {
	if op == rma.OpReplace {
		nd.Put(target, off, data)
		return
	}
	panic("fabric: combining Accumulate requires the in-process ftrma stack")
}

// CompareAndSwap implements rma.API by rejection.
func (nd *Node) CompareAndSwap(target, off int, old, new uint64) uint64 {
	panic("fabric: CompareAndSwap requires the in-process ftrma stack")
}

// FetchAndOp implements rma.API by rejection.
func (nd *Node) FetchAndOp(target, off int, operand uint64, op rma.ReduceOp) uint64 {
	panic("fabric: FetchAndOp requires the in-process ftrma stack")
}

// GetAccumulate implements rma.API by rejection.
func (nd *Node) GetAccumulate(target, off int, data []uint64, op rma.ReduceOp) []uint64 {
	panic("fabric: GetAccumulate requires the in-process ftrma stack")
}

// Lock implements rma.API by rejection.
func (nd *Node) Lock(target, str int) {
	panic("fabric: structure locks require the in-process ftrma stack")
}

// Unlock implements rma.API by rejection.
func (nd *Node) Unlock(target, str int) {
	panic("fabric: structure locks require the in-process ftrma stack")
}

// Barrier implements rma.API by rejection (Gsync is the fabric's only
// collective).
func (nd *Node) Barrier() {
	panic("fabric: Barrier requires the in-process ftrma stack; use Gsync")
}

// Compute implements rma.API (the fabric carries no virtual clock).
func (nd *Node) Compute(flops float64) {}

// Now implements rma.API.
func (nd *Node) Now() float64 { return 0 }

// Gsync implements rma.API on top of Sync.
func (nd *Node) Gsync() {
	if err := nd.Sync(); err != nil {
		panic(fmt.Sprintf("fabric: gsync: %v", err))
	}
}

// ---- Epoch ------------------------------------------------------------------

// Phase implements Epoch.
func (nd *Node) Phase() int {
	nd.logMu.Lock()
	defer nd.logMu.Unlock()
	return nd.phase
}

// Sync implements Epoch: flush everything, commit the phase checkpoint
// to the group's parity host, pass the hub-free watermark barrier, then
// trim logs that checkpoints now cover.
func (nd *Node) Sync() error {
	nd.FlushAll()
	if err := nd.failedOrClosed(); err != nil {
		return err
	}
	nd.logMu.Lock()
	p := nd.phase
	nd.logMu.Unlock()
	ckpt := time.Now()
	host, err := nd.checkpoint(p)
	if err != nil {
		return err
	}
	nd.om.ckptUs.ObserveSince(ckpt)
	nd.logMu.Lock()
	nd.phase = p + 1
	nd.ecAt[p+1] = append([]int(nil), nd.ec...)
	nd.gcAt[p+1] = nd.gc
	nd.logMu.Unlock()
	nd.fr.Record(obs.EvEpochClose, int64(p), int64(nd.n-1), 0)
	nd.broadcastReady(p+1, host)
	wait := time.Now()
	if err := nd.awaitWatermarks(p + 1); err != nil {
		return err
	}
	us := time.Since(wait).Microseconds()
	if us < 1 {
		us = 1
	}
	nd.om.gsyncUs.Observe(uint64(us))
	nd.fr.Record(obs.EvGsync, int64(p+1), 0, us)
	nd.fr.Record(obs.EvEpochOpen, int64(p+1), 0, 0)
	nd.trimAt(p + 1)
	return nil
}

// broadcastReady publishes watermark wm: own entry first, then fGsyncReady to
// every live peer but host, the (rank, incarnation) that acked this phase's
// fold — it merged wm when it folded. A host the table has moved on from
// since is a different peer, and gets its ready.
func (nd *Node) broadcastReady(wm int, host Member) {
	nd.mmu.Lock()
	if nd.members[nd.rank].Watermark < wm {
		nd.members[nd.rank].Watermark = wm
	}
	peers := slices.DeleteFunc(nd.alivePeersLocked(), func(m Member) bool {
		return m.Rank == host.Rank && m.Incarnation == host.Incarnation
	})
	nd.mmu.Unlock()
	nd.mcond.Broadcast()
	var e wire.Enc
	e.I(nd.rank)
	e.I(nd.inc)
	e.I(wm)
	nd.notify(peers, fGsyncReady, e.Bytes())
}

// awaitWatermarks is the barrier: every rank — dead ranks' frozen
// entries included, so a victim blocks progress until its replacement
// climbs past — must have committed watermark wm. A parity host learns its
// members' watermarks from their folds, everybody else from fGsyncReady;
// lost ready frames are repaired by gossip, which carries watermarks.
func (nd *Node) awaitWatermarks(wm int) error {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	for {
		if err := nd.failedOrClosed(); err != nil {
			return err
		}
		ok := true
		for i := range nd.members {
			if nd.members[i].Watermark < wm {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		nd.mcond.Wait()
	}
}

// trimAt drops log records two barriers behind: after barrier b every
// rank's checkpoint covers phase b-1, so records with GNC ≤ b-2 can
// never be replayed again.
func (nd *Node) trimAt(b int) {
	if b < 2 {
		return
	}
	nd.logMu.Lock()
	defer nd.logMu.Unlock()
	ecAt := nd.ecAt[b-1]
	for q := 0; q < nd.n; q++ {
		if q == nd.rank {
			continue
		}
		if ecAt != nil {
			nd.logs.TrimLP(q, ecAt[q])
		}
		nd.logs.TrimLG(q, b-1, 0)
	}
	for ph := range nd.ecAt {
		if ph < b-1 {
			delete(nd.ecAt, ph)
			delete(nd.gcAt, ph)
		}
	}
}

// ---- Checkpoint fold --------------------------------------------------------

// ckptDelta is one checkpoint's diff: the runs of the window that differ
// from the committed base, their XOR deltas back to back in words, and the
// tracker generation the window was read at. The node owns one and reuses
// its buffers; it is valid from diffRanges to commitBase, which ckptMu
// serialises.
type ckptDelta struct {
	runs  []deltaRun
	words []uint64
	gen   uint64
}

// deltaRun is the changed word range [off, off+n) of a ckptDelta.
type deltaRun struct{ off, n int }

// idle reports whether a reused buffer is mostly dead weight: its last use
// needed `used` words and left more than three quarters of it, and more than
// 64 KiB, untouched. Such a buffer is dropped, not carried along — the
// set-up fill of a window folds the whole of it once, and that fold's
// buffers would otherwise stay resident for a run of 528-word folds.
func idle(buf []uint64, used int) bool { return cap(buf) > 4*used+(8<<10) }

// each calls f with every run's offset and delta words, in window order.
func (df *ckptDelta) each(f func(off int, delta []uint64)) {
	words := df.words
	for _, r := range df.runs {
		f(r.off, words[:r.n])
		words = words[r.n:]
	}
}

// checkpoint commits phase p: diff the chunks written since the last
// commit against the committed base, ship the (off, delta) ranges plus the
// counter snapshot to the group's parity host in one fParityFold, then fold
// the delta into the local base. ckptMu makes the whole exchange atomic
// against crisis quiesce and base fetches; parity is always updated before
// the base commit, so parity = encode(committed bases) holds whenever the
// lock is free.
//
// The window is diffed once per phase. A fold that fails is retried with the
// same nd.delta and snapshot: the host may have applied it and lost the ack,
// and it dedupes by phase, so a fresh diff — the window may have moved since
// — would commit words to the base that parity never saw. What landed after
// the diff is stamped above delta.gen and goes with the next phase's fold.
//
// It returns the host that acked the fold — this node, for a fold it hosts
// itself.
func (nd *Node) checkpoint(p int) (Member, error) {
	t0 := time.Now()
	g := nd.grouping.GroupOf(nd.rank)
	memberIdx := nd.grouping.MemberIndex(nd.rank)
	nd.ckptMu.Lock()
	defer nd.ckptMu.Unlock()
	var s snap
	var backoff time.Duration
	for diffed := false; ; {
		if err := nd.failedOrClosed(); err != nil {
			return Member{}, err
		}
		if nd.inCrisis {
			nd.ckptCond.Wait()
			continue
		}
		nd.mmu.Lock()
		h, rec := nd.hostings[g], nd.recoveries
		var hm Member
		if h.Host >= 0 {
			hm = nd.members[h.Host]
		}
		nd.mmu.Unlock()
		if h.Host < 0 {
			return Member{}, fmt.Errorf("fabric: group %d has no electable parity host", g)
		}
		if !diffed {
			nd.diffRanges()
			s = nd.snapNow(p)
			diffed = true
		}
		var err error
		switch {
		case h.Host == nd.rank:
			if err = nd.foldLocal(g, memberIdx, p, s); err != nil {
				return Member{}, err
			}
		case !hm.Alive:
			err = fmt.Errorf("fabric: rank %d is down", h.Host)
		default:
			var pc *peerConn
			if pc, err = nd.peer(hm); err == nil {
				_, err = pc.c.CallVec(fParityFold, nd.encFold(g, memberIdx, p, s))
			}
		}
		if err == nil {
			nd.commitBase(s)
			nd.om.foldsSent.Inc()
			nd.om.ckptFolded.Add(uint64(len(nd.delta.words)))
			nd.om.foldUs.ObserveSince(t0)
			nd.fr.Record(obs.EvParityFold, int64(g), int64(p), int64(len(nd.delta.runs)))
			return hm, nil
		}
		var rf wire.RemoteFail
		if errors.As(err, &rf) && rf.Code != wire.CodeCrisis && !strings.Contains(rf.Msg, "not hosting") ||
			errors.Is(err, wire.ErrFrameTooLarge) {
			return Member{}, fmt.Errorf("fabric: parity fold at rank %d: %w", h.Host, err)
		}
		// Host down, closing, or no longer the host: park outside the lock,
		// so crisis quiesce can proceed, until the table this attempt read
		// has moved. Only a failed dial leaves nothing to wait for.
		nd.ckptMu.Unlock()
		if errors.Is(err, errDial) {
			nd.dialBackoff(&backoff)
		} else {
			nd.awaitFoldTarget(h, hm, rec)
		}
		nd.ckptMu.Lock()
	}
}

// awaitFoldTarget parks until a failed fold has somewhere new to go: the
// group's hosting entry or the host's liveness or incarnation differs from
// what the attempt read (h, hm), a crisis has closed since (rec), or the node
// failed or closed.
func (nd *Node) awaitFoldTarget(h Hosting, hm Member, rec int) {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	for nd.failedOrClosed() == nil && nd.hostings[h.Group] == h && nd.recoveries == rec {
		if cur := nd.members[h.Host]; cur.Alive != hm.Alive || cur.Incarnation != hm.Incarnation {
			return
		}
		nd.mcond.Wait()
	}
}

// callRank performs one call towards a rank that must be up, without
// conn()'s parked wait: to a crisis any failure is terminal (a double
// failure).
func (nd *Node) callRank(rank int, t byte, payload []byte) ([]byte, error) {
	nd.mmu.Lock()
	m := nd.members[rank]
	nd.mmu.Unlock()
	if !m.Alive || m.Addr == "" {
		return nil, fmt.Errorf("fabric: rank %d is down", rank)
	}
	pc, err := nd.peer(m)
	if err != nil {
		return nil, err
	}
	return pc.c.Call(t, payload)
}

// diffRanges fills nd.delta with the changed runs of the window vs the
// committed base as XOR deltas. Only chunks stamped after the committed
// generation are compared — everywhere else window == base — and winMu is
// held for those alone. The comparison stays word for word, so a chunk
// stamped by a write that changed nothing (or one word) contributes nothing
// (or one word), and a run that crosses into the next stamped chunk stays
// one run: the ranges are those of a full scan. Caller holds ckptMu.
func (nd *Node) diffRanges() {
	df := &nd.delta
	if idle(df.words, len(df.words)) {
		df.words = nil
	}
	df.runs, df.words = df.runs[:0], df.words[:0]
	scanned := 0
	nd.winMu.Lock()
	df.gen = nd.dirty.Gen()
	for off, n, ok := nd.dirty.Next(0, nd.ckptGen); ok; off, n, ok = nd.dirty.Next(off+n, nd.ckptGen) {
		scanned += n
		w, b := nd.window[off:off+n], nd.base[off:off+n]
		for i := 0; i < n; {
			if w[i] == b[i] {
				i++
				continue
			}
			j := i + 1
			for j < n && w[j] != b[j] {
				j++
			}
			if k := len(df.runs) - 1; k >= 0 && df.runs[k].off+df.runs[k].n == off+i {
				df.runs[k].n += j - i
			} else {
				df.runs = append(df.runs, deltaRun{off: off + i, n: j - i})
			}
			k := len(df.words)
			df.words = append(df.words, w[i:j]...)
			erasure.XorWords(df.words[k:], b[i:j])
			i = j
		}
	}
	nd.winMu.Unlock()
	nd.om.ckptScanned.Add(uint64(scanned))
}

// encFold encodes nd.delta as the fParityFold payload. The delta words are
// gathered from the node's buffer, not copied: the frame is written before
// commitBase can run.
func (nd *Node) encFold(g, memberIdx, p int, s snap) *wire.Vec {
	v := wire.NewVec()
	v.I(nd.rank)
	v.I(nd.inc)
	v.I(g)
	v.I(memberIdx)
	v.I(p)
	encSnap(v, s)
	v.I(len(nd.delta.runs))
	nd.delta.each(func(off int, delta []uint64) {
		v.I(off)
		v.Words(delta)
	})
	return v
}

// snapNow captures the counters the committed base of phase p stands at.
func (nd *Node) snapNow(p int) snap {
	nd.logMu.Lock()
	defer nd.logMu.Unlock()
	return snap{phase: p, ec: append([]int(nil), nd.ec...), gc: nd.gc}
}

// commitBase advances the committed base by nd.delta, which the parity host
// has acknowledged, and the committed generation to the one the diff read
// the window at — not to the tracker's current one: a peer's put that landed
// since the diff is in neither the fold nor the base, and its stamp, above
// delta.gen, keeps its chunk dirty for the next fold. Caller holds ckptMu.
func (nd *Node) commitBase(s snap) {
	nd.delta.each(func(off int, delta []uint64) {
		erasure.XorWords(nd.base[off:off+len(delta)], delta)
	})
	nd.ckptGen = nd.delta.gen
	nd.snapSelf = s
}

// foldLocal applies nd.delta to parity this node hosts itself.
func (nd *Node) foldLocal(g, memberIdx, p int, s snap) error {
	nd.parMu.Lock()
	defer nd.parMu.Unlock()
	hg := nd.hosted[g]
	if hg == nil {
		return fmt.Errorf("fabric: rank %d is not hosting group %d", nd.rank, g)
	}
	if hg.folded[memberIdx] != p {
		nd.delta.each(func(off int, delta []uint64) {
			ftrma.FoldDelta(hg.rs, hg.shards, memberIdx, off, delta)
		})
		hg.commit(memberIdx, p, s)
	}
	nd.om.foldsHosted.Inc()
	return nil
}

// commit records that member memberIdx's delta of phase p is folded in and
// the counters its base now stands at. A fold whose phase equals folded is a
// retry of one already applied: hosts acknowledge it without folding again.
func (hg *hostedGroup) commit(memberIdx, p int, s snap) {
	hg.snaps[memberIdx] = s
	hg.folded[memberIdx] = p
}
