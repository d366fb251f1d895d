package fabric

import (
	"errors"
	"fmt"
	"net"
	"slices"
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
	data     []uint64 // puts: the payload's copy in the target's stage
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
	// answered is per memberIdx the last phase whose fold this host has
	// answered: the member has committed it, and a fold of that phase is
	// only a request for the release (a rebuilt group starts at folded).
	answered []int
}

// heldFold is a received fParityFold whose answer the barrier holds: the
// request's reply handle and what answering it records (hostedGroup's
// answered).
type heldFold struct {
	reply               wire.Reply
	g, memberIdx, phase int
	// uncommitted: the member has not committed the fold, so a crisis's
	// quiesce answers it foldHeld (foldStatusLocked).
	uncommitted bool
	status      byte  // the answer, once decided
	err         error // … or errClosing
}

// pendingInstall is what a crisis arbiter holds for the replacement of a
// dead rank: the gathered logs, parked until a joiner takes them (joiner,
// the join connection; nil while parked) and kept until that joiner
// confirms. mmu guards it.
type pendingInstall struct {
	rank      int
	inc       int
	in        *install
	joiner    *connState
	confirmed bool
}

// Node is a symmetric fabric worker: it hosts its own rank's window and
// logs and the parity the seed placed at its rank, and speaks every fabric
// frame both ways. Besides rma.API for the application's work it offers the
// membership view (Self, Members, Hostings), the epoch surface (Phase,
// Sync), and the crisis counters (InCrisis, Recoveries).
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
	// write goes through touchLocked, which stamps dirty — the same tracker
	// the in-process runtime's window uses — so a checkpoint diff visits the
	// chunks written since the last committed one and nothing else. saved
	// maps each chunk written since then to its committed words in copies
	// (base.go): the committed base is the window with them laid over it.
	// spare is the buffer the next commit moves the copies it keeps into,
	// and copiesUsed the words the last commit's copies took (idle).
	winMu      sync.Mutex
	window     []uint64
	dirty      rma.DirtyTracker
	saved      []int32
	copies     []uint64
	spare      []uint64
	copiesUsed int

	// ckptMu serializes the checkpoint's diff and base commit against
	// crisis quiesce and base fetches, and is never held across a call:
	// folding marks a fold on the wire whose commit is undecided, which
	// quiesce waits out; ckptCond parks checkpoints while inCrisis. The
	// chunks stamped after ckptGen are the saved ones; delta is the diff in
	// flight, reused fold to fold.
	ckptMu   sync.Mutex
	ckptCond *sync.Cond
	inCrisis bool
	folding  bool
	ckptGen  uint64
	delta    ckptDelta
	snapSelf snap

	// logMu guards the access logs and the causal counters.
	logMu sync.Mutex
	logs  *ftrma.LogStore
	ec    []int // per-target epoch counters
	sc    int   // global put sequence
	gc    int   // global get counter
	phase int   // the phase executing next (== own watermark)
	ecAt  map[int][]int
	gcAt  map[int]int

	// pend is the open epoch per target and stage its put payloads, back
	// to back: Put copies into the stage, the batch gathers from it, and
	// ackBatch copies into the LP arena before Flush resets both for the
	// target's next epoch; stageUsed is each stage's last epoch in words
	// (idle). Workload-thread only.
	pend      [][]pendOp
	stage     [][]uint64
	stageUsed []int

	// mmu guards the membership table and crisis trackers; mcond wakes
	// watermark barriers and parked deliveries. hostings, the parity hosting
	// table, is the seed's and never changes after the join.
	mmu        sync.Mutex
	mcond      *sync.Cond
	members    []Member
	hostings   []Hosting
	strikes    map[int]*strike
	crisisBusy bool
	recoveries int
	pending    *pendingInstall
	gossipPos  int // rotating fan-out cursor, guarded by mmu
	// The parity host's half of the barrier, guarded by mmu: told is the
	// watermark up to which this node has told the other hosts its groups
	// are ready; hostCrisis is set from a crisis's quiesce to its end. held
	// lists the received folds awaiting their answer (holdFold), answering
	// is the buffer answerHeld takes the decided ones out into, and holds
	// and answers count the folds ever put on the list and taken off it.
	told           int
	hostCrisis     bool
	held           []heldFold
	answering      []heldFold
	holds, answers uint64

	// acking counts per target the deliveries between their fBatch call and
	// its ackBatch, which a log fetch for that target waits out (ackMu,
	// ackCond; ackWaiters says whether anybody does). batchCalled, when set,
	// runs inside that window (tests).
	ackMu       sync.Mutex
	ackCond     *sync.Cond
	acking      []int
	ackWaiters  int
	batchCalled func(target int)

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

var _ rma.API = (*Node)(nil)

// tun returns the node's current timing knobs.
func (nd *Node) tun() Tuning { return *nd.tuning.Load() }

// Join enters the fabric through cfg.Join and returns a ready node: the
// listener is serving, the world is applied — a replacement rank has
// rebuilt its state from the survivors, replayed its install and confirmed
// to the arbiter — and gossip is running.
func Join(cfg JoinConfig) (*Node, error) {
	nd, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	r, err := nd.joinLoop(cfg.Join)
	if err == nil {
		err = nd.applyWorld(r.w, r.in)
		if r.conn != nil {
			if err == nil {
				err = nd.confirm(r.conn)
			}
			r.hangUp()
		}
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
	nd.ackCond = sync.NewCond(&nd.ackMu)
	nd.spawn(nd.acceptLoop)
	return nd, nil
}

// joinLoop follows redirects until a world arrives. A failing address falls
// back to the original one: a survivor may redirect to a stale "lowest
// alive" rank that is in fact the corpse we are replacing, and the survivor
// itself stays reachable until its own failure detector catches up and
// redirects to the real arbiter.
func (nd *Node) joinLoop(addr string) (joinReply, error) {
	orig := addr
	deadline := time.Now().Add(60 * time.Second)
	var backoff time.Duration
	for errs := 0; ; {
		if time.Now().After(deadline) {
			return joinReply{}, fmt.Errorf("fabric: join via %s: no world within 60s", addr)
		}
		r, err := nd.joinOnce(addr, deadline)
		if err != nil {
			errs++
			if errs > 200 {
				return joinReply{}, fmt.Errorf("fabric: join via %s: %w", addr, err)
			}
			addr = orig
			nd.dialBackoff(&backoff)
			continue
		}
		if r.redirect == "" {
			return r, nil
		}
		errs, backoff, addr = 0, 0, r.redirect
	}
}

// joinReply is one decoded fJoin exchange: a redirect, or the world. A
// replacement's (in set) keeps its connection to the arbiter, conn, for the
// confirm; hangUp closes it.
type joinReply struct {
	redirect string
	w        world
	in       *install
	conn     *wire.Conn
	hangUp   func()
}

// joinOnce is one fJoin exchange. The far side answers when it has something
// to say — the arbiter holds the call until an install is parked — so the
// wait is bounded here, by what is left of joinLoop's deadline; a
// replacement's connection stays bounded by it through its confirm.
func (nd *Node) joinOnce(addr string, deadline time.Time) (r joinReply, err error) {
	nc, err := nd.dialer.Dial(addr)
	if err != nil {
		return r, err
	}
	wc := wire.New(nc, wire.Config{
		Heartbeat: nd.tun().LeaseInterval,
		BytesOut:  nd.om.wireOut, BytesIn: nd.om.wireIn,
	})
	timer := time.AfterFunc(time.Until(deadline), func() { wc.Close() })
	hangUp := func() {
		timer.Stop()
		wc.Close()
	}
	defer func() {
		if r.conn == nil {
			hangUp()
		}
	}()
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
	if r.in != nil {
		r.conn, r.hangUp = wc, hangUp
	}
	return r, nil
}

// confirm tells the arbiter, on the connection the install came by, that
// this replacement has rebuilt its state and stands at its phase: the
// arbiter publishes it and ends the crisis.
func (nd *Node) confirm(wc *wire.Conn) error {
	var e wire.Enc
	e.Str(nd.addr)
	e.I(nd.Phase())
	if _, err := wc.Call(fJoin, e.Bytes()); err != nil {
		return fmt.Errorf("fabric: install confirm: %w", err)
	}
	return nil
}

// applyWorld installs the join reply: identity, tables, and the parity
// this rank hosts — fresh for a rank of the bootstrap, rebuilt by a
// replacement (restore), which also rebuilds its window and replays its
// install.
func (nd *Node) applyWorld(w world, in *install) error {
	if w.n < 2 || w.rank < 0 || w.rank >= w.n || w.windowWords < 1 ||
		w.groups < 1 || w.groups > w.n || len(w.members) != w.n || len(w.hostings) != w.groups {
		return fmt.Errorf("fabric: malformed world (rank %d of %d, %d window words, %d groups, %d members, %d hostings)",
			w.rank, w.n, w.windowWords, w.groups, len(w.members), len(w.hostings))
	}
	for g, h := range w.hostings {
		if h.Group != g || h.Host < 0 || h.Host >= w.n {
			return fmt.Errorf("fabric: malformed world (group %d hosted as %+v)", g, h)
		}
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
	nd.dirty = rma.NewDirtyTracker(w.windowWords)
	nd.saved = make([]int32, (w.windowWords+chunkWords-1)/chunkWords)
	nd.snapSelf = snap{phase: -1, ec: make([]int, w.n)}
	nd.logs = ftrma.NewLocalLogHost(4096, 128, 0.5)
	nd.ec = make([]int, w.n)
	nd.ecAt = map[int][]int{0: make([]int, w.n)}
	nd.gcAt = map[int]int{0: 0}
	nd.pend = make([][]pendOp, w.n)
	nd.stage = make([][]uint64, w.n)
	nd.stageUsed = make([]int, w.n)
	nd.acking = make([]int, w.n)
	nd.dialMu = make([]sync.Mutex, w.n)
	nd.members = append([]Member(nil), w.members...)
	nd.hostings = append([]Hosting(nil), w.hostings...)
	if in != nil {
		if err := nd.restore(in); err != nil {
			return err
		}
	} else {
		nd.window = make([]uint64, w.windowWords)
		for _, h := range w.hostings {
			if h.Host == nd.rank {
				hg, err := newHostedGroup(len(nd.grouping.ComputeMembers(h.Group)), nd.windowWords)
				if err != nil {
					return err
				}
				nd.hosted[h.Group] = hg
			}
		}
	}
	nd.state.CompareAndSwap(stJoining, stLive)
	nd.wake() // the frames held while this node was installing
	nd.logf("fabric: rank %d inc %d joined at phase %d", nd.rank, nd.inc, nd.phase)
	return nil
}

// restore rebuilds a replacement's state from the survivors, which the
// crisis keeps quiesced until the replacement confirms, so every committed
// base agrees with its group's parity: the shard of every group this rank
// hosts — the XOR of the group members' bases — and this rank's committed
// base — the XOR of its group's parity and the other members' bases — which
// becomes the window. The install's records then replay on top
// (applyInstall).
func (nd *Node) restore(in *install) error {
	rebuild := obs.StartSpan(nd.om.crisis[obs.CrisisRebuild], nd.fr, obs.EvCrisis, int64(obs.CrisisRebuild), int64(nd.rank))
	for _, h := range nd.hostings {
		if h.Host != nd.rank {
			continue
		}
		members := nd.grouping.ComputeMembers(h.Group)
		shard, snaps, _, err := nd.fetchState(members, -1, h.Group)
		if err != nil {
			return err
		}
		rs, err := erasure.NewRS(len(members), 1)
		if err != nil {
			return err
		}
		folded := make([]int, len(members))
		for i, s := range snaps {
			folded[i] = s.phase
		}
		hg := &hostedGroup{k: len(members), rs: rs, shards: [][]uint64{shard}, snaps: snaps, folded: folded, answered: slices.Clone(folded)}
		nd.hosted[h.Group] = hg
		nd.adoptFolds(h.Group, hg)
		nd.om.parityRebuilds.Inc()
	}
	g := nd.grouping.GroupOf(nd.rank)
	members := nd.grouping.ComputeMembers(g)
	others := slices.DeleteFunc(slices.Clone(members), func(r int) bool { return r == nd.rank })
	base, _, parity, err := nd.fetchState(others, nd.hostings[g].Host, g)
	if err != nil {
		return err
	}
	idx := nd.grouping.MemberIndex(nd.rank)
	if parity.k != len(members) || idx >= parity.k {
		return fmt.Errorf("fabric: parity of group %d has %d members, expected %d", g, parity.k, len(members))
	}
	rebuild.End()
	nd.window = base // a fetched reply, which this node alone holds
	if err := nd.applyInstall(parity.snaps[idx], in); err != nil {
		return err
	}
	nd.mmu.Lock()
	nd.members[nd.rank].Watermark = nd.phase
	nd.mmu.Unlock()
	return nil
}

// applyInstall sets a replacement's counters to s, the snapshot of the
// committed base its window holds, and replays the install: the put
// redeliveries and get re-deposits with GNC ≥ the committed phase, in the
// order ftrma.ReplayOrder gives them.
func (nd *Node) applyInstall(s snap, in *install) error {
	t0 := time.Now()
	nd.snapSelf = s // the window is the base: nothing is saved or stamped
	if len(s.ec) == nd.n {
		copy(nd.ec, s.ec)
	}
	nd.gc = s.gc
	nd.phase = s.phase + 1
	nd.ecAt = map[int][]int{nd.phase: append([]int(nil), nd.ec...)}
	nd.gcAt = map[int]int{nd.phase: nd.gc}
	rl := ftrma.ReplayOrder(in.puts, in.gets, s.phase)
	if err := nd.replay(rl); err != nil {
		return err
	}
	nd.om.replayChunks.Inc()
	nd.om.replayPuts.Add(uint64(len(rl.Puts)))
	nd.om.replayGets.Add(uint64(len(rl.Gets)))
	us := time.Since(t0).Microseconds()
	if us < 1 {
		us = 1
	}
	nd.om.replayUs.Observe(uint64(us))
	nd.fr.Record(obs.EvReplayChunk, int64(len(rl.Puts)), int64(len(rl.Gets)), us)
	return nil
}

// replay lands the ordered records in the window, stamped like any other
// write: the replacement's first checkpoint folds exactly what they changed.
func (nd *Node) replay(rl *ftrma.ReplayLogs) error {
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	for _, r := range rl.Puts {
		if r.Combine || r.Op != rma.OpReplace {
			return fmt.Errorf("fabric: replay of combining put (op %v) is not supported", r.Op)
		}
		if r.Off < 0 || r.Off+len(r.Data) > nd.windowWords {
			return fmt.Errorf("fabric: replay put out of window ([%d,%d) of %d)", r.Off, r.Off+len(r.Data), nd.windowWords)
		}
		nd.writeLocked(r.Off, r.Data)
	}
	for _, r := range rl.Gets {
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
	hg.answered = slices.Clone(hg.folded)
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

// wake makes every parked wait re-test its condition, and answers the held
// folds a failed or closed node no longer holds. Broadcasting under the lock
// orders the wake after a waiter that just tested the old state.
func (nd *Node) wake() {
	nd.mmu.Lock()
	nd.mcond.Broadcast()
	nd.mmu.Unlock()
	nd.ckptMu.Lock()
	nd.ckptCond.Broadcast()
	nd.ckptMu.Unlock()
	nd.answerHeld()
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

// Close tears the node down as a fail-stop. It answers the folds it holds
// errClosing, closes the listener and every connection (the peers' death
// report), fails every parked or later call with ErrClosed, and returns once
// nothing admitted by enter is running;
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
	nd.answerHeld() // before the connections go, so the answers leave first
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

// AwaitShutdown blocks until a peer sends fShutdown or the node is
// closed.
func (nd *Node) AwaitShutdown() { <-nd.shutdown }

// Meta returns the opaque workload blob the seed distributed.
func (nd *Node) Meta() []byte { return nd.meta }

// Addr returns the address this node advertises.
func (nd *Node) Addr() string { return nd.addr }

// ---- Membership -------------------------------------------------------------

// Self returns this node's own membership entry.
func (nd *Node) Self() Member {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return nd.members[nd.rank]
}

// Members returns a snapshot of the membership table, indexed by rank.
func (nd *Node) Members() []Member {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return append([]Member(nil), nd.members...)
}

// Hostings returns a copy of the parity hosting table, the seed's.
func (nd *Node) Hostings() []Hosting {
	return append([]Hosting(nil), nd.hostings...)
}

// InCrisis reports whether a recovery is pending somewhere in the world
// (checkpoint folds are parked while it is).
func (nd *Node) InCrisis() bool {
	nd.ckptMu.Lock()
	defer nd.ckptMu.Unlock()
	return nd.inCrisis
}

// Recoveries counts the crises this node has observed complete.
func (nd *Node) Recoveries() int {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return nd.recoveries
}

// condemnLine is the progress line of a verdict: the condemning rank, the
// condemned rank, its incarnation, and the cause.
const condemnLine = "fabric: rank %d condemns rank %d (inc %d): %v"

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
	nd.logf(condemnLine, nd.rank, rank, inc, cause)
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
// are monotone. A new incarnation of a parity host is the event on which a
// host tells the hosts its groups' readiness again (announce): the
// replacement has heard none of it.
func (nd *Node) mergeMembers(ms []Member) {
	changed, renewed := false, false
	nd.mmu.Lock()
	for _, m := range ms {
		if m.Rank < 0 || m.Rank >= nd.n {
			continue
		}
		inc := nd.members[m.Rank].Incarnation
		if nd.mergeLocked(m) {
			changed = true
			renewed = renewed || nd.members[m.Rank].Incarnation != inc && nd.hosts(m.Rank)
		}
	}
	nd.mmu.Unlock()
	if changed {
		nd.mcond.Broadcast()
		nd.answerHeld()
		nd.maybeArbiter()
	}
	if renewed {
		nd.announce(true)
	}
}

// mergeWatermark merges one rank's gsync progress — the fold it sent its
// parity host — by mergeMembers' rule.
func (nd *Node) mergeWatermark(rank, inc, wm int) {
	nd.mmu.Lock()
	changed := nd.mergeLocked(Member{Rank: rank, Incarnation: inc, Alive: true, Watermark: wm})
	nd.mmu.Unlock()
	if changed {
		nd.mcond.Broadcast()
		nd.answerHeld()
		nd.maybeArbiter()
	}
}

// mergeLocked folds one remote entry into the table and reports whether it
// changed anything. Of this node's own entry it takes only a higher
// watermark of its incarnation: the host that received this node's fold
// says so before it releases it. Caller holds mmu.
func (nd *Node) mergeLocked(m Member) bool {
	if m.Rank < 0 || m.Rank >= nd.n {
		return false
	}
	cur := &nd.members[m.Rank]
	if m.Rank == nd.rank {
		if m.Incarnation != cur.Incarnation || m.Watermark <= cur.Watermark {
			return false
		}
		cur.Watermark = m.Watermark
		return true
	}
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
		VecHandler:  func(t byte, p []byte, r wire.Reply) (byte, *wire.Vec, error) { return nd.handle(st, t, p, r) },
		Inline:      nd.inline,
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

// writeLocked copies data to the window at off through touchLocked (base.go),
// which saves the committed words of the chunks it covers and stamps them,
// which is what lets a checkpoint skip every other chunk. Caller holds winMu.
func (nd *Node) writeLocked(off int, data []uint64) {
	copy(nd.touchLocked(off, len(data)), data)
}

// Put implements rma.API. The payload is copied into the target's stage
// before Put returns, so the caller may reuse data at once; the stage is
// what the epoch's batch sends and logs.
func (nd *Node) Put(target, off int, data []uint64) {
	if target == nd.rank {
		nd.WriteAt(off, data)
		return
	}
	st := nd.stage[target]
	at := len(st)
	st = append(st, data...)
	nd.stage[target] = st
	nd.logMu.Lock()
	sc := nd.sc
	nd.sc++
	nd.logMu.Unlock()
	nd.pend[target] = append(nd.pend[target], pendOp{put: true, off: off, data: st[at:len(st):len(st)], sc: sc})
}

// PutValue implements rma.API.
func (nd *Node) PutValue(target, off int, v uint64) { nd.Put(target, off, []uint64{v}) }

// Get implements rma.API.
func (nd *Node) Get(target, off, n int) []uint64 { return nd.addGet(target, off, n, -1) }

// GetCopy implements rma.API.
func (nd *Node) GetCopy(target, off, n, localOff int) []uint64 {
	return nd.addGet(target, off, n, localOff)
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
	ops, st := nd.pend[target], nd.stage[target]
	// However the delivery ends — acked, abandoned, or an out-of-window get
	// landing panicking out of ackBatch — the epoch is over: its ops and
	// staged payloads are dropped and their buffers kept for the target's
	// next epoch. A stage that one large epoch grew is let go rather than
	// carried through a run of small ones.
	defer func() {
		clear(ops)
		nd.pend[target] = ops[:0]
		if idle(st, len(st), &nd.stageUsed[target]) {
			st = nil
		}
		nd.stage[target] = st[:0]
	}()
	nd.deliver(target, ops)
}

// FlushAll implements rma.API.
func (nd *Node) FlushAll() {
	for t := 0; t < nd.n; t++ {
		nd.Flush(t)
	}
}

// deliver ships one epoch's ops to target as an fBatch and commits it once
// acked. The frame gathers the put payloads from the stage instead of
// copying them; a send consumes its Vec, so every attempt encodes afresh.
func (nd *Node) deliver(target int, ops []pendOp) {
	t0 := time.Now()
	nd.logMu.Lock()
	phase := nd.phase
	nd.logMu.Unlock()
	for {
		pc, err := nd.conn(target)
		if err != nil {
			return // failed or closed: the next Sync reports it
		}
		v := nd.encBatch(phase, ops)
		size := v.Len()
		nd.delivering(target, 1)
		reply, err := pc.c.CallVec(fBatch, v)
		if err == nil {
			nd.om.batchSent.Inc()
			nd.om.flushUs.ObserveSince(t0)
			nd.fr.Record(obs.EvFrameSend, int64(fBatch), int64(target), int64(size))
			nd.ackBatch(target, phase, ops, reply)
			wire.Recycle(reply) // the get results are copied out
			return
		}
		nd.delivering(target, -1)
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

// delivering counts a delivery to target into (+1) or out of (-1) the
// window between its fBatch call and its ackBatch: a batch the target may
// have applied and this node has not logged yet.
func (nd *Node) delivering(target, d int) {
	nd.ackMu.Lock()
	nd.acking[target] += d
	if nd.acking[target] == 0 && nd.ackWaiters > 0 {
		nd.ackCond.Broadcast()
	}
	nd.ackMu.Unlock()
}

// awaitLogged waits until no delivery to victim is between its call and its
// ackBatch, so a copy of the LP log taken next holds every batch the victim
// may have applied. The call of such a delivery ends — a dead victim's
// connection fails it — and nothing else is waited for: a delivery parked
// in conn() or failing its call is outside the window.
func (nd *Node) awaitLogged(victim int) {
	nd.ackMu.Lock()
	nd.ackWaiters++
	for nd.acking[victim] > 0 {
		nd.ackCond.Wait()
	}
	nd.ackWaiters--
	nd.ackMu.Unlock()
}

// encBatch encodes ops as the fBatch payload (docs/WIRE.md §3, 0x43): the
// puts with their words aliased, then the gets.
func (nd *Node) encBatch(phase int, ops []pendOp) *wire.Vec {
	v := wire.NewVec()
	v.I(nd.rank)
	v.I(nd.inc)
	v.I(phase)
	nputs := 0
	for _, op := range ops {
		if op.put {
			nputs++
		}
	}
	v.I(nputs)
	for _, op := range ops {
		if op.put {
			v.I(op.off)
			v.Words(op.data)
		}
	}
	v.I(len(ops) - nputs)
	for _, op := range ops {
		if !op.put {
			v.I(op.off)
			v.I(op.n)
			v.I(op.localOff + 1)
			v.I(op.gc)
		}
	}
	return v
}

// ackBatch commits a delivered epoch: source-side put logs and get
// result placement. It ends the delivery's window (delivering).
func (nd *Node) ackBatch(target, phase int, ops []pendOp, reply []byte) {
	defer nd.delivering(target, -1)
	if nd.batchCalled != nil {
		nd.batchCalled(target)
	}
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

// Gsync implements rma.API on top of Sync. It panics with Sync's error
// wrapped, so a recover can still test it with errors.Is.
func (nd *Node) Gsync() {
	if err := nd.Sync(); err != nil {
		panic(fmt.Errorf("fabric: gsync: %w", err))
	}
}

// ---- Epoch ------------------------------------------------------------------

// Phase returns the phase the node executes next (its watermark).
func (nd *Node) Phase() int {
	nd.logMu.Lock()
	defer nd.logMu.Unlock()
	return nd.phase
}

// Sync closes the current phase — rma.API's Gsync with an error return:
// flush everything, then fold the phase checkpoint to the group's parity
// host, whose answer is the barrier's release (checkpoint), then trim logs
// that checkpoints now cover. Crisis waits happen inside, and unrecoverable
// states (double failure) surface here instead of panicking.
func (nd *Node) Sync() error {
	nd.FlushAll()
	if err := nd.failedOrClosed(); err != nil {
		return err
	}
	nd.logMu.Lock()
	p := nd.phase
	nd.logMu.Unlock()
	t0 := time.Now()
	wait, err := nd.checkpoint(p)
	if err != nil {
		return err
	}
	nd.om.ckptUs.Observe(uint64(max((time.Since(t0) - wait).Microseconds(), 1)))
	us := max(wait.Microseconds(), 1)
	nd.om.gsyncUs.Observe(uint64(us))
	nd.logMu.Lock()
	nd.phase = p + 1
	nd.ecAt[p+1] = append([]int(nil), nd.ec...)
	nd.gcAt[p+1] = nd.gc
	nd.logMu.Unlock()
	nd.mergeWatermark(nd.rank, nd.inc, p+1)
	nd.fr.Record(obs.EvEpochClose, int64(p), int64(nd.n-1), 0)
	nd.fr.Record(obs.EvGsync, int64(p+1), 0, us)
	nd.fr.Record(obs.EvEpochOpen, int64(p+1), 0, 0)
	nd.trimAt(p + 1)
	return nil
}

// The fParityFold reply: its one status byte.
const (
	// foldReleased: the fold is in, and every rank of the world has folded
	// the phase — the barrier is passed.
	foldReleased = 1
	// foldHeld: the fold is in, but a crisis began before the release.
	// The member commits it and asks again; the host holds that request
	// until the release, crisis or none.
	foldHeld = 2
)

// releasedLocked is ftrma.GsyncRelease over this node's table: every rank —
// dead ranks' frozen entries included, so a victim holds the barrier until
// its replacement folds — has folded phase p. Caller holds mmu.
func (nd *Node) releasedLocked(p int) bool {
	return ftrma.GsyncRelease(nd.grouping, func(r int) int { return nd.members[r].Watermark }, p)
}

// foldStatusLocked decides the answer to a fold of phase p: foldReleased
// once the barrier releases p, errClosing once the node has failed or
// closed, and foldHeld for a fold its member has not committed (uncommitted)
// while a crisis is under way — quiesce waits for the member to settle it,
// which needs the answer. A zero status and nil error: not decided yet.
// Caller holds mmu.
func (nd *Node) foldStatusLocked(p int, uncommitted bool) (byte, error) {
	switch {
	case nd.releasedLocked(p):
		return foldReleased, nil
	case nd.failedOrClosed() != nil:
		return 0, errClosing
	case uncommitted && nd.hostCrisis:
		return foldHeld, nil
	}
	return 0, nil
}

// awaitRelease holds this node's own fold of phase p, folded into parity it
// hosts itself, until the barrier releases it. That wait is its caller's,
// in Sync; a fold received from a member waits on the held list instead.
func (nd *Node) awaitRelease(p int) (byte, error) {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	for {
		if status, err := nd.foldStatusLocked(p, false); status != 0 || err != nil {
			return status, err
		}
		nd.mcond.Wait()
	}
}

// holdFold puts a received fold (h: its reply handle and place) on the held
// list and answers what the list has decided (answerHeld) — this fold too,
// when the barrier already releases it. So no goroutine waits with a fold,
// every answer leaves by one path, and a crisis cannot end before a hold
// sees it: hostCrisis and the list share mmu.
func (nd *Node) holdFold(h heldFold) (byte, *wire.Vec, error) {
	nd.mmu.Lock()
	nd.held = append(nd.held, h)
	nd.holds++
	nd.mmu.Unlock()
	nd.answerHeld()
	return fParityFold, nil, wire.ErrLater
}

// answerHeld answers, each exactly once and outside mmu and parMu, the held
// folds whose answer is decided now. Whatever can decide one calls it once
// the change is in the table: a watermark merged (mergeWatermark,
// mergeMembers, a replacement's entry in confirmJoin), a crisis's quiesce
// beginning or ending, the node failing or closing (wake). The list and the
// buffer the answers are taken out into are reused, so a phase's answers
// allocate nothing.
func (nd *Node) answerHeld() {
	nd.mmu.Lock()
	if len(nd.held) == 0 {
		nd.mmu.Unlock()
		return
	}
	out, keep := nd.answering[:0], nd.held[:0]
	nd.answering = nil // a concurrent caller takes its own
	for _, h := range nd.held {
		if h.status, h.err = nd.foldStatusLocked(h.phase, h.uncommitted); h.status == 0 && h.err == nil {
			keep = append(keep, h)
		} else {
			out = append(out, h)
		}
	}
	clear(nd.held[len(keep):]) // the handles answered here pin no connection
	nd.held = keep
	if len(out) == 0 {
		nd.answering = out
		nd.mmu.Unlock()
		return
	}
	nd.answers += uint64(len(out))
	nd.mmu.Unlock()
	nd.parMu.Lock()
	for _, h := range out {
		// The member has its answer: a fold of that phase is from now on
		// only a request for the release. errClosing records nothing.
		if hg := nd.hosted[h.g]; h.err == nil && hg != nil && hg.folded[h.memberIdx] == h.phase {
			hg.answered[h.memberIdx] = h.phase
		}
	}
	nd.parMu.Unlock()
	for _, h := range out {
		h.reply.Send(fParityFold, foldReply(h), h.err)
	}
	clear(out)
	nd.mmu.Lock()
	nd.answering = out[:0]
	nd.mmu.Unlock()
}

// foldReply encodes h's answer as the fParityFold reply: its status byte, or
// nothing beside an error.
func foldReply(h heldFold) *wire.Vec {
	if h.err != nil {
		return nil
	}
	v := wire.NewVec()
	v.B(h.status)
	return v
}

// announce tells the other parity hosts how far the groups this node hosts
// are ready — ftrma.GsyncReady: every member's fold received — by one
// targeted fGossip each, carrying the members' entries. It sends when the
// readiness has moved past what it last told, or, with again, whatever it
// is, to every host: a host has been replaced, and the replacement has heard
// nothing yet.
func (nd *Node) announce(again bool) {
	nd.mmu.Lock()
	mine := func(g int) bool { return nd.hostings[g].Host == nd.rank }
	wm := func(r int) int { return nd.members[r].Watermark }
	if !nd.hosts(nd.rank) || !again && !ftrma.GsyncReady(nd.grouping, mine, wm, nd.told) {
		nd.mmu.Unlock()
		return
	}
	var entries []Member
	ready := -1
	for r := range nd.members {
		if mine(nd.grouping.GroupOf(r)) {
			entries = append(entries, nd.members[r])
			if m := nd.members[r].Watermark; ready < 0 || m < ready {
				ready = m
			}
		}
	}
	nd.told = ready
	var peers []Member
	for _, h := range nd.hostings {
		if m := nd.members[h.Host]; h.Host != nd.rank && m.Alive && m.Addr != "" &&
			!slices.ContainsFunc(peers, func(p Member) bool { return p.Rank == h.Host }) {
			peers = append(peers, m)
		}
	}
	var e wire.Enc
	encMembers(&e, entries)
	nd.mmu.Unlock()
	nd.notify(peers, fGossip, e.Bytes())
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
// its buffers; it is valid from diffRanges to the next diffRanges, which ckptMu
// serialises.
type ckptDelta struct {
	runs    []deltaRun
	words   []uint64
	gen     uint64
	scanned int // the last diff's stamped words (idle)
}

// deltaRun is the changed word range [off, off+n) of a ckptDelta.
type deltaRun struct{ off, n int }

// idle reports whether a reused buffer is mostly dead weight: neither this
// use, which needs `used` words, nor the one before it (*last, which idle
// then moves to used) needed more than a quarter of it, and more than 64 KiB
// of it went untouched both times. Such a buffer is dropped, not carried
// along — the set-up fill of a window folds the whole of it once, and that
// fold's buffers would otherwise stay resident for a run of 528-word folds —
// but a small use between two large ones keeps it: bulk-shm's diffs
// alternate 4096 and 28672 stamped words whenever a fold lags a put.
func idle(buf []uint64, used int, last *int) bool {
	peak := max(used, *last)
	*last = used
	return cap(buf) > 4*peak+(8<<10)
}

// each calls f with every run's offset and delta words, in window order.
func (df *ckptDelta) each(f func(off int, delta []uint64)) {
	words := df.words
	for _, r := range df.runs {
		f(r.off, words[:r.n])
		words = words[r.n:]
	}
}

// checkpoint commits phase p and passes the barrier: diff the chunks
// written since the last commit against the committed base, ship the (off,
// delta) ranges plus the counter snapshot to the group's parity host in one
// fParityFold, commit the local base once the host has it (commitBase: the
// saved copies of the chunks the diff read are dropped or advanced), and
// return when the host answers that every rank has folded p — the fold's
// ack is the barrier's release; wait is how long that call (or, for a group
// this node hosts, the local hold) took.
//
// ckptMu covers the diff and the base commit, never the call: quiesce waits
// for a fold on the wire to be answered (folding), and a fold held for the
// release is answered with foldHeld when a crisis begins. Parity is updated
// before the base commit, so once quiesce has its answers parity =
// encode(committed bases) holds until the crisis ends. A fold that fails
// has committed nothing and leaves the base as it was. A committed fold asks
// again for its release, a request that cannot change parity.
//
// The window is diffed once per phase. A fold that fails is retried with the
// same nd.delta and snapshot: the host may have applied it and lost the ack,
// and it dedupes by phase, so a fresh diff — the window may have moved since
// — would commit words to the base that parity never saw. What landed after
// the diff is stamped above delta.gen and goes with the next phase's fold.
func (nd *Node) checkpoint(p int) (wait time.Duration, err error) {
	t0 := time.Now()
	g := nd.grouping.GroupOf(nd.rank)
	memberIdx := nd.grouping.MemberIndex(nd.rank)
	var s snap
	var backoff time.Duration
	for diffed, committed := false, false; ; {
		nd.ckptMu.Lock()
		for !committed && nd.inCrisis && nd.failedOrClosed() == nil {
			nd.ckptCond.Wait()
		}
		if err := nd.failedOrClosed(); err != nil {
			nd.ckptMu.Unlock()
			return 0, err
		}
		host := nd.hostings[g].Host
		nd.mmu.Lock()
		hm, rec := nd.members[host], nd.recoveries
		nd.mmu.Unlock()
		if !diffed {
			nd.diffRanges()
			s = nd.snapNow(p)
			diffed = true
		}
		nd.folding = !committed
		nd.ckptMu.Unlock()

		var status byte
		call := time.Now()
		switch {
		case host == nd.rank:
			err = nd.foldLocal(g, memberIdx, p, s)
		case !hm.Alive:
			err = fmt.Errorf("fabric: rank %d is down", host)
		default:
			var pc *peerConn
			if pc, err = nd.peer(hm); err == nil {
				var reply []byte
				if reply, err = pc.c.CallVec(fParityFold, nd.encFold(g, memberIdx, p, s)); err == nil {
					if status = decFoldStatus(reply); status == 0 {
						err = fmt.Errorf("fabric: undecodable fold reply from rank %d", host)
					}
					wire.Recycle(reply)
				}
			}
		}
		nd.ckptMu.Lock()
		switch {
		case committed, err != nil: // a failed fold committed nothing
		default:
			nd.commitBase(s)
			committed = true
			nd.om.foldsSent.Inc()
			nd.om.ckptFolded.Add(uint64(len(nd.delta.words)))
			nd.om.foldUs.ObserveSince(t0)
			nd.fr.Record(obs.EvParityFold, int64(g), int64(p), int64(len(nd.delta.runs)))
		}
		nd.folding = false
		nd.ckptCond.Broadcast()
		nd.ckptMu.Unlock()
		if err == nil && host == nd.rank {
			if status, err = nd.awaitRelease(p); err != nil {
				return 0, nd.failedOrClosed()
			}
		}
		wait += time.Since(call)
		if err == nil {
			if status == foldReleased {
				return wait, nil
			}
			continue // held through a crisis: committed, ask again
		}
		var rf wire.RemoteFail
		if errors.As(err, &rf) && rf.Code != wire.CodeCrisis || errors.Is(err, wire.ErrFrameTooLarge) {
			return 0, fmt.Errorf("fabric: parity fold at rank %d: %w", host, err)
		}
		// Host down or closing: park until the table this attempt read has
		// moved. Only a failed dial leaves nothing to wait for.
		if errors.Is(err, errDial) {
			nd.dialBackoff(&backoff)
		} else {
			nd.awaitFoldTarget(hm, rec)
		}
	}
}

// decFoldStatus reads an fParityFold reply's status; 0 if there is none.
func decFoldStatus(reply []byte) byte {
	d := wire.NewDec(reply)
	if st := d.B(); !d.Failed() && (st == foldReleased || st == foldHeld) {
		return st
	}
	return 0
}

// awaitFoldTarget parks until a failed fold has somewhere new to go: the
// host's liveness or incarnation differs from what the attempt read (hm), a
// crisis has closed since (rec), or the node failed or closed.
func (nd *Node) awaitFoldTarget(hm Member, rec int) {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	for nd.failedOrClosed() == nil && nd.recoveries == rec {
		if cur := nd.members[hm.Rank]; cur.Alive != hm.Alive || cur.Incarnation != hm.Incarnation {
			return
		}
		nd.mcond.Wait()
	}
}

// callRank performs one call towards a rank that must be up, without
// conn()'s parked wait: to a crisis any failure is terminal (a double
// failure). The request is v (nil: an empty payload), consumed whatever the
// outcome; the reply is the caller's to keep.
func (nd *Node) callRank(rank int, t byte, v *wire.Vec) ([]byte, error) {
	nd.mmu.Lock()
	m := nd.members[rank]
	nd.mmu.Unlock()
	var pc *peerConn
	var err error
	if !m.Alive || m.Addr == "" {
		err = fmt.Errorf("fabric: rank %d is down", rank)
	} else if pc, err = nd.peer(m); err == nil {
		return pc.c.CallVec(t, v)
	}
	if v != nil {
		v.Release()
	}
	return nil, err
}

// diffRanges fills nd.delta with the changed runs of the window vs the
// committed base as XOR deltas. Only chunks stamped after the committed
// generation are compared, each with its saved copy — everywhere else the
// window is the base — and winMu is held for those alone. The comparison
// stays word for word, so a chunk stamped by a write that changed nothing
// (or one word) contributes nothing (or one word), and a run that crosses
// into the next stamped chunk stays one run: the ranges are those of a full
// scan. The delta is at most the stamped words, so its buffer is sized for
// them before the walk — and let go when mostly idle at that size — and a
// window-wide diff allocates it once instead of growing it chunk by chunk.
// Caller holds ckptMu.
func (nd *Node) diffRanges() {
	df := &nd.delta
	df.runs = df.runs[:0]
	scanned := 0
	nd.winMu.Lock()
	df.gen = nd.dirty.Gen()
	for off, n, ok := nd.dirty.Next(0, nd.ckptGen); ok; off, n, ok = nd.dirty.Next(off+n, nd.ckptGen) {
		scanned += n
	}
	if idle(df.words, scanned, &df.scanned) || cap(df.words) < scanned {
		df.words = make([]uint64, 0, scanned)
	}
	df.words = df.words[:0]
	for off, n, ok := nd.dirty.Next(0, nd.ckptGen); ok; off, n, ok = nd.dirty.Next(off+n, nd.ckptGen) {
		w := nd.window[off : off+n]
		b := nd.baseOf(off/chunkWords, w)[:n] // both n long: no bounds checks below
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
// the next diff can run.
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

// foldLocal applies nd.delta to parity this node hosts itself: the fold is
// in, so the node's own watermark moves and the readiness may go out. The
// release is awaited after the base commit (checkpoint).
func (nd *Node) foldLocal(g, memberIdx, p int, s snap) error {
	nd.parMu.Lock()
	hg := nd.hosted[g]
	if hg == nil {
		nd.parMu.Unlock()
		return fmt.Errorf("fabric: rank %d is not hosting group %d", nd.rank, g)
	}
	if hg.folded[memberIdx] != p {
		nd.delta.each(func(off int, delta []uint64) {
			ftrma.FoldDelta(hg.rs, hg.shards, memberIdx, off, delta)
		})
		hg.commit(memberIdx, p, s)
	}
	hg.answered[memberIdx] = p
	nd.parMu.Unlock()
	nd.om.foldsHosted.Inc()
	nd.mergeWatermark(nd.rank, nd.inc, p+1)
	nd.announce(false)
	return nil
}

// commit records that member memberIdx's delta of phase p is folded in and
// the counters its base now stands at. A fold whose phase equals folded is a
// retry of one already applied: hosts acknowledge it without folding again.
func (hg *hostedGroup) commit(memberIdx, p int, s snap) {
	hg.snaps[memberIdx] = s
	hg.folded[memberIdx] = p
}
