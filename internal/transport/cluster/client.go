package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/rma"
	"repro/internal/transport/wire"
)

// Cluster frame types (distinct from the tcp peer protocol's). Every
// frame flows worker -> coordinator: the coordinator holds the windows and
// all of the ftRMA recovery state, so it never calls a worker. See
// docs/WIRE.md for the normative layouts.
const (
	cJoin   byte = 0x20
	cBatch  byte = 0x21
	cAtomic byte = 0x22
	cSync   byte = 0x23
	cLock   byte = 0x24
	cLocal  byte = 0x25
	cAwait  byte = 0x26
	cFinish byte = 0x27
	cReplay byte = 0x28 // causal replacement catch-up: replay one phase / done
)

// cReplay modes.
const (
	replayPhase byte = 0 // apply one phase's causally ordered records
	replayDone  byte = 1 // catch-up complete: adopt phase, re-checkpoint all ranks
)

// cBatch close modes.
const (
	closeNone   byte = 0
	closeFlush  byte = 1
	closeUnlock byte = 2
)

// cAtomic kinds.
const (
	atomCAS byte = iota
	atomFAO
	atomGetAcc
)

// cSync kinds.
const (
	syncFlushAll byte = iota
	syncGsync
	syncBarrier
)

// cLocal kinds.
const (
	localReadAt byte = iota
	localWriteAt
	localCompute
	localAdvance
	localNow
	localUCCkpt
)

// RolledBack is the panic value a cluster client raises when the
// coordinator reports that a failure rolled the computation back to the
// last coordinated checkpoint. The worker's phase loop recovers it and
// resumes from Resume.
type RolledBack struct{ Resume int }

func (r RolledBack) Error() string {
	return fmt.Sprintf("cluster: rolled back, resume at phase %d", r.Resume)
}

// bufOp is one client-buffered non-blocking access of an open epoch.
type bufOp struct {
	kind     byte // 0 put, 1 acc, 2 get
	red      uint8
	off      int
	data     []uint64
	n        int
	localOff int
	seq      uint64
	dest     []uint64
}

// Client drives one rank of a Cluster from a worker process. It
// implements rma.API over the coordinator connection: puts, gets, and
// accumulates are buffered locally per target and travel as one batch
// frame when the epoch towards that target closes — exactly the runtime's
// own epoch semantics, paid as one round trip per close — while blocking
// atomics, synchronization, and local window accesses are single
// request/response frames.
//
// A Client is owned by one goroutine (the rank's application), like a
// rma.Proc.
type Client struct {
	conn  *wire.Conn
	rank  int
	n     int
	words int
	wl    Workload
	start int

	// replayTo, when > 0 (with replay set), marks this worker as a causal
	// replacement: before running phases normally it must catch up from
	// start to replayTo, driving a replay frame per phase between
	// re-executions.
	replay   bool
	replayTo int

	pend    map[int][]bufOp
	dests   map[uint64][]uint64
	nextSeq uint64
	gen     uint64 // rollback generation last synchronized with
}

var _ rma.API = (*Client)(nil)

// DialConfig tunes a worker's connection.
type DialConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// DialTimeout bounds connection establishment. Default 10s.
	DialTimeout time.Duration
	// HeartbeatInterval is the liveness beacon period towards the
	// coordinator (and the patience granted to it). Default 100ms.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many silent intervals declare the coordinator
	// gone. Default 50 (collective waits legitimately take a while; the
	// coordinator heartbeats too, so real deaths are still caught fast).
	HeartbeatMiss int
}

func (c DialConfig) withDefaults() DialConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatMiss == 0 {
		c.HeartbeatMiss = 50
	}
	return c
}

// Validate rejects nonsensical dial configurations.
func (c DialConfig) Validate() error {
	if _, _, err := net.SplitHostPort(c.Addr); err != nil {
		return fmt.Errorf("cluster: coordinator address %q: %v", c.Addr, err)
	}
	if c.DialTimeout < 0 {
		return fmt.Errorf("cluster: negative dial timeout %v", c.DialTimeout)
	}
	if c.HeartbeatInterval < 0 {
		return fmt.Errorf("cluster: negative heartbeat interval %v", c.HeartbeatInterval)
	}
	if c.HeartbeatMiss < 0 {
		return fmt.Errorf("cluster: negative heartbeat miss count %d", c.HeartbeatMiss)
	}
	return nil
}

// Dial connects to a coordinator and joins the cluster: the membership
// handshake assigns this worker the lowest free rank id (a replacement
// inherits the failed rank) and returns the workload and resume phase.
func Dial(cfg DialConfig) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", cfg.Addr, err)
	}
	// A worker only drives its rank: it serves no requests, so the
	// connection has no handler.
	conn := wire.New(nc, wire.Config{
		Heartbeat:   cfg.HeartbeatInterval,
		ReadTimeout: time.Duration(cfg.HeartbeatMiss) * cfg.HeartbeatInterval,
	})
	reply, err := conn.Call(cJoin, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: join: %w", err)
	}
	d := wire.NewDec(reply)
	c := &Client{
		conn:  conn,
		rank:  d.I(),
		n:     d.I(),
		words: d.I(),
		start: d.I(),
		gen:   d.U(),
		wl: Workload{
			Ranks:           d.I(),
			Phases:          d.I(),
			InsertsPerPhase: d.I(),
			TableSlots:      d.I(),
			PhaseDelay:      time.Duration(d.U()),
		},
		pend:  make(map[int][]bufOp),
		dests: make(map[uint64][]uint64),
	}
	c.wl.Mode = WorkloadMode(d.B())
	c.replay = d.B() != 0
	c.replayTo = d.I()
	if d.Failed() {
		conn.Close()
		return nil, errors.New("cluster: malformed join reply")
	}
	return c, nil
}

// Workload returns the coordinator-assigned workload.
func (c *Client) Workload() Workload { return c.wl }

// WindowWords returns the hosted window's size in words.
func (c *Client) WindowWords() int { return c.words }

// StartPhase returns the phase to resume from (0 for a fresh cluster, the
// restored phase for a replacement joining after a recovery).
func (c *Client) StartPhase() int { return c.start }

// Close tears the connection down.
func (c *Client) Close() { c.conn.Close() }

// reset drops all buffered epoch state (after a rollback: the aborted
// epoch's accesses were rolled back host-side too).
func (c *Client) reset() {
	c.pend = make(map[int][]bufOp)
	c.dests = make(map[uint64][]uint64)
}

// enc starts an op payload, stamped with the rollback generation the
// coordinator checks on every frame.
func (c *Client) enc() *wire.Enc {
	var e wire.Enc
	e.U(c.gen)
	return &e
}

// call performs one request, translating a coordinator-reported crisis
// into the rollback protocol: park on Await until the recovery completes,
// then unwind the worker's phase with RolledBack.
func (c *Client) call(t byte, payload []byte) []byte {
	reply, err := c.conn.Call(t, payload)
	if err == nil {
		return reply
	}
	var rf wire.RemoteFail
	if errors.As(err, &rf) && rf.Code == wire.CodeCrisis {
		c.awaitRecovery()
	}
	panic(fmt.Errorf("cluster: rank %d: %w", c.rank, err))
}

// awaitRecovery parks until the coordinator finishes the pending recovery
// and unwinds with the restored phase.
func (c *Client) awaitRecovery() {
	reply, err := c.conn.Call(cAwait, nil)
	if err != nil {
		panic(fmt.Errorf("cluster: rank %d: await recovery: %w", c.rank, err))
	}
	d := wire.NewDec(reply)
	resume := d.I()
	gen := d.U()
	if d.Failed() {
		panic(errors.New("cluster: malformed await reply"))
	}
	c.gen = gen
	c.reset()
	panic(RolledBack{Resume: resume})
}

// ---- rma.API ---------------------------------------------------------------

func (c *Client) Rank() int { return c.rank }
func (c *Client) N() int    { return c.n }

// Local is unavailable across processes: there is no window memory to
// alias in a worker. Use ReadAt/WriteAt.
func (c *Client) Local() []uint64 {
	panic("cluster: Local() is unavailable in a worker process; use ReadAt/WriteAt")
}

func (c *Client) ReadAt(off, n int) []uint64 {
	e := c.enc()
	e.B(localReadAt)
	e.I(off)
	e.I(n)
	reply := c.call(cLocal, e.Bytes())
	out := make([]uint64, n)
	if !wire.NewDec(reply).WordsInto(out) {
		panic(errors.New("cluster: malformed readat reply"))
	}
	return out
}

// ReadInto is ReadAt into a caller-provided buffer (the apps' hot loops
// discover it by interface assertion).
func (c *Client) ReadInto(off int, dst []uint64) {
	e := c.enc()
	e.B(localReadAt)
	e.I(off)
	e.I(len(dst))
	if !wire.NewDec(c.call(cLocal, e.Bytes())).WordsInto(dst) {
		panic(errors.New("cluster: malformed readat reply"))
	}
}

func (c *Client) WriteAt(off int, data []uint64) {
	e := c.enc()
	e.B(localWriteAt)
	e.I(off)
	e.Words(data)
	c.call(cLocal, e.Bytes())
}

func (c *Client) Put(target, off int, data []uint64) {
	buf := append([]uint64(nil), data...)
	c.pend[target] = append(c.pend[target], bufOp{kind: 0, off: off, data: buf})
}

func (c *Client) PutValue(target, off int, v uint64) { c.Put(target, off, []uint64{v}) }

func (c *Client) Accumulate(target, off int, data []uint64, op rma.ReduceOp) {
	buf := append([]uint64(nil), data...)
	c.pend[target] = append(c.pend[target], bufOp{kind: 1, red: uint8(op), off: off, data: buf})
}

func (c *Client) get(target, off, n, localOff int) []uint64 {
	c.nextSeq++
	dest := make([]uint64, n)
	c.pend[target] = append(c.pend[target], bufOp{kind: 2, off: off, n: n, localOff: localOff, seq: c.nextSeq, dest: dest})
	c.dests[c.nextSeq] = dest
	return dest
}

func (c *Client) Get(target, off, n int) []uint64 { return c.get(target, off, n, -1) }

// GetInto lands the data in the local (coordinator-hosted) window exactly
// like GetCopy; a cross-process client cannot hand out a window alias, so
// both names map to the non-aliasing variant.
func (c *Client) GetInto(target, off, n, localOff int) []uint64 {
	return c.get(target, off, n, localOff)
}

func (c *Client) GetCopy(target, off, n, localOff int) []uint64 {
	return c.get(target, off, n, localOff)
}

func (c *Client) GetBlocking(target, off, n int) []uint64 {
	dest := c.get(target, off, n, -1)
	c.Flush(target)
	return dest
}

// sendBatch ships target's buffered epoch as one frame; close selects the
// epoch-closing action executed host-side after the ops are issued.
func (c *Client) sendBatch(target int, close byte, str int) {
	ops := c.pend[target]
	if len(ops) == 0 && close == closeNone {
		return
	}
	delete(c.pend, target)
	e := c.enc()
	e.I(target)
	e.B(close)
	e.I(str)
	e.I(len(ops))
	for i := range ops {
		op := &ops[i]
		e.B(op.kind)
		switch op.kind {
		case 2:
			e.I(op.off)
			e.I(op.n)
			e.I(op.localOff + 1)
			e.U(op.seq)
		default:
			e.B(op.red)
			e.I(op.off)
			e.Words(op.data)
		}
	}
	reply := c.call(cBatch, e.Bytes())
	if close != closeNone {
		// Only an epoch-closing batch defines gets; a plain ship-ahead
		// batch has an empty reply.
		c.fillGets(reply)
	}
}

// fillGets decodes (seq, words) pairs of an epoch-closing reply into the
// destinations handed out at issue time.
func (c *Client) fillGets(reply []byte) {
	d := wire.NewDec(reply)
	count := d.I()
	for i := 0; i < count; i++ {
		seq := d.U()
		dest := c.dests[seq]
		if dest == nil || !d.WordsInto(dest) {
			panic(errors.New("cluster: malformed get fill"))
		}
		delete(c.dests, seq)
	}
	if d.Failed() {
		panic(errors.New("cluster: malformed epoch-close reply"))
	}
}

func (c *Client) Flush(target int) { c.sendBatch(target, closeFlush, 0) }

func (c *Client) FlushAll() {
	for target := range c.pend {
		c.sendBatch(target, closeNone, 0)
	}
	e := c.enc()
	e.B(syncFlushAll)
	c.fillGets(c.call(cSync, e.Bytes()))
}

func (c *Client) Gsync() {
	for target := range c.pend {
		c.sendBatch(target, closeNone, 0)
	}
	e := c.enc()
	e.B(syncGsync)
	c.fillGets(c.call(cSync, e.Bytes()))
}

func (c *Client) Barrier() {
	e := c.enc()
	e.B(syncBarrier)
	c.call(cSync, e.Bytes())
}

func (c *Client) atomic(kind byte, target, off int, payload func(*wire.Enc)) []byte {
	e := c.enc()
	e.B(kind)
	e.I(target)
	e.I(off)
	payload(e)
	return c.call(cAtomic, e.Bytes())
}

func (c *Client) CompareAndSwap(target, off int, old, new uint64) uint64 {
	reply := c.atomic(atomCAS, target, off, func(e *wire.Enc) {
		e.W64(old)
		e.W64(new)
	})
	return wire.NewDec(reply).W64()
}

func (c *Client) FetchAndOp(target, off int, operand uint64, op rma.ReduceOp) uint64 {
	reply := c.atomic(atomFAO, target, off, func(e *wire.Enc) {
		e.W64(operand)
		e.B(uint8(op))
	})
	return wire.NewDec(reply).W64()
}

func (c *Client) GetAccumulate(target, off int, data []uint64, op rma.ReduceOp) []uint64 {
	reply := c.atomic(atomGetAcc, target, off, func(e *wire.Enc) {
		e.B(uint8(op))
		e.Words(data)
	})
	prev := make([]uint64, len(data))
	if !wire.NewDec(reply).WordsInto(prev) {
		panic(errors.New("cluster: malformed get-accumulate reply"))
	}
	return prev
}

func (c *Client) Lock(target, str int) {
	e := c.enc()
	e.B(0)
	e.I(target)
	e.I(str)
	c.call(cLock, e.Bytes())
}

func (c *Client) Unlock(target, str int) {
	// An unlock closes the epoch towards target: ship the buffered batch
	// with the unlock as its closing action — still one frame.
	c.sendBatch(target, closeUnlock, str)
}

func (c *Client) Compute(flops float64) {
	e := c.enc()
	e.B(localCompute)
	e.F(flops)
	c.call(cLocal, e.Bytes())
}

// AdvanceTime charges think time to the rank's virtual clock (kvstore's
// think model discovers it via interface assertion).
func (c *Client) AdvanceTime(dt float64) {
	e := c.enc()
	e.B(localAdvance)
	e.F(dt)
	c.call(cLocal, e.Bytes())
}

func (c *Client) Now() float64 {
	e := c.enc()
	e.B(localNow)
	return wire.NewDec(c.call(cLocal, e.Bytes())).F()
}

// UCCheckpoint asks the host to take an uncoordinated checkpoint of this
// rank now (the stencil/fft Checkpointer contract).
func (c *Client) UCCheckpoint() {
	e := c.enc()
	e.B(localUCCkpt)
	c.call(cLocal, e.Bytes())
}

// Finish reports this rank's completion and blocks until every rank has
// finished (or a rollback demands more phases, surfacing as RolledBack).
func (c *Client) Finish() {
	_, err := c.conn.Call(cFinish, c.enc().Bytes())
	if err == nil {
		return
	}
	var rf wire.RemoteFail
	if errors.As(err, &rf) && rf.Code == wire.CodeCrisis {
		c.awaitRecovery()
	}
	if errors.Is(err, wire.ErrDown) {
		// The coordinator tears connections down right after the run
		// completes; the finish rendezvous had already admitted us, so a
		// dead connection here is the normal end of life. (A coordinator
		// crash also lands here — its own exit status is authoritative.)
		return
	}
	panic(fmt.Errorf("cluster: rank %d: finish: %w", c.rank, err))
}

// RunWorker drives one rank end to end: join, execute phases (resuming
// across rollbacks), finish. It is the whole main loop of a rankd worker.
// A causal replacement first catches up to the survivors' phase:
// Algorithm 2 over the wire — per missed phase a replay frame has the
// coordinator apply that phase's causally ordered records (the replay
// half), then the worker re-executes its deterministic phase work (the
// recomputation half), closing with the done frame that re-checkpoints
// the cluster and lifts the crisis.
func RunWorker(cfg DialConfig) error {
	c, err := Dial(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	wl := c.Workload()
	sched := wl.Schedule()
	phase := c.StartPhase()
	if c.replay {
		next, err := runReplay(c, wl, sched)
		if err != nil {
			return err
		}
		phase = next
	}
	for phase < wl.Phases+1 {
		next, err := runStep(c, wl, sched, phase)
		if err != nil {
			return err
		}
		phase = next
	}
	return nil
}

// runReplay performs a replacement's whole catch-up and returns the phase
// to continue from. A rollback mid-catch-up (another failure forced the
// coordinated path after all) surfaces as RolledBack and simply moves the
// resume point.
func runReplay(c *Client, wl Workload, sched [][][]uint64) (next int, err error) {
	defer func() {
		if e := recover(); e != nil {
			if rb, ok := e.(RolledBack); ok {
				next = rb.Resume
				return
			}
			if pe, ok := e.(error); ok {
				err = pe
				return
			}
			panic(e)
		}
	}()
	for phase := c.start; phase < c.replayTo; phase++ {
		e := c.enc()
		e.B(replayPhase)
		e.I(phase)
		c.call(cReplay, e.Bytes())
		if err := wl.RunPhase(c, sched, c.rank, phase); err != nil {
			return 0, err
		}
		// No gsync: the survivors already completed these phases'
		// collectives; re-entering them would wait forever. FlushAll
		// closes the re-executed epochs without a rendezvous.
		c.FlushAll()
	}
	e := c.enc()
	e.B(replayDone)
	c.call(cReplay, e.Bytes())
	return c.replayTo, nil
}

// runStep executes one phase (or, past the last phase, the finish
// rendezvous), converting a RolledBack unwind into the phase to resume.
func runStep(c *Client, wl Workload, sched [][][]uint64, phase int) (next int, err error) {
	defer func() {
		if e := recover(); e != nil {
			if rb, ok := e.(RolledBack); ok {
				next = rb.Resume
				return
			}
			if pe, ok := e.(error); ok {
				err = pe
				return
			}
			panic(e)
		}
	}()
	if phase >= wl.Phases {
		c.Finish()
		return wl.Phases + 1, nil
	}
	if err := wl.RunPhase(c, sched, c.rank, phase); err != nil {
		return 0, err
	}
	c.Gsync()
	return phase + 1, nil
}
