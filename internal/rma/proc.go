package rma

import (
	"repro/internal/sim"
	"repro/internal/transport"
)

// pendingOp is a buffered non-blocking access: issued now, applied (puts)
// or satisfied (gets) when the epoch towards its target closes.
type pendingOp struct {
	isPut      bool
	off        int
	data       []uint64 // put/accumulate payload (copied into the per-target arena at issue time)
	dest       []uint64 // get destination, filled at epoch close
	localOff   int      // window destination for GetCopy; -1 for plain Get
	op         ReduceOp
	completeAt float64 // virtual completion time on the wire
}

// TraceAction is the event delivered to a Tracer; package trace turns these
// into the formal model's action tuples.
type TraceAction struct {
	Kind    string // put, get, accumulate, cas, fao, lock, unlock, flush, gsync, barrier
	Src     int
	Trg     int // -1 for collectives
	Str     int
	Words   int
	Combine bool
	Epoch   int // E(src->trg) when the action was issued
}

// Tracer observes every runtime action.
type Tracer interface {
	OnAction(TraceAction)
}

// Proc is one rank's runtime handle. It implements API. A Proc is owned by
// the goroutine running that rank; only the window it exposes is touched by
// other ranks.
type Proc struct {
	world   *World
	rank    int
	clock   *sim.Clock
	epoch   []int
	pending [][]pendingOp
	putbuf  [][]uint64     // per-target arenas for buffered put payloads
	batch   []transport.Op // scratch for epoch-close flush batches
}

var _ FullAPI = (*Proc)(nil)

func newProc(w *World, rank int) *Proc {
	return &Proc{
		world:   w,
		rank:    rank,
		clock:   sim.NewClock(),
		epoch:   make([]int, w.cfg.N),
		pending: make([][]pendingOp, w.cfg.N),
		putbuf:  make([][]uint64, w.cfg.N),
	}
}

// checkAlive unwinds the goroutine if this rank has been killed.
func (p *Proc) checkAlive() {
	if p.world.failed[p.rank].Load() {
		panic(killed{p.rank})
	}
}

// checkTarget panics with TargetFailedError when addressing a dead rank.
func (p *Proc) checkTarget(q int) {
	if q < 0 || q >= p.world.cfg.N {
		panic(TargetFailedError{q})
	}
	if p.world.failed[q].Load() {
		panic(TargetFailedError{q})
	}
}

// Rank returns this rank's id.
func (p *Proc) Rank() int { return p.rank }

// N returns the world size.
func (p *Proc) N() int { return p.world.cfg.N }

// Now returns this rank's virtual time.
func (p *Proc) Now() float64 { return p.clock.Now() }

// Epoch returns E(p->q), the current epoch number towards rank q.
func (p *Proc) Epoch(q int) int { return p.epoch[q] }

// Compute charges flops of local work to the virtual clock.
func (p *Proc) Compute(flops float64) {
	p.checkAlive()
	p.clock.Advance(p.world.params.CompTime(flops))
}

// AdvanceTime charges dt seconds of non-compute local activity (used by the
// FT layers for memory copies and by applications for think time).
func (p *Proc) AdvanceTime(dt float64) {
	p.checkAlive()
	p.clock.Advance(dt)
}

// AdvanceTo moves the virtual clock forward to t (no-op if already past);
// used by the FT layers when waiting on shared resources.
func (p *Proc) AdvanceTo(t float64) {
	p.checkAlive()
	p.clock.AdvanceTo(t)
}

// WindowWords returns the size of this rank's window in words.
func (p *Proc) WindowWords() int {
	return len(p.world.windows[p.rank].words)
}

// LocalReadDirty copies into dst (a full window-sized buffer) the words of
// the local window modified since the generation cursor `since`, holding
// the window lock against concurrent remote applies. It returns the merged
// dirty word ranges and the cursor to pass to the next call. The first
// call (since == 0) reports every chunk written since the window was
// created.
func (p *Proc) LocalReadDirty(dst []uint64, since uint64) ([]DirtyRange, uint64) {
	p.checkAlive()
	return p.world.windows[p.rank].readDirtyInto(dst, since)
}

// ReadAt copies n words starting at off from the local window, holding
// the window lock against concurrent remote applies.
func (p *Proc) ReadAt(off, n int) []uint64 {
	dst := make([]uint64, n)
	p.ReadInto(off, dst)
	return dst
}

// ReadInto is ReadAt into a caller-provided buffer: the same read with no
// allocation, for hot loops that re-read the window every
// phase (the stencil and FFT kernels discover it by interface assertion).
func (p *Proc) ReadInto(off int, dst []uint64) {
	p.checkAlive()
	p.world.windows[p.rank].readInto(off, dst)
}

// WriteAt stores data at off in the local window under the window lock,
// stamped by the runtime's dirty tracking.
func (p *Proc) WriteAt(off int, data []uint64) {
	p.checkAlive()
	p.world.windows[p.rank].applyPut(off, data)
}

// Put issues a non-blocking put of data into target's window at off.
func (p *Proc) Put(target, off int, data []uint64) {
	p.putInternal(target, off, data, OpReplace, "put")
}

// PutValue issues a single-word Put.
func (p *Proc) PutValue(target, off int, v uint64) {
	p.Put(target, off, []uint64{v})
}

// Accumulate issues a non-blocking combining put.
func (p *Proc) Accumulate(target, off int, data []uint64, op ReduceOp) {
	p.putInternal(target, off, data, op, "accumulate")
}

func (p *Proc) putInternal(target, off int, data []uint64, op ReduceOp, kind string) {
	p.checkAlive()
	p.checkTarget(target)
	bytes := len(data) * 8
	p.clock.Advance(p.world.params.InjectTime(bytes))
	buf := p.arenaAlloc(target, len(data))
	copy(buf, data)
	p.pending[target] = append(p.pending[target], pendingOp{
		isPut:      true,
		off:        off,
		data:       buf,
		op:         op,
		completeAt: p.clock.Now() + p.world.params.TransferTime(bytes),
	})
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: kind, Src: p.rank, Trg: target, Words: len(data),
			Combine: op.Combining(), Epoch: p.epoch[target]})
	})
}

// arenaAlloc carves n words out of the per-target put arena. The epoch's
// buffered payloads share one backing slab, reset when the epoch towards
// that target closes — steady state, an epoch of puts allocates nothing.
// Growth mid-epoch switches to a fresh slab: ops issued against the old
// one keep it alive through their own slices, and it falls to the GC once
// the flush consumes them.
func (p *Proc) arenaAlloc(q, n int) []uint64 {
	a := p.putbuf[q]
	if cap(a)-len(a) < n {
		c := max(2*cap(a), n, 64)
		a = make([]uint64, 0, c)
	}
	p.putbuf[q] = a[:len(a)+n]
	return p.putbuf[q][len(a) : len(a)+n]
}

// Get issues a non-blocking get of n words from target at off. The returned
// slice is filled when the epoch towards target closes.
func (p *Proc) Get(target, off, n int) []uint64 {
	return p.getInternal(target, off, n, -1)
}

// GetCopy issues a non-blocking get of n words from target at off whose
// destination is also the local window at localOff. Unlike Get, the
// received data lands in exposed (and therefore checkpointable and
// recoverable) memory — this is how applications should receive data they
// cannot afford to lose. The returned slice is a private copy filled at
// epoch close.
func (p *Proc) GetCopy(target, off, n, localOff int) []uint64 {
	p.world.windows[p.rank].checkRange(localOff, n)
	return p.getInternal(target, off, n, localOff)
}

func (p *Proc) getInternal(target, off, n, localOff int) []uint64 {
	p.checkAlive()
	p.checkTarget(target)
	bytes := n * 8
	p.clock.Advance(p.world.params.InjectTime(0)) // request is small
	dest := make([]uint64, n)
	p.pending[target] = append(p.pending[target], pendingOp{
		off:        off,
		dest:       dest,
		localOff:   localOff,
		completeAt: p.clock.Now() + p.world.params.TransferTime(bytes),
	})
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "get", Src: p.rank, Trg: target, Words: n,
			Epoch: p.epoch[target]})
	})
	return dest
}

// GetBlocking gets n words and closes the epoch towards target.
func (p *Proc) GetBlocking(target, off, n int) []uint64 {
	dest := p.Get(target, off, n)
	p.Flush(target)
	return dest
}

// CompareAndSwap atomically swaps the word at target/off if it equals old,
// returning the previous value. Blocking; counts as both a put and a get
// (Table 1).
func (p *Proc) CompareAndSwap(target, off int, old, new uint64) uint64 {
	p.checkAlive()
	p.checkTarget(target)
	p.clock.Advance(p.world.params.AtomicLatency)
	prev, err := p.world.transports[p.rank].CompareAndSwap(p.rank, target, off, old, new)
	p.transportErr(target, err)
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "cas", Src: p.rank, Trg: target, Words: 1,
			Combine: true, Epoch: p.epoch[target]})
	})
	return prev
}

// GetAccumulate atomically combines data into target's window at off and
// returns the previous contents (MPI_Get_accumulate). Blocking; counts as
// both a put and a get (Table 1).
func (p *Proc) GetAccumulate(target, off int, data []uint64, op ReduceOp) []uint64 {
	p.checkAlive()
	p.checkTarget(target)
	bytes := 8 * len(data)
	p.clock.Advance(p.world.params.AtomicLatency + p.world.params.InjectTime(bytes))
	prev, err := p.world.transports[p.rank].GetAccumulate(p.rank, target, off, data, uint8(op))
	p.transportErr(target, err)
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "getaccumulate", Src: p.rank, Trg: target,
			Words: len(data), Combine: op.Combining(), Epoch: p.epoch[target]})
	})
	return prev
}

// FetchAndOp atomically combines operand into the word at target/off,
// returning the previous value. Blocking; counts as both a put and a get.
func (p *Proc) FetchAndOp(target, off int, operand uint64, op ReduceOp) uint64 {
	p.checkAlive()
	p.checkTarget(target)
	p.clock.Advance(p.world.params.AtomicLatency)
	prev, err := p.world.transports[p.rank].FetchAndOp(p.rank, target, off, operand, uint8(op))
	p.transportErr(target, err)
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "fao", Src: p.rank, Trg: target, Words: 1,
			Combine: op.Combining(), Epoch: p.epoch[target]})
	})
	return prev
}

// transportErr maps a transport failure onto the runtime's fail-stop
// semantics: a dead peer surfaces as TargetFailedError (exactly as if
// checkTarget had caught it), anything else is a runtime error.
func (p *Proc) transportErr(target int, err error) {
	if err == nil {
		return
	}
	if _, ok := err.(transport.PeerDeadError); ok {
		panic(TargetFailedError{target})
	}
	panic(err)
}

// applyPending completes all buffered accesses towards target q by handing
// the whole epoch to the rank's transport as one batch (the loopback
// applies it to q's window directly; the tcp transport frames it as a
// single flush message — one round trip per epoch close). Get destinations
// are filled on return; GetCopy destinations additionally land in the local
// window. The caller's clock advances past the last modeled completion.
func (p *Proc) applyPending(q int) {
	ops := p.pending[q]
	if len(ops) == 0 {
		return
	}
	p.pending[q] = p.pending[q][:0]
	// Reset the put arena's watermark now (panic-safe: a dead-target
	// unwind must not leave it growing forever). The slab's contents stay
	// intact — ops reference them until the flush below consumes the
	// batch, and nothing writes to the arena before this call returns.
	p.putbuf[q] = p.putbuf[q][:0]
	maxT := p.clock.Now()
	for i := range ops {
		if ops[i].completeAt > maxT {
			maxT = ops[i].completeAt
		}
	}
	if q == p.rank {
		// Self-communication: the batch's target window IS the local
		// window, so GetCopy landings must interleave with the other ops
		// in program order (a later self-put may legally overwrite a
		// landing, and vice versa). Deliver op by op; self-delivery never
		// touches a wire, so there is no batching to lose.
		for i := range ops {
			op := &ops[i]
			err := p.world.transports[p.rank].Flush(p.rank, q, p.asBatch(op))
			p.transportErr(q, err)
			if !op.isPut && op.localOff >= 0 {
				p.world.windows[p.rank].applyPut(op.localOff, op.dest)
			}
		}
		if len(p.batch) > 0 {
			p.batch[0] = transport.Op{}
			p.batch = p.batch[:0]
		}
		p.clock.AdvanceTo(maxT)
		return
	}
	batch := p.batch[:0]
	for i := range ops {
		batch = append(batch, toOp(&ops[i]))
	}
	err := p.world.transports[p.rank].Flush(p.rank, q, batch)
	// Drop the payload references before parking the scratch slice, so
	// one large epoch does not pin its buffers for the Proc's lifetime.
	for i := range batch {
		batch[i] = transport.Op{}
	}
	p.batch = batch[:0]
	p.transportErr(q, err)
	// GetCopy landings touch the local window while the batch touched the
	// remote one, so applying them after the flush preserves program
	// order; multiple landings still apply in issue order.
	for i := range ops {
		op := &ops[i]
		if !op.isPut && op.localOff >= 0 {
			p.world.windows[p.rank].applyPut(op.localOff, op.dest)
		}
	}
	p.clock.AdvanceTo(maxT)
}

// toOp converts one buffered access to its transport form.
func toOp(op *pendingOp) transport.Op {
	if op.isPut {
		kind := transport.KindPut
		if op.op != OpReplace {
			kind = transport.KindAcc
		}
		return transport.Op{Kind: kind, Red: uint8(op.op), Off: op.off, Data: op.data}
	}
	return transport.Op{Kind: transport.KindGet, Off: op.off, Dest: op.dest}
}

// asBatch wraps one op in the Proc's single-op scratch batch.
func (p *Proc) asBatch(op *pendingOp) []transport.Op {
	if cap(p.batch) < 1 {
		p.batch = make([]transport.Op, 0, 1)
	}
	p.batch = p.batch[:1]
	p.batch[0] = toOp(op)
	return p.batch
}

// Flush closes the epoch towards target: all outstanding accesses complete
// and E(p->target) increments.
func (p *Proc) Flush(target int) {
	p.checkAlive()
	p.checkTarget(target)
	p.applyPending(target)
	p.clock.Advance(p.world.params.NetLatency) // remote completion ack
	p.epoch[target]++
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "flush", Src: p.rank, Trg: target, Epoch: p.epoch[target]})
	})
}

// FlushAll closes the epochs towards all live targets.
func (p *Proc) FlushAll() {
	p.checkAlive()
	for q := 0; q < p.world.cfg.N; q++ {
		switch {
		case q == p.rank:
			// Self-communication is legal RMA; apply buffered self-puts.
			p.applyPending(q)
		case !p.world.Alive(q):
			// Accesses in flight towards a dead rank are lost with it.
			p.pending[q] = p.pending[q][:0]
			p.putbuf[q] = p.putbuf[q][:0]
		default:
			p.applyPending(q)
		}
		p.epoch[q]++
	}
	p.clock.Advance(p.world.params.NetLatency)
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "flush", Src: p.rank, Trg: -1})
	})
}

// lockLatency returns the latency of lock traffic towards target: network
// latency for remote locks, CPU overhead for self-locks (which the logging
// layer issues on every put, §3.2.3).
func (p *Proc) lockLatency(target int) float64 {
	if target == p.rank {
		return p.world.params.OpOverhead
	}
	return p.world.params.NetLatency
}

// Lock acquires exclusive access to structure str in target's memory.
func (p *Proc) Lock(target, str int) {
	p.checkAlive()
	p.checkTarget(target)
	after, err := p.world.transports[p.rank].Lock(p.rank, target, str, p.clock.Now(), p.lockLatency(target))
	p.transportErr(target, err)
	if p.world.failed[p.rank].Load() {
		// Killed while blocked on the lock: release it (Kill's cleanup may
		// already have, releaseIfHeldBy is idempotent) and unwind. This
		// crash cleanup intentionally bypasses the transport seam: it is
		// the world's fail-stop teardown (like Kill's own lock sweep), not
		// a rank-issued access, and every deployment that hosts windows
		// remotely must run its own cleanup at the window host anyway.
		p.world.windows[target].releaseIfHeldBy(p.rank)
		panic(killed{p.rank})
	}
	p.clock.AdvanceTo(after)
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "lock", Src: p.rank, Trg: target, Str: str,
			Epoch: p.epoch[target]})
	})
}

// Unlock releases structure str at target and closes the epoch towards it
// (an unlock enforces consistency of the structure, §2.1.2).
func (p *Proc) Unlock(target, str int) {
	p.checkAlive()
	p.applyPending(target)
	lat := p.lockLatency(target)
	p.transportErr(target, p.world.transports[p.rank].Unlock(p.rank, target, str, p.clock.Now(), lat))
	p.clock.Advance(lat)
	p.epoch[target]++
	p.world.trace(func(t Tracer) {
		t.OnAction(TraceAction{Kind: "unlock", Src: p.rank, Trg: target, Str: str,
			Epoch: p.epoch[target]})
	})
}

// Gsync is the collective memory synchronization: every rank's epochs close
// and all ranks synchronize (it also establishes a global happened-before
// edge, as the paper's schemes assume of gsync implementations).
func (p *Proc) Gsync() {
	p.checkAlive()
	for q := 0; q < p.world.cfg.N; q++ {
		switch {
		case q == p.rank:
			// Self-communication is legal RMA; apply buffered self-puts.
			p.applyPending(q)
		case !p.world.Alive(q):
			p.pending[q] = p.pending[q][:0]
			p.putbuf[q] = p.putbuf[q][:0]
		default:
			p.applyPending(q)
		}
		p.epoch[q]++
	}
	t := p.world.barrier.Wait(p.rank, p.clock.Now())
	p.checkAlive()
	p.clock.AdvanceTo(t + p.world.params.BarrierTime(p.world.barrier.Participants()))
	p.world.trace(func(tr Tracer) {
		tr.OnAction(TraceAction{Kind: "gsync", Src: p.rank, Trg: -1})
	})
}

// Barrier synchronizes all live ranks without memory effects.
func (p *Proc) Barrier() {
	p.checkAlive()
	t := p.world.barrier.Wait(p.rank, p.clock.Now())
	p.checkAlive()
	p.clock.AdvanceTo(t + p.world.params.BarrierTime(p.world.barrier.Participants()))
	p.world.trace(func(tr Tracer) {
		tr.OnAction(TraceAction{Kind: "barrier", Src: p.rank, Trg: -1})
	})
}
