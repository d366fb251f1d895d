package ftrma

import (
	"sync"
	"sync/atomic"

	"repro/internal/rma"
)

// pendingGet is a Q_p entry (Table 2): the determinant of a get issued in a
// still-open epoch, holding the destination buffer so the data can be
// logged remotely once the epoch closes (Algorithm 1 phase 2).
type pendingGet struct {
	dest     []uint64
	off      int
	localOff int
	ec, gc   int
	sc, gnc  int
}

// Process wraps an rma.Proc and interposes the ftRMA protocol on every
// call, the way the paper's library uses the PMPI profiling interface
// (§6.1). It implements rma.API, so applications run unchanged on a raw
// Proc (no-FT), on this wrapper, or on the baseline layers.
type Process struct {
	inner *rma.Proc
	sys   *System
	logs  *LogStore

	// Order-information counters (§4.1). gc, gnc, and scSelf are atomics
	// because demand-checkpoint snapshots read them from other goroutines.
	gc     atomic.Int64 // flushes issued (pattern B)
	gnc    atomic.Int64 // gsyncs issued (pattern E)
	scSelf atomic.Int64 // this rank's lock sequence counter (pattern C)
	scHeld map[int]int  // SC fetched from each target under its lock
	lc     int          // lock counter LC_p (the Locks CC scheme, §3.1.2)

	// appliedEpochs[q] is E(q->p) as of q's last epoch close towards this
	// rank: how far q's puts have been applied here. Checkpoint snapshots
	// capture it so q can trim its put logs (§6.2).
	appliedEpochs []atomic.Int64

	// Q_p: gets with open epochs, per target (Algorithm 1 phase 1).
	qPending map[int][]pendingGet
	nOpen    map[int]bool // local mirror of N_target[p]

	// demandFlag is set by a peer requesting a demand checkpoint of this
	// rank; serviced at the next epoch close (§6.2).
	demandFlag atomic.Bool

	// Latest checkpoint copies kept in this rank's volatile memory; the
	// group parity protects them. Guarded by ckptMu (recovery reads them
	// from other goroutines). ucGen/ccGen are the window dirty-tracking
	// cursors of each copy (§6.2 incremental checksum integration): a
	// checkpoint copies and folds only words written since its cursor.
	// scratch is the reusable dirty-read snapshot buffer.
	ckptMu  sync.Mutex
	ucData  []uint64
	ccData  []uint64
	ucGen   uint64
	ccGen   uint64
	scratch []uint64

	// Coordinated-checkpoint scheduling state; identical at every rank by
	// construction (updated only at globally synchronized points).
	lastCC     float64
	ccInterval float64
	ccDelta    float64
}

var _ rma.FullAPI = (*Process)(nil)

func newProcess(s *System, inner *rma.Proc) *Process {
	words := inner.WindowWords()
	p := &Process{
		inner:         s.world.Proc(inner.Rank()),
		sys:           s,
		logs:          newLogStore(s.cfg.logTuning()),
		scHeld:        make(map[int]int),
		appliedEpochs: make([]atomic.Int64, s.world.N()),
		qPending:      make(map[int][]pendingGet),
		nOpen:         make(map[int]bool),
		ucData:        make([]uint64, words),
		ccData:        make([]uint64, words),
		scratch:       make([]uint64, words),
	}
	p.initCCSchedule()
	return p
}

// Rank, N, Now, Compute, Barrier pass straight through.

func (p *Process) Rank() int             { return p.inner.Rank() }
func (p *Process) N() int                { return p.inner.N() }
func (p *Process) Now() float64          { return p.inner.Now() }
func (p *Process) Compute(flops float64) { p.inner.Compute(flops) }
func (p *Process) Barrier()              { p.inner.Barrier() }

// ReadAt passes through the local read.
func (p *Process) ReadAt(off, n int) []uint64 { return p.inner.ReadAt(off, n) }

// ReadInto passes through the buffer-reusing variant of ReadAt.
func (p *Process) ReadInto(off int, dst []uint64) { p.inner.ReadInto(off, dst) }

// WriteAt passes through the local write: a local window store is an
// internal write action, not a logged remote access, but going through the
// runtime stamps it for the next incremental checkpoint.
func (p *Process) WriteAt(off int, data []uint64) { p.inner.WriteAt(off, data) }

// AdvanceTime charges local activity (e.g. application think time) to the
// virtual clock, passing through to the runtime.
func (p *Process) AdvanceTime(dt float64) { p.inner.AdvanceTime(dt) }

// GNC returns the rank's gsync counter (§4.1 E); after a recovery it
// reflects the restored checkpoint, telling applications which phase to
// resume from.
func (p *Process) GNC() int { return int(p.gnc.Load()) }

// UCCheckpoint takes an uncoordinated checkpoint of this rank now. It obeys
// the epoch condition of §3.2.2: the caller must be at an epoch boundary
// (no outstanding accesses). Applications typically call it once after
// initializing their windows, making the initial state recoverable.
func (p *Process) UCCheckpoint() { p.takeUCCheckpoint() }

// snap captures the counter vector of this rank.
func (p *Process) snap() counterSnap {
	return counterSnap{
		GC:  int(p.gc.Load()),
		GNC: int(p.gnc.Load()),
		SC:  int(p.scSelf.Load()),
	}
}

// snapEpochs captures the applied-epoch vector.
func (p *Process) snapEpochs() []int {
	out := make([]int, len(p.appliedEpochs))
	for i := range p.appliedEpochs {
		out[i] = int(p.appliedEpochs[i].Load())
	}
	return out
}

// counters returns the fields every log record carries at issue time.
func (p *Process) counters(target int) (ec, gc, sc, gnc int) {
	return p.inner.Epoch(target), int(p.gc.Load()), p.scHeld[target], int(p.gnc.Load())
}

// ---- Communication actions -------------------------------------------------

// Put intercepts a replacing put: log at the source (§3.2.3), then issue.
func (p *Process) Put(target, off int, data []uint64) {
	if p.sys.cfg.Log.Puts {
		p.logPut(target, off, data, rma.OpReplace)
	}
	p.inner.Put(target, off, data)
}

// PutValue is a single-word Put.
func (p *Process) PutValue(target, off int, v uint64) {
	p.Put(target, off, []uint64{v})
}

// Accumulate intercepts a combining put; logging one sets M_p[target]
// (§4.2).
func (p *Process) Accumulate(target, off int, data []uint64, op rma.ReduceOp) {
	if p.sys.cfg.Log.Puts {
		p.logPut(target, off, data, op)
	}
	p.inner.Accumulate(target, off, data, op)
}

// logPut records a put in LP_p[target] under the self-lock (other ranks may
// be reading LP during a concurrent recovery, §3.2.3). AppendLP copies the
// payload into the log arena, so the caller's slice is passed as-is.
func (p *Process) logPut(target, off int, data []uint64, op rma.ReduceOp) {
	self := p.Rank()
	p.inner.Lock(self, rma.StrLP)
	ec, gc, sc, gnc := p.counters(target)
	rec := LogRecord{
		Kind: LogPut, Src: self, Trg: target, Off: off,
		Data: data, LocalOff: -1, Op: op, Combine: op.Combining(),
		EC: ec, GC: gc, SC: sc, GNC: gnc,
	}
	after := p.logs.AppendLP(target, rec)
	p.inner.AdvanceTime(p.sys.world.Params().CopyTime(8 * len(data)))
	p.inner.Unlock(self, rma.StrLP)
	p.sys.bumpStats(func(st *Stats) {
		st.PutsLogged++
		if after > st.LogBytesPeak {
			st.LogBytesPeak = after
		}
	})
	p.maybeDemandCheckpoint(after)
}

// Get intercepts a get whose destination is private memory.
func (p *Process) Get(target, off, n int) []uint64 {
	return p.getCommon(target, off, n, -1)
}

// GetCopy intercepts a get landing in the local window at localOff
// (recoverable): the LG record carries the LocalOff, so replay rewrites the
// window the same way.
func (p *Process) GetCopy(target, off, n, localOff int) []uint64 {
	return p.getCommon(target, off, n, localOff)
}

// getCommon implements Algorithm 1 phase 1: raise N_target[p] before the
// first get of the epoch, issue, and remember the determinant in Q_p. The
// determinant's dest slice is filled at epoch close, before appendLG reads
// it.
func (p *Process) getCommon(target, off, n, localOff int) []uint64 {
	logged := p.sys.cfg.Log.Gets
	if logged && !p.nOpen[target] {
		p.setRemoteN(target, true) // Algorithm 1 line 1
		p.nOpen[target] = true
	}
	var dest []uint64
	if localOff >= 0 {
		dest = p.inner.GetCopy(target, off, n, localOff)
	} else {
		dest = p.inner.Get(target, off, n)
	}
	if !logged {
		return dest
	}
	ec, gc, sc, gnc := p.counters(target)
	p.qPending[target] = append(p.qPending[target], pendingGet{
		dest: dest, off: off, localOff: localOff, ec: ec, gc: gc, sc: sc, gnc: gnc,
	})
	return dest
}

// GetBlocking gets and immediately closes the epoch; N_target[p] is lowered
// on return, as §3.2.3 prescribes for blocking gets.
func (p *Process) GetBlocking(target, off, n int) []uint64 {
	dest := p.getCommon(target, off, n, -1)
	p.Flush(target)
	return dest
}

// setRemoteN writes N_target[p] := v in target's protocol memory.
func (p *Process) setRemoteN(target int, v bool) {
	p.inner.Lock(target, rma.StrMeta)
	p.sys.procs[target].logs.setN(p.Rank(), v)
	p.inner.Unlock(target, rma.StrMeta)
}

// CompareAndSwap intercepts an atomic: both a put and a get (Table 1). The
// put side is logged pessimistically before issuing; the get side (the
// returned value) is logged remotely right after, and since atomics are
// combining accesses the M flag is raised, steering recovery to the
// coordinated fallback (§4.2).
func (p *Process) CompareAndSwap(target, off int, old, new uint64) uint64 {
	if p.sys.cfg.Log.Puts {
		p.logAtomicPut(target, off, new)
	}
	prev := p.inner.CompareAndSwap(target, off, old, new)
	if p.sys.cfg.Log.Gets {
		p.logAtomicGet(target, off, prev)
	}
	return prev
}

// GetAccumulate intercepts the vector atomic: the put side is logged
// pessimistically at the source, the get side (the returned contents) at
// the target; both are combining, so the M flag steers recovery to the
// coordinated fallback (§4.2).
func (p *Process) GetAccumulate(target, off int, data []uint64, op rma.ReduceOp) []uint64 {
	if p.sys.cfg.Log.Puts {
		self := p.Rank()
		p.inner.Lock(self, rma.StrLP)
		ec, gc, sc, gnc := p.counters(target)
		after := p.logs.AppendLP(target, LogRecord{
			Kind: LogAtomic, Src: self, Trg: target, Off: off,
			Data: data, LocalOff: -1, Op: op, Combine: true,
			EC: ec, GC: gc, SC: sc, GNC: gnc,
		})
		p.inner.Unlock(self, rma.StrLP)
		p.sys.bumpStats(func(st *Stats) { st.PutsLogged++ })
		p.maybeDemandCheckpoint(after)
	}
	prev := p.inner.GetAccumulate(target, off, data, op)
	if p.sys.cfg.Log.Gets {
		ec, gc, sc, gnc := p.counters(target)
		p.sys.procs[target].logs.AppendLG(p.Rank(), LogRecord{
			Kind: LogAtomic, Src: p.Rank(), Trg: target, Off: off,
			Data: prev, LocalOff: -1, Combine: true,
			EC: ec, GC: gc, SC: sc, GNC: gnc,
		})
		params := p.sys.world.Params()
		p.inner.AdvanceTime(params.AtomicLatency + params.TransferTime(8*len(prev)+64) + params.NetLatency)
		p.sys.bumpStats(func(st *Stats) { st.GetsLogged++ })
	}
	return prev
}

// FetchAndOp intercepts the other atomic the same way.
func (p *Process) FetchAndOp(target, off int, operand uint64, op rma.ReduceOp) uint64 {
	if p.sys.cfg.Log.Puts {
		p.logAtomicPut(target, off, operand)
	}
	prev := p.inner.FetchAndOp(target, off, operand, op)
	if p.sys.cfg.Log.Gets {
		p.logAtomicGet(target, off, prev)
	}
	return prev
}

func (p *Process) logAtomicPut(target, off int, operand uint64) {
	self := p.Rank()
	p.inner.Lock(self, rma.StrLP)
	ec, gc, sc, gnc := p.counters(target)
	after := p.logs.AppendLP(target, LogRecord{
		Kind: LogAtomic, Src: self, Trg: target, Off: off,
		Data: []uint64{operand}, LocalOff: -1, Combine: true,
		EC: ec, GC: gc, SC: sc, GNC: gnc,
	})
	p.inner.Unlock(self, rma.StrLP)
	p.sys.bumpStats(func(st *Stats) { st.PutsLogged++ })
	p.maybeDemandCheckpoint(after)
}

// logAtomicGet records the get side of a blocking atomic at the target's
// LG. Unlike the batch appends of Algorithm 1 phase 2, a single-record
// append does not need the exclusive LG lock: the writer reserves a slot
// with one remote fetch-and-add on the log's tail pointer and deposits the
// record one-sidedly, so the cost is an atomic round trip plus the small
// transfer, with no lock queueing behind concurrent loggers.
func (p *Process) logAtomicGet(target, off int, value uint64) {
	ec, gc, sc, gnc := p.counters(target)
	p.sys.procs[target].logs.AppendLG(p.Rank(), LogRecord{
		Kind: LogAtomic, Src: p.Rank(), Trg: target, Off: off,
		Data: []uint64{value}, LocalOff: -1, Combine: true,
		EC: ec, GC: gc, SC: sc, GNC: gnc,
	})
	params := p.sys.world.Params()
	// Slot reservation (atomic round trip) + record deposit + completion.
	p.inner.AdvanceTime(params.AtomicLatency + params.TransferTime(72) + params.NetLatency)
	p.sys.bumpStats(func(st *Stats) { st.GetsLogged++ })
}

// ---- Synchronization actions ------------------------------------------------

// Lock intercepts an application lock: it charges the SC fetch-increment of
// §4.1 C and counts towards LC_p.
func (p *Process) Lock(target, str int) {
	p.inner.Lock(target, str)
	// Fetch-and-increment the target's synchronization counter while
	// holding the lock (the lock serializes contenders, so a plain
	// read-modify-write is exact).
	sc := p.sys.procs[target].scSelf.Add(1)
	p.scHeld[target] = int(sc)
	p.inner.AdvanceTime(p.sys.world.Params().AtomicLatency)
	p.lc++
}

// Unlock intercepts an application unlock: epoch close towards target, so
// Algorithm 1 phase 2 runs; LC_p decrements.
func (p *Process) Unlock(target, str int) {
	p.inner.Unlock(target, str)
	p.lc--
	p.gc.Add(1)
	p.closeEpochTo(target)
}

// Flush closes the epoch towards target.
func (p *Process) Flush(target int) {
	p.serviceDemand()
	p.inner.Flush(target)
	p.gc.Add(1)
	p.closeEpochTo(target)
}

// FlushAll closes the epochs towards every target.
func (p *Process) FlushAll() {
	p.serviceDemand()
	p.inner.FlushAll()
	p.gc.Add(1)
	for q := 0; q < p.N(); q++ {
		if q != p.Rank() && p.sys.world.Alive(q) {
			p.closeEpochTo(q)
		}
	}
}

// Gsync closes all epochs everywhere and synchronizes; afterwards the
// coordinated layer may transparently take a checkpoint (the Gsync scheme,
// §3.1.2).
func (p *Process) Gsync() {
	p.serviceDemand()
	p.inner.Gsync()
	p.gnc.Add(1)
	p.gc.Add(1)
	tSync := p.Now() // globally identical right after the gsync barrier
	for q := 0; q < p.N(); q++ {
		if q != p.Rank() && p.sys.world.Alive(q) {
			p.closeEpochTo(q)
		}
	}
	p.maybeCCAfterGsync(tSync)
}

// closeEpochTo performs the per-target epoch-close protocol work:
// Algorithm 1 phase 2 (write the pending get logs into LG_target, lower
// N_target[p]) and the applied-epoch bookkeeping used for log trimming.
func (p *Process) closeEpochTo(target int) {
	if pend := p.qPending[target]; len(pend) > 0 {
		p.inner.Lock(target, rma.StrLG) // Algorithm 1 line 4
		totalBytes := 0
		after := 0
		for _, g := range pend {
			// AppendLG copies g.dest into the target's log residence, so
			// the destination buffer is read exactly once here, at epoch
			// close.
			after = p.sys.procs[target].logs.AppendLG(p.Rank(), LogRecord{
				Kind: LogGet, Src: p.Rank(), Trg: target, Off: g.off,
				Data: g.dest, LocalOff: g.localOff,
				EC: g.ec, GC: g.gc, SC: g.sc, GNC: g.gnc,
			})
			totalBytes += 8 * len(g.dest)
		}
		params := p.sys.world.Params()
		p.inner.AdvanceTime(params.InjectTime(totalBytes) + params.TransferTime(totalBytes))
		p.inner.Unlock(target, rma.StrLG) // Algorithm 1 line 7
		p.qPending[target] = nil
		p.sys.bumpStats(func(st *Stats) {
			st.GetsLogged += len(pend)
			if after > st.LogBytesPeak {
				st.LogBytesPeak = after
			}
		})
	}
	if p.nOpen[target] {
		p.setRemoteN(target, false) // Algorithm 1 line 8
		p.nOpen[target] = false
	}
	p.sys.procs[target].appliedEpochs[p.Rank()].Store(int64(p.inner.Epoch(target)))
}
