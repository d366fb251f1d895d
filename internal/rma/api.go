// Package rma is a from-scratch Remote Memory Access runtime: the substrate
// the paper's fault-tolerance protocols sit on, replacing foMPI/MPI-3 One
// Sided (see DESIGN.md §2).
//
// Ranks execute as goroutines inside a World. Each rank exposes a window of
// 64-bit words. Communication actions (puts, gets, accumulates, atomics) and
// synchronization actions (lock, unlock, flush, gsync) follow the semantics
// of §2 of the paper:
//
//   - Puts, gets, and accumulates are non-blocking. They are buffered at the
//     source and become visible only when the current epoch towards the
//     target closes (Flush, Unlock, or Gsync) — the relaxed consistency of
//     MPI-3/UPC. A Get returns a buffer whose contents are defined only
//     after the epoch closes.
//   - Atomics (CompareAndSwap, FetchAndOp) are blocking and complete
//     immediately, like MPI-3 atomics; they count as both puts and gets.
//   - Lock/Unlock provide exclusive access to named structures in a remote
//     rank's memory; Unlock also closes the epoch towards that rank.
//   - Gsync is collective: it closes all epochs at every rank and (as in
//     many MPI implementations, which the paper's schemes assume) also
//     introduces a global happened-before edge.
//
// Every rank carries a virtual clock (package sim); operations charge LogGP
// costs, so a run yields both a functional result and a performance
// estimate. Fail-stop faults are injected with World.Kill: the victim's
// window (volatile memory) is lost and its goroutine unwinds at its next
// runtime call.
//
// # The transport seam
//
// Delivery — what physically happens when an epoch closes — is pluggable
// through package transport. A Proc buffers puts, gets, and accumulates per
// target; closing the epoch hands the whole buffered batch to the rank's
// transport.Transport in one Flush call, and blocking atomics and structure
// locks go through the same interface as request/response operations. The
// default (Config.Transport == nil) is the in-process loopback: direct
// window access, the semantics this runtime always had. Swapping in the tcp
// transport runs the very same worlds over real sockets, one framed flush
// message per epoch close per target; the conformance suite in
// internal/transport holds every implementation to the loopback's behavior.
// Window memory itself (ReadAt, WriteAt, LocalReadDirty) is always
// local — the seam covers remote access, not the rank's own window.
package rma

// ReduceOp selects the combining operation of Accumulate and FetchAndOp.
type ReduceOp int

const (
	// OpReplace overwrites the target word (a "replacing put" /
	// MPI_REPLACE).
	OpReplace ReduceOp = iota
	// OpSum adds to the target word (a "combining put" / MPI_SUM).
	OpSum
	// OpMax keeps the maximum of target and operand.
	OpMax
	// OpMin keeps the minimum of target and operand.
	OpMin
	// OpXor xors into the target word.
	OpXor
)

// Combining reports whether the op combines with existing target data (true
// for everything but OpReplace). Replaying a combining put twice corrupts
// state, which is why the paper's M_p[q] flag exists (§4.2).
func (op ReduceOp) Combining() bool { return op != OpReplace }

// String returns the conventional name of the op.
func (op ReduceOp) String() string {
	switch op {
	case OpReplace:
		return "replace"
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpXor:
		return "xor"
	}
	return "unknown"
}

// apply combines old and operand.
func (op ReduceOp) apply(old, operand uint64) uint64 {
	switch op {
	case OpReplace:
		return operand
	case OpSum:
		return old + operand
	case OpMax:
		if operand > old {
			return operand
		}
		return old
	case OpMin:
		if operand < old {
			return operand
		}
		return old
	case OpXor:
		return old ^ operand
	}
	panic("rma: unknown reduce op")
}

// API is the programming interface applications are written against, and
// the one both runtimes serve: *Proc (the raw runtime, "no-FT"), the
// fault-tolerance layers (ftrma, scr, mlog) — which intercept the calls
// exactly like a PMPI shim intercepts MPI calls (§6.1) — and the fabric's
// symmetric Node. It holds the causal subset of §2: window access,
// replacing puts, gets, epoch closes and the gsync. What only the
// in-process runtime offers — combining accumulates, atomics, structure
// locks, the memory-free barrier and the virtual clock — is FullAPI, which
// embeds it.
//
// No path in or out of the local window (ReadAt, WriteAt, GetCopy's
// landing) hands out a reference to window memory: every write goes
// through the runtime, so an implementation's generation-stamp dirty
// tracking is exact, and a distributed implementation never has to pin
// window memory in the caller's address space.
type API interface {
	// Rank returns this process's rank.
	Rank() int
	// N returns the number of application-visible ranks.
	N() int
	// ReadAt returns a copy of n words of the local window starting at
	// off, read atomically with respect to concurrent remote accesses.
	ReadAt(off, n int) []uint64
	// WriteAt stores data at off in the local window through the runtime,
	// atomically with respect to concurrent remote accesses, marking the
	// words dirty for the next incremental checkpoint.
	WriteAt(off int, data []uint64)

	// Put transfers data into target's window at word offset off
	// (non-blocking, visible after the epoch closes).
	Put(target, off int, data []uint64)
	// PutValue is a single-word Put.
	PutValue(target, off int, v uint64)
	// Get starts reading n words from target at off; the returned slice is
	// filled when the epoch towards target closes.
	Get(target, off, n int) []uint64
	// GetCopy starts reading n words from target at off into the local
	// window at localOff; the data lands in exposed (recoverable) memory
	// when the epoch closes, and the returned slice is a private copy of
	// it filled at the same time.
	GetCopy(target, off, n, localOff int) []uint64
	// GetBlocking reads and closes the epoch immediately.
	GetBlocking(target, off, n int) []uint64

	// Flush closes the epoch towards target: all outstanding accesses
	// between the caller and target complete.
	Flush(target int)
	// FlushAll closes the epochs towards every target.
	FlushAll()
	// Gsync is the collective memory synchronization: closes all epochs
	// everywhere and synchronizes all ranks.
	Gsync()
}

// FullAPI is API plus the operations only the in-process runtime and its
// fault-tolerance layers implement: the combining and atomic accesses of
// the paper's §3.2/§4.2 schemes, structure locks, a barrier without memory
// effects, and the virtual clock. Applications that need them (the
// key-value store's CAS and FAO) take FullAPI; the rest take API and reach
// Barrier and Compute through the helpers below.
type FullAPI interface {
	API

	// Accumulate combines data into target's window with op
	// (non-blocking). OpReplace makes it a replacing put.
	Accumulate(target, off int, data []uint64, op ReduceOp)
	// CompareAndSwap atomically replaces the word at target/off with new
	// if it equals old; it returns the previous value. Blocking.
	CompareAndSwap(target, off int, old, new uint64) uint64
	// FetchAndOp atomically combines operand into the word at target/off
	// and returns the previous value. Blocking.
	FetchAndOp(target, off int, operand uint64, op ReduceOp) uint64
	// GetAccumulate atomically combines data into target's window at off
	// and returns the previous contents. Blocking.
	GetAccumulate(target, off int, data []uint64, op ReduceOp) []uint64

	// Lock acquires exclusive access to structure str of target's memory.
	Lock(target, str int)
	// Unlock releases the structure and closes the epoch towards target.
	Unlock(target, str int)
	// Barrier synchronizes all ranks without memory effects.
	Barrier()

	// Compute charges flops of local computation to the virtual clock.
	Compute(flops float64)
	// Now returns the rank's virtual time.
	Now() float64
}

// ReadWindow fills dst with the window contents starting at offset 0: the
// allocation-free ReadInto when the implementation offers it (every
// in-tree implementation does), falling back to the interface's ReadAt.
// Writer applications that re-read the window every phase (stencil, FFT)
// share one scratch buffer through it.
func ReadWindow(api API, dst []uint64) {
	if r, ok := api.(interface{ ReadInto(int, []uint64) }); ok {
		r.ReadInto(0, dst)
		return
	}
	copy(dst, api.ReadAt(0, len(dst)))
}

// Barrier synchronizes all ranks: the implementation's Barrier when it has
// one, otherwise its Gsync, a barrier that also closes every epoch.
func Barrier(api API) {
	if b, ok := api.(interface{ Barrier() }); ok {
		b.Barrier()
		return
	}
	api.Gsync()
}

// Compute charges flops of local computation to the implementation's
// virtual clock, and does nothing on one without a clock.
func Compute(api API, flops float64) {
	if c, ok := api.(interface{ Compute(float64) }); ok {
		c.Compute(flops)
	}
}

// Structure identifiers for Lock/Unlock. Applications use StrWindow; the
// fault-tolerance layers use the others for their protocol structures
// (Table 2 of the paper).
const (
	StrWindow = iota // the application window
	StrLP            // put logs LP_p
	StrLG            // get logs LG_q
	StrCkpt          // checkpoint storage
	StrMeta          // protocol metadata (N, M flags, counters)
	NumStructures
)
