package rma

import (
	"fmt"
	"slices"
	"sync"
)

// lockState is one lockable structure of a rank's memory: a real mutex for
// mutual exclusion plus virtual-time metadata modeling the queueing delay of
// remote lock acquisition.
type lockState struct {
	mu sync.Mutex // held between Lock and Unlock

	meta        sync.Mutex // guards the fields below
	holder      int        // rank currently holding the lock, -1 if free
	availableAt float64    // virtual time at which the lock was last released
}

// DirtyRange is a half-open word range [Off, Off+Len) of a window reported
// as modified by LocalReadDirty.
type DirtyRange struct{ Off, Len int }

// window is the shared memory a rank exposes, plus its lockable structures.
type window struct {
	mu    sync.Mutex // serializes physical access (applies, atomics, reads)
	words []uint64
	locks []lockState

	// Dirty-region tracking for incremental checkpoints (§6.2): every
	// mutation marks dirty. aliased is set once Local hands out a raw
	// reference to the words — from then on writes can bypass the runtime,
	// so change detection falls back to comparing contents against the
	// caller's checkpoint base (exact, just not free).
	dirty   DirtyTracker
	aliased bool
}

func newWindow(words, numLocks int) *window {
	w := &window{
		words: make([]uint64, words),
		locks: make([]lockState, numLocks),
		dirty: NewDirtyTracker(words),
	}
	for i := range w.locks {
		w.locks[i].holder = -1
	}
	return w
}

// alias returns the raw words and permanently downgrades dirty tracking to
// content comparison (writes through the returned slice are invisible to
// the runtime). Only Local and GetInto take this path; the non-aliasing
// ReadAt/GetCopy reads go through readInto and leave the stamps exact.
func (w *window) alias() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.aliased = true
	return w.words
}

// readDirtyInto copies into dst every chunk modified since generation
// `since` and returns the merged dirty ranges plus the generation cursor
// for the next call. base must be the caller's copy of the window contents
// as of `since`: when the window has been aliased, modified chunks are
// found by comparing against it instead of trusting the write stamps.
func (w *window) readDirtyInto(dst, base []uint64, since uint64) ([]DirtyRange, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.words)
	var ranges []DirtyRange
	for off, ln := 0, 0; off < n; off += ln {
		if w.aliased {
			ln = min(dirtyChunkWords, n-off)
			if slices.Equal(w.words[off:off+ln], base[off:off+ln]) {
				continue
			}
		} else {
			var ok bool
			if off, ln, ok = w.dirty.Next(off, since); !ok {
				break
			}
		}
		if k := len(ranges); k > 0 && ranges[k-1].Off+ranges[k-1].Len == off {
			ranges[k-1].Len += ln
		} else {
			ranges = append(ranges, DirtyRange{Off: off, Len: ln})
		}
		copy(dst[off:off+ln], w.words[off:off+ln])
	}
	return ranges, w.dirty.Gen()
}

// checkRange panics on out-of-bounds accesses: usage errors abort the run,
// as an RMA runtime would.
func (w *window) checkRange(off, n int) { CheckRange(off, n, len(w.words)) }

// applyPut writes data at off under the window lock.
func (w *window) applyPut(off int, data []uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkRange(off, len(data))
	copy(w.words[off:], data)
	w.dirty.Mark(off, len(data))
}

// applyAccumulate combines data at off under the window lock.
func (w *window) applyAccumulate(off int, data []uint64, op ReduceOp) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkRange(off, len(data))
	for i, v := range data {
		w.words[off+i] = op.apply(w.words[off+i], v)
	}
	w.dirty.Mark(off, len(data))
}

// readInto copies n words from off into dst under the window lock.
func (w *window) readInto(off int, dst []uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkRange(off, len(dst))
	copy(dst, w.words[off:off+len(dst)])
}

// cas performs an atomic compare-and-swap on one word.
func (w *window) cas(off int, old, new uint64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkRange(off, 1)
	prev := w.words[off]
	if prev == old {
		w.words[off] = new
		w.dirty.Mark(off, 1)
	}
	return prev
}

// getAccumulate atomically combines data into the window at off and
// returns the previous contents (MPI_Get_accumulate).
func (w *window) getAccumulate(off int, data []uint64, op ReduceOp) []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkRange(off, len(data))
	prev := make([]uint64, len(data))
	copy(prev, w.words[off:off+len(data)])
	for i, v := range data {
		w.words[off+i] = op.apply(w.words[off+i], v)
	}
	w.dirty.Mark(off, len(data))
	return prev
}

// fao performs an atomic fetch-and-op on one word.
func (w *window) fao(off int, operand uint64, op ReduceOp) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkRange(off, 1)
	prev := w.words[off]
	w.words[off] = op.apply(prev, operand)
	w.dirty.Mark(off, 1)
	return prev
}

// clear zeroes the window: the volatile memory of a crashed rank is gone.
func (w *window) clear() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.words {
		w.words[i] = 0
	}
	w.dirty.Mark(0, len(w.words))
}

// acquire takes structure lock str on behalf of rank p whose virtual clock
// reads now; it returns the virtual time after acquisition.
func (w *window) acquire(str, p int, now, latency float64) float64 {
	ls := &w.locks[str]
	ls.mu.Lock()
	ls.meta.Lock()
	defer ls.meta.Unlock()
	start := now
	if ls.availableAt > start {
		start = ls.availableAt
	}
	ls.holder = p
	// Request + grant round trip.
	return start + 2*latency
}

// release drops structure lock str; now is the holder's virtual clock.
func (w *window) release(str, p int, now, latency float64) {
	ls := &w.locks[str]
	ls.meta.Lock()
	if ls.holder != p {
		ls.meta.Unlock()
		panic(fmt.Sprintf("rma: rank %d releasing lock %d held by %d", p, str, ls.holder))
	}
	ls.holder = -1
	ls.availableAt = now + latency
	ls.meta.Unlock()
	ls.mu.Unlock()
}

// releaseIfHeldBy force-releases the lock if rank p holds it (crash
// cleanup).
func (w *window) releaseIfHeldBy(p int) {
	for i := range w.locks {
		ls := &w.locks[i]
		ls.meta.Lock()
		if ls.holder == p {
			ls.holder = -1
			ls.meta.Unlock()
			ls.mu.Unlock()
			continue
		}
		ls.meta.Unlock()
	}
}
