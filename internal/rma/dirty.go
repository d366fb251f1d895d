package rma

import "fmt"

// DirtyChunkWords is the granularity of dirty-region tracking: one
// generation stamp per 64-word (512-byte) chunk of the window.
const DirtyChunkWords = 64

// DirtyTracker records which chunks of a window were written after a
// generation its caller remembers (§6.2, incremental checkpoints): gen
// counts the marks, chunkGen[c] is the generation of the last one that
// touched chunk c. A checkpoint notes Gen when it reads the window and
// passes it as `since` to the next read, which then visits only chunks
// marked after it. Stamps are never cleared, so a write that lands while
// a checkpoint is still committing keeps a stamp above the generation
// that checkpoint noted and is found by the next one.
//
// A second level, summary[b], is the generation of the last mark in block b
// of summaryChunks chunks, so a read skips a clean block on one stamp: one
// dirty chunk of a 4 MiB window costs 128 summary stamps and 64 chunk
// stamps, not 8 192.
//
// Both runtimes track their windows with it (rma.window here, fabric.Node
// across processes). It does not lock: callers hold whatever guards the
// window's words.
type DirtyTracker struct {
	words    int
	gen      uint64
	chunkGen []uint64
	summary  []uint64
	// stampsRead counts the stamps Next has read, for the tests that pin
	// what a read costs.
	stampsRead int
}

// summaryChunks is how many chunk stamps one summary stamp covers.
const summaryChunks = 64

// NewDirtyTracker tracks a window of the given size, all clean.
func NewDirtyTracker(words int) DirtyTracker {
	chunks := (words + DirtyChunkWords - 1) / DirtyChunkWords
	return DirtyTracker{
		words:    words,
		chunkGen: make([]uint64, chunks),
		summary:  make([]uint64, (chunks+summaryChunks-1)/summaryChunks),
	}
}

// Mark stamps the chunks covering [off, off+n) with a fresh generation.
func (t *DirtyTracker) Mark(off, n int) {
	if n <= 0 {
		return
	}
	t.gen++
	first, last := off/DirtyChunkWords, (off+n-1)/DirtyChunkWords
	for c := first; c <= last; c++ {
		t.chunkGen[c] = t.gen
	}
	for b := first / summaryChunks; b <= last/summaryChunks; b++ {
		t.summary[b] = t.gen
	}
}

// Gen returns the current generation: every Mark so far is at or below it,
// every later one above.
func (t *DirtyTracker) Gen() uint64 { return t.gen }

// Stamp returns the generation of the last Mark that touched the chunk
// holding word off, 0 for a chunk never marked.
func (t *DirtyTracker) Stamp(off int) uint64 { return t.chunkGen[off/DirtyChunkWords] }

// Next returns the first chunk starting at or after word `from` that was
// marked after generation since, as the word range [off, off+n) — n is the
// chunk size, less for a short last chunk. ok is false when none is left.
func (t *DirtyTracker) Next(from int, since uint64) (off, n int, ok bool) {
	for c := (from + DirtyChunkWords - 1) / DirtyChunkWords; c < len(t.chunkGen); {
		t.stampsRead++
		if t.summary[c/summaryChunks] <= since {
			c = (c/summaryChunks + 1) * summaryChunks // a clean block
			continue
		}
		for end := min((c/summaryChunks+1)*summaryChunks, len(t.chunkGen)); c < end; c++ {
			t.stampsRead++
			if t.chunkGen[c] > since {
				off = c * DirtyChunkWords
				return off, min(DirtyChunkWords, t.words-off), true
			}
		}
	}
	return 0, 0, false
}

// CheckRange panics unless [off, off+n) lies inside a window of the given
// size: usage errors abort the run, as an RMA runtime would.
func CheckRange(off, n, words int) {
	if off < 0 || n < 0 || off+n > words {
		panic(fmt.Sprintf("rma: access [%d, %d) outside window of %d words", off, off+n, words))
	}
}
