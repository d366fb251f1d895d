package fabric

import (
	"repro/internal/erasure"
	"repro/internal/rma"
)

// The committed base as copy-on-write chunks.
//
// A rank's committed base — its window as of the last fold its parity host
// acknowledged — is not a second copy of the window. The window's writes
// (touchLocked) save a chunk's committed words the first time the chunk is
// written after the last commit, when its rma.DirtyTracker stamp is still
// at or below ckptGen, and the base is the window with the saved chunks laid
// over it: a chunk stamped at or below ckptGen has not been written since
// the commit, so its words in the window are its committed ones. A chunk
// whose committed words are all zero (a fresh window's, before its set-up
// fill) is saved as a marker that costs no copy.
//
// The copies lie back to back in one buffer, chunkWords each, and saved
// maps each chunk stamped above ckptGen to its copy; the entries of the
// other chunks are stale and never read. The diff (diffRanges) compares the
// stamped chunks with their copies. The commit (commitBase) moves ckptGen
// to the generation the diff read, which drops the copy of every chunk not
// written since without touching it; it moves the copies of the chunks
// written since, advanced by the delta, into the node's second buffer and
// swaps the two, so a steady run saves and drops its chunks without
// allocating. A fold that fails commits nothing, so it has nothing to undo.
// saved, copies and spare are guarded by winMu, like the window.

// chunkWords is the copy-on-write granularity: the dirty tracker's chunk,
// so the chunks a diff visits are the chunks saved.
const chunkWords = rma.DirtyChunkWords

// zeroCopy is the saved entry of a chunk whose committed words are all
// zero; any other entry k is the copy at copies[k*chunkWords:].
const zeroCopy int32 = -1

// zeroWords is the committed words of a chunk saved as zeroCopy, and the
// padding of a short last chunk's copy.
var zeroWords [chunkWords]uint64

// touchLocked readies the window's words [off, off+n) for a write and
// returns them: it checks the range, saves the committed words of the
// chunks the range covers that are clean since the last commit, and stamps
// the chunks. Every write of the window goes through it; writeLocked is the
// common case. Caller holds winMu. A range outside the window is a usage
// error and aborts as on the in-process runtime; handlers validate what
// arrives off the wire before they call it.
func (nd *Node) touchLocked(off, n int) []uint64 {
	rma.CheckRange(off, n, len(nd.window))
	if n > 0 {
		for c := off / chunkWords; c <= (off+n-1)/chunkWords; c++ {
			if lo := c * chunkWords; nd.dirty.Stamp(lo) <= nd.ckptGen {
				nd.saved[c] = nd.saveChunk(nd.window[lo:min(lo+chunkWords, nd.windowWords)])
			}
		}
		nd.dirty.Mark(off, n)
	}
	return nd.window[off : off+n]
}

// saveChunk saves a chunk's committed words w and returns its entry.
func (nd *Node) saveChunk(w []uint64) int32 {
	for _, x := range w {
		if x != 0 {
			k := len(nd.copies) / chunkWords
			nd.copies = append(nd.copies, w...)
			nd.copies = append(nd.copies, zeroWords[len(w):]...)
			return int32(k)
		}
	}
	return zeroCopy
}

// baseOf returns the committed words of chunk c, stamped above ckptGen,
// whose window words are w.
func (nd *Node) baseOf(c int, w []uint64) []uint64 {
	if k := nd.saved[c]; k != zeroCopy {
		return nd.copies[int(k)*chunkWords:][:len(w)]
	}
	return zeroWords[:len(w)]
}

// eachBase calls f with the committed base in window order: the runs of the
// window between saved chunks, and the saved chunks. Caller holds ckptMu
// and winMu, and f must not keep the slices past the hold.
func (nd *Node) eachBase(f func(off int, w []uint64)) {
	at := 0
	for off, n, ok := nd.dirty.Next(0, nd.ckptGen); ok; off, n, ok = nd.dirty.Next(off+n, nd.ckptGen) {
		if at < off {
			f(at, nd.window[at:off])
		}
		f(off, nd.baseOf(off/chunkWords, nd.window[off:off+n]))
		at = off + n
	}
	if at < nd.windowWords {
		f(at, nd.window[at:])
	}
}

// commitBase commits the fold of nd.delta once the parity host has it: the
// committed generation moves to the one the diff read the window at — not
// to the tracker's current one: a put that landed since the diff is in
// neither the fold nor the new base, and its stamp, above delta.gen, keeps
// its chunk dirty for the next fold. Such a chunk keeps its copy, advanced
// by the delta; every other copy is dropped, its chunk's new committed words
// being the window's. The buffer the copies were saved in becomes the spare,
// and is let go if this fold's copies and the last one's both left it mostly
// idle (idle): a phase that wrote much of the window does not leave its
// copies resident for a run of small ones. Caller holds ckptMu.
func (nd *Node) commitBase(s snap) {
	df := &nd.delta
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	kept := nd.spare[:0]
	runs, words := df.runs, df.words
	for off, n, ok := nd.dirty.Next(0, df.gen); ok; off, n, ok = nd.dirty.Next(off+n, df.gen) {
		c := off / chunkWords
		at := len(kept)
		kept = append(kept, nd.baseOf(c, nd.window[off:off+n])...)
		kept = append(kept, zeroWords[n:]...)
		nd.saved[c] = int32(at / chunkWords)
		// The delta runs that end at or before this chunk are spent.
		for len(runs) > 0 && runs[0].off+runs[0].n <= off {
			words = words[runs[0].n:]
			runs = runs[1:]
		}
		dw := words
		for _, r := range runs {
			if r.off >= off+n {
				break
			}
			lo, hi := max(r.off, off), min(r.off+r.n, off+n)
			erasure.XorWords(kept[at+lo-off:at+hi-off], dw[lo-r.off:hi-r.off])
			dw = dw[r.n:]
		}
	}
	used := len(nd.copies)
	nd.spare, nd.copies = nd.copies[:0], kept
	if idle(nd.spare, used, &nd.copiesUsed) {
		nd.spare = nil
	}
	nd.ckptGen = df.gen
	nd.snapSelf = s
}
