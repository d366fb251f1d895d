package rma

import "testing"

// TestGetCopyNonAliasing checks GetCopy at the runtime level: the returned
// slice is private (filled at epoch close) and the data still lands in the
// window through the runtime.
func TestGetCopyNonAliasing(t *testing.T) {
	const words = 4 * DirtyChunkWords
	w := NewWorld(Config{N: 2, WindowWords: words})
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 1 {
			p.WriteAt(0, []uint64{7, 8, 9})
		}
		p.Barrier()
		if r == 0 {
			dest := p.GetCopy(1, 0, 3, 2*DirtyChunkWords)
			if dest[0] != 0 {
				t.Error("GetCopy dest filled before the epoch closed")
			}
			p.Flush(1)
			if dest[0] != 7 || dest[1] != 8 || dest[2] != 9 {
				t.Errorf("GetCopy dest = %v, want [7 8 9]", dest[:3])
			}
			// Writes through the returned slice must NOT reach the window.
			dest[0] = 0xbad
			if got := p.ReadAt(2*DirtyChunkWords, 1)[0]; got != 7 {
				t.Errorf("window word = %#x; GetCopy returned an alias", got)
			}
		}
		p.Gsync()
	})
}

// TestGetCopyMarksLandingDirty checks that the landing applied at epoch
// close is visible to generation-stamp dirty tracking — the property that
// makes GetCopy checkpoint-safe.
func TestGetCopyMarksLandingDirty(t *testing.T) {
	const words = 4 * DirtyChunkWords
	w := NewWorld(Config{N: 2, WindowWords: words})
	dst := make([]uint64, words)
	_, gen := w.Proc(0).LocalReadDirty(dst, 0)
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 1 {
			p.WriteAt(0, []uint64{41})
		}
		p.Barrier()
		if r == 0 {
			p.GetCopy(1, 0, 1, 3*DirtyChunkWords)
			p.Flush(1)
		}
		p.Gsync()
	})
	ranges, _ := w.Proc(0).LocalReadDirty(dst, gen)
	found := false
	for _, r := range ranges {
		if r.Off <= 3*DirtyChunkWords && 3*DirtyChunkWords < r.Off+r.Len {
			found = true
		}
	}
	if !found {
		t.Fatalf("GetCopy landing not stamped dirty (ranges %v)", ranges)
	}
	if dst[3*DirtyChunkWords] != 41 {
		t.Fatalf("landing word = %#x, want 41", dst[3*DirtyChunkWords])
	}
}

// TestReadAtNonAliasing checks ReadAt returns an atomic private copy.
func TestReadAtNonAliasing(t *testing.T) {
	w := NewWorld(Config{N: 1, WindowWords: 16})
	p := w.Proc(0)
	p.WriteAt(0, []uint64{1, 2, 3})
	got := p.ReadAt(0, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ReadAt = %v", got)
	}
	got[0] = 99
	if p.ReadAt(0, 1)[0] != 1 {
		t.Fatal("ReadAt returned an alias")
	}
}
