package rma

import (
	"slices"
	"testing"
)

// TestDirtyTrackingRanges checks that tracked writes surface as merged
// chunk-granular ranges and that a second read with the returned cursor
// sees nothing.
func TestDirtyTrackingRanges(t *testing.T) {
	const words = 4 * DirtyChunkWords
	w := NewWorld(Config{N: 1, WindowWords: words})
	p := w.Proc(0)
	dst := make([]uint64, words)

	// Fresh window: nothing written, nothing dirty.
	ranges, gen := p.LocalReadDirty(dst, 0)
	if len(ranges) != 0 {
		t.Fatalf("fresh window reported dirty ranges %v", ranges)
	}

	// One word in chunk 0, one in chunk 2.
	p.WriteAt(3, []uint64{7})
	p.WriteAt(2*DirtyChunkWords+5, []uint64{9})
	ranges, gen = p.LocalReadDirty(dst, gen)
	want := []DirtyRange{
		{Off: 0, Len: DirtyChunkWords},
		{Off: 2 * DirtyChunkWords, Len: DirtyChunkWords},
	}
	if len(ranges) != len(want) || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	if dst[3] != 7 || dst[2*DirtyChunkWords+5] != 9 {
		t.Fatal("dirty read did not copy the written words")
	}

	// Cursor advanced: no new writes, no dirty chunks.
	if ranges, _ = p.LocalReadDirty(dst, gen); len(ranges) != 0 {
		t.Fatalf("clean window reported dirty ranges %v", ranges)
	}

	// Adjacent chunks merge into one range.
	p.WriteAt(DirtyChunkWords-1, []uint64{1, 2}) // spans chunks 0 and 1
	ranges, _ = p.LocalReadDirty(dst, gen)
	if len(ranges) != 1 || ranges[0].Off != 0 || ranges[0].Len != 2*DirtyChunkWords {
		t.Fatalf("spanning write produced ranges %v", ranges)
	}
}

// TestDirtyTrackingRemoteOps pins every path that mutates a window to the
// dirty stamps: generation stamps are the only change detector, so a path
// that skipped dirty.Mark would lose its words from the next incremental
// checkpoint. Each row mutates rank 1's window once and must report exactly
// the chunks it changed, with the new contents copied out.
func TestDirtyTrackingRemoteOps(t *testing.T) {
	const (
		c     = DirtyChunkWords
		words = 4 * c
	)
	chunk := func(i int) []DirtyRange { return []DirtyRange{{Off: i * c, Len: c}} }
	for _, tc := range []struct {
		name string
		op   func(w *World)
		want []DirtyRange // chunks of rank 1 reported dirty
		off  int          // a word the op wrote ...
		val  uint64       // ... and its new value
	}{
		{"put", func(w *World) {
			w.Proc(0).Put(1, 1, []uint64{42})
			w.Proc(0).Flush(1)
		}, chunk(0), 1, 42},
		{"accumulate", func(w *World) {
			w.Proc(0).Accumulate(1, c+2, []uint64{5}, OpSum)
			w.Proc(0).Flush(1)
		}, chunk(1), c + 2, 5},
		{"fetch-and-op", func(w *World) {
			w.Proc(0).FetchAndOp(1, 3*c, 5, OpSum)
		}, chunk(3), 3 * c, 5},
		{"cas-hit", func(w *World) {
			w.Proc(0).CompareAndSwap(1, 2*c, 0, 9)
		}, chunk(2), 2 * c, 9},
		{"cas-miss", func(w *World) {
			w.Proc(0).CompareAndSwap(1, 2*c, 1, 9)
		}, nil, 2 * c, 0},
		{"get-accumulate", func(w *World) {
			w.Proc(0).GetAccumulate(1, c, []uint64{6}, OpSum)
		}, chunk(1), c, 6},
		{"getcopy-landing", func(w *World) {
			w.Proc(0).WriteAt(0, []uint64{41})
			w.Proc(1).GetCopy(0, 0, 1, 3*c+1)
			w.Proc(1).Flush(0)
		}, chunk(3), 3*c + 1, 41},
		{"writeat", func(w *World) {
			w.Proc(1).WriteAt(c+7, []uint64{3})
		}, chunk(1), c + 7, 3},
		{"self-put", func(w *World) {
			w.Proc(1).Put(1, 2*c+3, []uint64{8})
			w.Proc(1).Flush(1)
		}, chunk(2), 2*c + 3, 8},
		{"kill-clear", func(w *World) {
			w.Kill(1)
		}, []DirtyRange{{Off: 0, Len: words}}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(Config{N: 2, WindowWords: words})
			win := w.windows[1]
			dst := make([]uint64, words)
			_, gen := win.readDirtyInto(dst, 0)
			tc.op(w)
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			// The killed rank's window is read directly: its Proc is dead.
			ranges, _ := win.readDirtyInto(dst, gen)
			if !slices.Equal(ranges, tc.want) {
				t.Fatalf("dirty ranges %v, want %v", ranges, tc.want)
			}
			if len(tc.want) > 0 && dst[tc.off] != tc.val {
				t.Fatalf("dirty read copied word %d = %#x, want %#x", tc.off, dst[tc.off], tc.val)
			}
		})
	}
	// Respawn replaces the cleared window with a fresh one: nothing
	// written, nothing dirty.
	w := NewWorld(Config{N: 2, WindowWords: words})
	w.Proc(1).WriteAt(0, []uint64{1})
	w.Kill(1)
	p := w.Respawn(1)
	if ranges, _ := p.LocalReadDirty(make([]uint64, words), 0); len(ranges) != 0 {
		t.Fatalf("respawned window reported dirty ranges %v", ranges)
	}
}

// TestDirtyTrackerStampsRead pins what a checkpoint's walk over a 4 MiB
// window (8 192 chunks in 128 summary blocks) reads when one chunk is dirty:
// every summary stamp, the dirty block's one again when the walk resumes in
// it, and that block's 64 chunk stamps — 193, not the 8 192 of a flat scan.
// A dirty chunk at a block's last slot or at the window's end costs the same
// walk without the second summary read.
func TestDirtyTrackerStampsRead(t *testing.T) {
	const words = 4 << 20 / 8
	for _, tc := range []struct {
		name  string
		chunk int
		want  int
	}{
		{"mid-block", 4000, 128 + 1 + 64},
		{"block end", 63, 128 + 64},
		{"window end", 8191, 128 + 64},
		{"none", -1, 128},
	} {
		d := NewDirtyTracker(words)
		since := d.Gen()
		if tc.chunk >= 0 {
			d.Mark(tc.chunk*DirtyChunkWords+5, 1)
		}
		var got []int
		for off, n, ok := d.Next(0, since); ok; off, n, ok = d.Next(off+n, since) {
			got = append(got, off/DirtyChunkWords)
		}
		if want := []int{tc.chunk}; tc.chunk >= 0 && !slices.Equal(got, want) || tc.chunk < 0 && got != nil {
			t.Errorf("%s: the walk found chunks %v, want %d", tc.name, got, tc.chunk)
		}
		if d.stampsRead != tc.want {
			t.Errorf("%s: the walk read %d stamps, want %d", tc.name, d.stampsRead, tc.want)
		}
		if tc.chunk >= 0 && (d.Stamp(tc.chunk*DirtyChunkWords+63) != d.Gen() || d.Stamp((tc.chunk^1)*DirtyChunkWords) != 0) {
			t.Errorf("%s: Stamp gives %d for the marked chunk and %d for its neighbour, want %d and 0",
				tc.name, d.Stamp(tc.chunk*DirtyChunkWords+63), d.Stamp((tc.chunk^1)*DirtyChunkWords), d.Gen())
		}
	}
}
