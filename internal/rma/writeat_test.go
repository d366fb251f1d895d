package rma

import (
	"testing"

	"repro/internal/transport"
)

// TestReduceOpWireCodes pins the value-for-value correspondence between
// rma.ReduceOp and the transport wire codes (transport cannot import rma,
// so the two enumerations are mirrored by convention — this test is the
// convention's enforcement).
func TestReduceOpWireCodes(t *testing.T) {
	pairs := []struct {
		op  ReduceOp
		red uint8
	}{
		{OpReplace, transport.RedReplace},
		{OpSum, transport.RedSum},
		{OpMax, transport.RedMax},
		{OpMin, transport.RedMin},
		{OpXor, transport.RedXor},
	}
	for _, p := range pairs {
		if uint8(p.op) != p.red {
			t.Fatalf("ReduceOp %v = %d, wire code %d", p.op, uint8(p.op), p.red)
		}
		if redToOp(p.red) != p.op {
			t.Fatalf("wire code %d decodes to %v, want %v", p.red, redToOp(p.red), p.op)
		}
	}
	if transport.ValidRed(uint8(len(pairs))) {
		t.Fatalf("wire accepts reduce code %d beyond the enumeration", len(pairs))
	}
}

// TestSelfEpochGetCopyPutOrdering pins the program-order interleaving of
// self-communication epochs across the transport seam: a GetCopy landing
// and an overlapping self-put must apply in issue order, whichever comes
// first (the delivery path must not batch the landing past the put).
func TestSelfEpochGetCopyPutOrdering(t *testing.T) {
	w := NewWorld(Config{N: 1, WindowWords: 16})
	p := w.Proc(0)
	p.WriteAt(0, []uint64{7})

	p.GetCopy(0, 0, 1, 4)     // landing writes window[4] = 7
	p.Put(0, 4, []uint64{99}) // later same-epoch put must win
	p.Flush(0)
	if got := p.ReadAt(4, 1)[0]; got != 99 {
		t.Fatalf("put after GetCopy landing lost: window[4] = %d, want 99", got)
	}

	p.Put(0, 5, []uint64{50})
	p.GetCopy(0, 0, 1, 5) // later landing must win over the earlier put
	p.Flush(0)
	if got := p.ReadAt(5, 1)[0]; got != 7 {
		t.Fatalf("GetCopy landing after put lost: window[5] = %d, want 7", got)
	}
}

// TestWriteAtPreservesStamps: a local write is stamped at chunk
// granularity, and a read with the returned cursor sees nothing more.
func TestWriteAtPreservesStamps(t *testing.T) {
	w := NewWorld(Config{N: 1, WindowWords: 4 * DirtyChunkWords})
	p := w.Proc(0)

	p.WriteAt(DirtyChunkWords, []uint64{1, 2, 3})
	dst := make([]uint64, 4*DirtyChunkWords)
	ranges, gen := p.LocalReadDirty(dst, 0)
	if len(ranges) != 1 || ranges[0].Off != DirtyChunkWords || ranges[0].Len != DirtyChunkWords {
		t.Fatalf("dirty ranges after WriteAt: %v", ranges)
	}

	// No writes since the cursor: nothing dirty.
	if ranges, _ := p.LocalReadDirty(dst, gen); len(ranges) != 0 {
		t.Fatalf("phantom dirty ranges: %v", ranges)
	}
}
