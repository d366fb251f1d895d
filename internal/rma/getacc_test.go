package rma

import "testing"

func TestGetAccumulate(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Proc(1).WriteAt(0, []uint64{10, 20})
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		prev := p.GetAccumulate(1, 0, []uint64{1, 2}, OpSum)
		if prev[0] != 10 || prev[1] != 20 {
			t.Errorf("previous contents = %v, want [10 20]", prev)
		}
		if got := w.Proc(1).ReadAt(0, 2); got[0] != 11 || got[1] != 22 {
			t.Errorf("combined contents = %v, want [11 22]", got)
		}
		// OpReplace makes it a swap.
		prev = p.GetAccumulate(1, 0, []uint64{5, 6}, OpReplace)
		if prev[0] != 11 || prev[1] != 22 {
			t.Errorf("swap returned %v", prev)
		}
		if got := w.Proc(1).ReadAt(0, 2); got[0] != 5 || got[1] != 6 {
			t.Errorf("swapped contents = %v", got)
		}
	})
}

func TestGetAccumulateConcurrentExact(t *testing.T) {
	// Concurrent vector accumulates must not lose updates.
	const n, per = 6, 50
	w := newTestWorld(n, 4)
	w.Run(func(r int) {
		p := w.Proc(r)
		for i := 0; i < per; i++ {
			p.GetAccumulate(0, 0, []uint64{1, 2}, OpSum)
		}
		p.Barrier()
		got := p.world.Proc(0).ReadAt(0, 2)
		if got[0] != n*per || got[1] != 2*n*per {
			t.Errorf("rank %d sees %v, want [%d %d]", r, got, n*per, 2*n*per)
		}
	})
}
