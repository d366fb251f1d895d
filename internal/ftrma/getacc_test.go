package ftrma

import (
	"testing"

	"repro/internal/rma"
)

func TestGetAccumulateLoggedBothSides(t *testing.T) {
	w, sys := newSys(t, 2, 8, nil)
	w.Proc(1).WriteAt(0, []uint64{7})
	w.Run(func(r int) {
		if r == 0 {
			prev := sys.Process(0).GetAccumulate(1, 0, []uint64{3}, rma.OpSum)
			if prev[0] != 7 {
				t.Errorf("prev = %v, want [7]", prev)
			}
		}
	})
	if len(sys.Process(0).logs.CopyLP(1)) != 1 {
		t.Error("put side not logged at source")
	}
	lg := sys.Process(1).logs.CopyLG(0)
	if len(lg) != 1 {
		t.Fatal("get side not logged at target")
	}
	if lg[0].Data[0] != 7 {
		t.Errorf("logged get data = %v, want the previous contents [7]", lg[0].Data)
	}
	if !sys.Process(0).logs.FlagM(1) {
		t.Error("combining access did not raise the M flag")
	}
}

func TestGetAccumulateForcesFallback(t *testing.T) {
	w, sys := newSys(t, 2, 8, func(c *Config) { c.FixedInterval = 1e-9 })
	w.Run(func(r int) {
		p := sys.Process(r)
		p.Gsync() // anchor
		p.Gsync() // coordinated checkpoint
		if r == 0 {
			p.GetAccumulate(1, 0, []uint64{5}, rma.OpSum)
			p.Flush(1)
		}
	})
	w.Kill(1)
	res, err := sys.Recover(1)
	if err != ErrFallback || !res.FellBack {
		t.Fatalf("expected fallback for combining access, got %v", err)
	}
	if got := w.Proc(1).ReadAt(0, 1)[0]; got != 0 {
		t.Errorf("cell = %d, want the checkpointed 0", got)
	}
}
