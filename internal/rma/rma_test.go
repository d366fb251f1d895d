package rma

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

func newTestWorld(n, words int) *World {
	return NewWorld(Config{N: n, WindowWords: words})
}

func TestPutVisibleAfterFlushOnly(t *testing.T) {
	w := newTestWorld(2, 16)
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 0 {
			p.Put(1, 3, []uint64{42})
			// Relaxed consistency: not visible before the epoch closes.
			if got := w.Proc(1).ReadAt(3, 1)[0]; got != 0 {
				t.Errorf("put visible before flush: %d", got)
			}
			p.Flush(1)
			if got := w.Proc(1).ReadAt(3, 1)[0]; got != 42 {
				t.Errorf("put not visible after flush: %d", got)
			}
		}
	})
}

func TestPutCopiesSourceBuffer(t *testing.T) {
	// The source buffer may be reused after issuing; the runtime must have
	// copied it (MPI would not guarantee this, we do — documented).
	w := newTestWorld(2, 8)
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 0 {
			buf := []uint64{7}
			p.Put(1, 0, buf)
			buf[0] = 99
			p.Flush(1)
			if got := w.Proc(1).ReadAt(0, 1)[0]; got != 7 {
				t.Errorf("put delivered %d, want the issue-time value 7", got)
			}
		}
	})
}

func TestGetFilledAtEpochClose(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Proc(1).WriteAt(5, []uint64{1234})
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 0 {
			dest := p.Get(1, 5, 1)
			if dest[0] != 0 {
				t.Error("get destination filled before epoch close")
			}
			p.Flush(1)
			if dest[0] != 1234 {
				t.Errorf("get returned %d, want 1234", dest[0])
			}
		}
	})
}

func TestGetBlocking(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Proc(1).WriteAt(2, []uint64{77})
	w.Run(func(r int) {
		if r == 0 {
			got := w.Proc(0).GetBlocking(1, 2, 1)
			if got[0] != 77 {
				t.Errorf("blocking get = %d, want 77", got[0])
			}
		}
	})
}

func TestAccumulateSum(t *testing.T) {
	w := newTestWorld(3, 8)
	w.Run(func(r int) {
		p := w.Proc(r)
		if r != 2 {
			p.Accumulate(2, 0, []uint64{10}, OpSum)
			p.Flush(2)
		}
		p.Barrier()
		if r == 2 {
			if got := p.ReadAt(0, 1)[0]; got != 20 {
				t.Errorf("accumulated %d, want 20", got)
			}
		}
	})
}

func TestAccumulateOps(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Proc(1).WriteAt(0, []uint64{5, 5, 5, 0b1100})
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		p.Accumulate(1, 0, []uint64{3}, OpMax)
		p.Accumulate(1, 1, []uint64{3}, OpMin)
		p.Accumulate(1, 2, []uint64{3}, OpReplace)
		p.Accumulate(1, 3, []uint64{0b1010}, OpXor)
		p.Flush(1)
		loc := w.Proc(1).ReadAt(0, 4)
		if loc[0] != 5 || loc[1] != 3 || loc[2] != 3 || loc[3] != 0b0110 {
			t.Errorf("accumulate results = %v", loc[:4])
		}
	})
}

func TestEpochCountsPerTarget(t *testing.T) {
	w := newTestWorld(3, 8)
	p := w.Proc(0)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		if p.Epoch(1) != 0 || p.Epoch(2) != 0 {
			t.Error("fresh epochs not zero")
		}
		p.Put(1, 0, []uint64{1})
		p.Flush(1)
		p.Flush(1)
		if p.Epoch(1) != 2 || p.Epoch(2) != 0 {
			t.Errorf("epochs = %d,%d; want 2,0", p.Epoch(1), p.Epoch(2))
		}
		p.FlushAll()
		if p.Epoch(1) != 3 || p.Epoch(2) != 1 {
			t.Errorf("after FlushAll epochs = %d,%d; want 3,1", p.Epoch(1), p.Epoch(2))
		}
	})
}

func TestGsyncIncrementsAllEpochsAndSyncs(t *testing.T) {
	w := newTestWorld(4, 8)
	w.Run(func(r int) {
		p := w.Proc(r)
		p.PutValue((r+1)%4, 0, uint64(r+1))
		p.Gsync()
		// After gsync every epoch advanced and all puts are visible.
		for q := 0; q < 4; q++ {
			if p.Epoch(q) != 1 {
				t.Errorf("rank %d epoch(%d) = %d, want 1", r, q, p.Epoch(q))
			}
		}
		want := uint64((r+3)%4 + 1)
		if got := p.ReadAt(0, 1)[0]; got != want {
			t.Errorf("rank %d saw %d, want %d", r, got, want)
		}
	})
}

func TestCASAndFAO(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		if prev := p.CompareAndSwap(1, 0, 0, 9); prev != 0 {
			t.Errorf("CAS prev = %d, want 0", prev)
		}
		if prev := p.CompareAndSwap(1, 0, 0, 11); prev != 9 {
			t.Errorf("failed CAS prev = %d, want 9", prev)
		}
		if got := w.Proc(1).ReadAt(0, 1)[0]; got != 9 {
			t.Errorf("CAS result = %d, want 9", got)
		}
		if prev := p.FetchAndOp(1, 1, 5, OpSum); prev != 0 {
			t.Errorf("FAO prev = %d, want 0", prev)
		}
		if prev := p.FetchAndOp(1, 1, 5, OpSum); prev != 5 {
			t.Errorf("FAO prev = %d, want 5", prev)
		}
	})
}

func TestFAOConcurrentAtomicity(t *testing.T) {
	// All ranks increment one counter; the total must be exact.
	const n, per = 8, 200
	w := newTestWorld(n, 4)
	w.Run(func(r int) {
		p := w.Proc(r)
		for i := 0; i < per; i++ {
			p.FetchAndOp(0, 0, 1, OpSum)
		}
		p.Barrier()
		if got := p.world.Proc(0).ReadAt(0, 1)[0]; got != n*per {
			t.Errorf("rank %d sees counter %d, want %d", r, got, n*per)
		}
	})
}

func TestLockMutualExclusion(t *testing.T) {
	const n, per = 6, 100
	w := newTestWorld(n, 4)
	w.Run(func(r int) {
		p := w.Proc(r)
		for i := 0; i < per; i++ {
			p.Lock(0, StrWindow)
			// Non-atomic read-modify-write protected by the lock.
			v := w.Proc(0).ReadAt(0, 1)[0]
			w.Proc(0).world.windows[0].applyPut(0, []uint64{v + 1})
			p.Unlock(0, StrWindow)
		}
	})
	if got := w.Proc(0).ReadAt(0, 1)[0]; got != n*per {
		t.Errorf("counter = %d, want %d", got, n*per)
	}
}

func TestLockAdvancesVirtualTime(t *testing.T) {
	w := newTestWorld(2, 4)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		before := p.Now()
		p.Lock(1, StrWindow)
		if p.Now() <= before {
			t.Error("lock did not advance the clock")
		}
		p.Unlock(1, StrWindow)
	})
}

func TestUnlockClosesEpoch(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		p.Lock(1, StrWindow)
		p.Put(1, 0, []uint64{5})
		e := p.Epoch(1)
		p.Unlock(1, StrWindow)
		if p.Epoch(1) != e+1 {
			t.Error("unlock did not close the epoch")
		}
		if got := w.Proc(1).ReadAt(0, 1)[0]; got != 5 {
			t.Error("unlock did not apply pending put")
		}
	})
}

func TestComputeAndVirtualTime(t *testing.T) {
	w := NewWorld(Config{N: 1, WindowWords: 1, Params: sim.Params{
		FlopRate: 100, NetLatency: 1, NetBW: 8, OpOverhead: 0,
	}})
	w.Run(func(r int) {
		p := w.Proc(0)
		p.Compute(200) // 2 s at 100 flop/s
		if p.Now() != 2 {
			t.Errorf("clock = %g, want 2", p.Now())
		}
	})
}

func TestVirtualTimePutFlush(t *testing.T) {
	params := sim.DefaultParams()
	w := NewWorld(Config{N: 2, WindowWords: 1 << 16, Params: params})
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		p.Put(1, 0, make([]uint64, 1<<10)) // 8 KiB
		afterPut := p.Now()
		if afterPut < params.InjectTime(8<<10) {
			t.Error("put did not charge injection time")
		}
		p.Flush(1)
		if p.Now() < afterPut+params.NetLatency {
			t.Error("flush did not charge completion latency")
		}
	})
}

func TestBarrierResolvesMaxTime(t *testing.T) {
	w := newTestWorld(3, 4)
	w.Run(func(r int) {
		p := w.Proc(r)
		p.Compute(float64(r) * 2e9) // ranks finish at 0s, 1s, 2s
		p.Barrier()
		if p.Now() < 2.0 {
			t.Errorf("rank %d released at %g, want >= 2", r, p.Now())
		}
	})
}

func TestKillLosesMemoryAndUnwinds(t *testing.T) {
	w := newTestWorld(3, 8)
	w.Proc(2).WriteAt(0, []uint64{555})
	var mu sync.Mutex
	reached := map[int]bool{}
	w.Run(func(r int) {
		p := w.Proc(r)
		p.Barrier()
		if r == 0 {
			w.Kill(2)
		}
		// Rank 2 unwinds at its next call; others proceed.
		p.Barrier()
		mu.Lock()
		reached[r] = true
		mu.Unlock()
	})
	if !reached[0] || !reached[1] || reached[2] {
		t.Fatalf("reached = %v", reached)
	}
	if w.Alive(2) {
		t.Fatal("rank 2 still alive after kill")
	}
	if got := w.windows[2].words[0]; got != 0 {
		t.Fatalf("dead rank's memory survived: %d", got)
	}
}

func TestAccessToDeadTargetPanics(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Kill(1)
	defer func() {
		if _, ok := recover().(TargetFailedError); !ok {
			t.Fatal("expected TargetFailedError")
		}
	}()
	w.Run(func(r int) {
		w.Proc(r).PutValue(1, 0, 1)
		w.Proc(r).Flush(1)
	})
}

func TestKillReleasesHeldLocks(t *testing.T) {
	w := newTestWorld(2, 8)
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 1 {
			p.Lock(0, StrWindow)
			w.Kill(1)
			p.Barrier() // unwinds here; the lock must have been released
		} else {
			// Wait until rank 1 is dead, then take the lock.
			for w.Alive(1) {
			}
			p.Lock(0, StrWindow)
			p.Unlock(0, StrWindow)
		}
	})
}

func TestRespawnJoinsCollectives(t *testing.T) {
	w := newTestWorld(3, 8)
	w.Kill(1)
	w.Run(func(r int) {
		w.Proc(r).Compute(1e9)
	})
	p := w.Respawn(1)
	if !w.Alive(1) {
		t.Fatal("respawned rank not alive")
	}
	if p.Now() == 0 {
		t.Fatal("respawned rank's clock not advanced to survivors' time")
	}
	// All three participate in collectives again.
	w.Run(func(r int) {
		w.Proc(r).Barrier()
		w.Proc(r).Gsync()
	})
}

func TestRespawnLiveRankPanics(t *testing.T) {
	w := newTestWorld(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("respawn of live rank did not panic")
		}
	}()
	w.Respawn(0)
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	w := newTestWorld(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	w.Run(func(r int) {
		if r == 0 {
			p := w.Proc(0)
			p.Put(1, 3, []uint64{1, 2, 3})
			p.Flush(1)
		}
	})
}

type recordingTracer struct {
	mu   sync.Mutex
	acts []TraceAction
}

func (rt *recordingTracer) OnAction(a TraceAction) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.acts = append(rt.acts, a)
}

func TestTracerObservesActions(t *testing.T) {
	w := newTestWorld(2, 8)
	rt := &recordingTracer{}
	w.SetTracer(rt)
	w.Run(func(r int) {
		if r == 0 {
			p := w.Proc(0)
			p.PutValue(1, 0, 1)
			p.Flush(1)
		}
	})
	w.SetTracer(nil)
	kinds := map[string]int{}
	for _, a := range rt.acts {
		kinds[a.Kind]++
	}
	if kinds["put"] != 1 || kinds["flush"] != 1 {
		t.Fatalf("traced kinds = %v", kinds)
	}
}

func TestPendingToAndDroppedOnDeadTarget(t *testing.T) {
	w := newTestWorld(3, 8)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := w.Proc(0)
		p.PutValue(1, 0, 1)
		if len(p.pending[1]) != 1 {
			t.Error("pending op not buffered")
		}
		w.Kill(1)
		p.FlushAll() // must drop, not apply, the pending op
		if len(p.pending[1]) != 0 {
			t.Error("pending op to dead rank not dropped")
		}
	})
}
