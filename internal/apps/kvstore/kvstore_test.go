package kvstore

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ftrma"
	"repro/internal/mlog"
	"repro/internal/rma"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{TableSlots: 8, HeapCells: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{TableSlots: 0}).Validate() == nil {
		t.Error("accepted zero slots")
	}
	if (Config{TableSlots: 1, HeapCells: -1}).Validate() == nil {
		t.Error("accepted negative heap")
	}
}

func TestInsertAndLookup(t *testing.T) {
	cfg := Config{TableSlots: 64, HeapCells: 64}
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: cfg.WindowWords()})
	w.Run(func(r int) {
		s, err := New(w.Proc(r), cfg, int64(r))
		if err != nil {
			t.Error(err)
			return
		}
		base := uint64(r*1000 + 1)
		for i := uint64(0); i < 50; i++ {
			if !s.Insert(base + i) {
				t.Errorf("insert %d failed", base+i)
			}
		}
		w.Proc(r).Barrier()
		for i := uint64(0); i < 50; i++ {
			if !s.Lookup(base + i) {
				t.Errorf("rank %d: key %d not found", r, base+i)
			}
		}
		if s.Lookup(999999999) {
			t.Error("found a key never inserted")
		}
	})
}

func TestConcurrentInsertsAllFound(t *testing.T) {
	// All ranks hammer the same small table: heavy collisions, overflow
	// heap usage, and still no lost keys (atomicity of CAS/FAO).
	cfg := Config{TableSlots: 16, HeapCells: 4096}
	const n, per = 8, 100
	w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
	var mu sync.Mutex
	inserted := map[uint64]bool{}
	stores := make([]*Store, n)
	w.Run(func(r int) {
		s, err := New(w.Proc(r), cfg, int64(r))
		if err != nil {
			t.Error(err)
			return
		}
		stores[r] = s
		for i := 0; i < per; i++ {
			k := uint64(r*per + i + 1)
			if s.Insert(k) {
				mu.Lock()
				inserted[k] = true
				mu.Unlock()
			}
		}
	})
	if len(inserted) != n*per {
		t.Fatalf("inserted %d keys, want %d", len(inserted), n*per)
	}
	collisions := 0
	for _, s := range stores {
		collisions += s.Collisions
	}
	if collisions == 0 {
		t.Error("tiny table produced no collisions")
	}
	// Verify every key from one verifier rank.
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		s, _ := New(w.Proc(0), cfg, 0)
		for k := range inserted {
			if !s.Lookup(k) {
				t.Errorf("key %d lost", k)
			}
		}
	})
}

func TestHeapExhaustion(t *testing.T) {
	cfg := Config{TableSlots: 1, HeapCells: 3}
	w := rma.NewWorld(rma.Config{N: 1, WindowWords: cfg.WindowWords()})
	w.Run(func(r int) {
		s, err := New(w.Proc(0), cfg, 1)
		if err != nil {
			t.Error(err)
			return
		}
		okCount := 0
		for k := uint64(1); k <= 10; k++ {
			if s.Insert(k) {
				okCount++
			}
		}
		// 1 table slot + 3 heap cells.
		if okCount != 4 {
			t.Errorf("accepted %d inserts, want 4", okCount)
		}
		if s.Failed != 6 {
			t.Errorf("failed = %d, want 6", s.Failed)
		}
	})
}

func TestInsertZeroKeyPanics(t *testing.T) {
	cfg := Config{TableSlots: 4, HeapCells: 4}
	w := rma.NewWorld(rma.Config{N: 1, WindowWords: cfg.WindowWords()})
	defer func() {
		if recover() == nil {
			t.Fatal("zero key accepted")
		}
	}()
	w.Run(func(r int) {
		s, _ := New(w.Proc(0), cfg, 1)
		s.Insert(0)
	})
}

func TestInsertLookupProperty(t *testing.T) {
	cfg := Config{TableSlots: 32, HeapCells: 256}
	prop := func(keysRaw []uint32) bool {
		w := rma.NewWorld(rma.Config{N: 2, WindowWords: cfg.WindowWords()})
		ok := true
		w.Run(func(r int) {
			if r != 0 {
				return
			}
			s, err := New(w.Proc(0), cfg, 7)
			if err != nil {
				ok = false
				return
			}
			seen := map[uint64]bool{}
			for _, kr := range keysRaw {
				k := uint64(kr) + 1
				if seen[k] {
					continue
				}
				seen[k] = true
				if !s.Insert(k) {
					continue // heap full is legal
				}
				if !s.Lookup(k) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestThinkTimeAdvancesClock(t *testing.T) {
	cfg := Config{TableSlots: 64, HeapCells: 64, ThinkScale: 1e-3, ThinkRate: 2}
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: cfg.WindowWords()})
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		s, _ := New(w.Proc(0), cfg, 3)
		before := w.Proc(0).Now()
		for k := uint64(1); k <= 20; k++ {
			s.Insert(k)
		}
		// 20 inserts of ~0.5ms mean think time must dominate the clock.
		if w.Proc(0).Now()-before < 20*1e-4 {
			t.Errorf("think time too small: %g", w.Proc(0).Now()-before)
		}
	})
}

func TestLoggingOverheadOrdering(t *testing.T) {
	// Fig. 11c sanity at small scale: no-FT < f-puts < f-puts-gets < ML
	// in virtual insert time. To keep the measurement deterministic each
	// rank inserts keys homed at a private target (no lock contention)
	// and gets a private logger.
	cfg := Config{TableSlots: 256, HeapCells: 256}
	const n, per = 4, 64
	// keysFor[r] are keys owned by rank (r+1)%n.
	keysFor := make([][]uint64, n)
	probe, _ := New(rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()}).Proc(0), cfg, 0)
	for k := uint64(1); ; k++ {
		owner := probe.owner(k)
		r := (owner + n - 1) % n
		if len(keysFor[r]) < per {
			keysFor[r] = append(keysFor[r], k)
		}
		done := true
		for _, ks := range keysFor {
			if len(ks) < per {
				done = false
			}
		}
		if done {
			break
		}
	}
	run := func(kind string) float64 {
		w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
		var apiFor func(r int) rma.FullAPI
		switch kind {
		case "noft":
			apiFor = func(r int) rma.FullAPI { return w.Proc(r) }
		case "fputs", "fputsgets":
			sys, err := ftrma.NewSystem(w, ftrma.Config{
				Groups: 1, ChecksumsPerGroup: 1,
				Log: ftrma.LogConfig{Puts: true, Gets: kind == "fputsgets"},
			})
			if err != nil {
				t.Fatal(err)
			}
			apiFor = func(r int) rma.FullAPI { return sys.Process(r) }
		case "ml":
			sys, err := mlog.NewSystem(w, mlog.Config{RanksPerLogger: 1, LogGets: true})
			if err != nil {
				t.Fatal(err)
			}
			apiFor = func(r int) rma.FullAPI { return sys.Process(r) }
		}
		w.Run(func(r int) {
			s, err := New(apiFor(r), cfg, int64(r))
			if err != nil {
				t.Error(err)
				return
			}
			for _, k := range keysFor[r] {
				s.Insert(k)
			}
		})
		return w.MaxTime()
	}
	noft := run("noft")
	fputs := run("fputs")
	fboth := run("fputsgets")
	ml := run("ml")
	if !(noft < fputs && fputs < fboth && fboth < ml) {
		t.Errorf("ordering violated: noft=%g fputs=%g fputsgets=%g ml=%g", noft, fputs, fboth, ml)
	}
}
