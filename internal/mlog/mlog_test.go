package mlog

import (
	"testing"

	"repro/internal/rma"
)

func newSys(t *testing.T, n, words int, cfg Config) (*rma.World, *System) {
	t.Helper()
	w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
	s, err := NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestConfigRejected(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 4})
	if _, err := NewSystem(w, Config{RanksPerLogger: 0}); err == nil {
		t.Error("accepted zero ranks per logger")
	}
}

// records collects, logger by logger, the records captured for source rank
// src, or for every source when src < 0.
func records(s *System, src int) []Record {
	var out []Record
	for _, lg := range s.loggers {
		for _, rec := range lg.log {
			if src < 0 || rec.Src == src {
				out = append(out, rec)
			}
		}
	}
	return out
}

func TestPutsRecorded(t *testing.T) {
	w, s := newSys(t, 2, 8, Config{RanksPerLogger: 2})
	w.Run(func(r int) {
		if r == 0 {
			p := s.Process(0)
			p.Put(1, 0, []uint64{1, 2})
			p.PutValue(1, 2, 3)
			p.Flush(1)
		}
	})
	recs := records(s, 0)
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].Kind != "put" || len(recs[0].Data) != 2 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	// Semantics unchanged: data arrived.
	if got := w.Proc(1).ReadAt(2, 1)[0]; got != 3 {
		t.Errorf("window = %d, want 3", got)
	}
}

func TestGetLoggingToggle(t *testing.T) {
	for _, logGets := range []bool{false, true} {
		w, s := newSys(t, 2, 8, Config{RanksPerLogger: 2, LogGets: logGets})
		w.Run(func(r int) {
			if r == 0 {
				p := s.Process(0)
				p.GetBlocking(1, 0, 2)
			}
		})
		want := 0
		if logGets {
			want = 1
		}
		if got := len(records(s, -1)); got != want {
			t.Errorf("logGets=%v: %d records, want %d", logGets, got, want)
		}
	}
}

func TestAtomicsRecorded(t *testing.T) {
	w, s := newSys(t, 2, 8, Config{RanksPerLogger: 1, LogGets: true})
	w.Run(func(r int) {
		if r == 0 {
			p := s.Process(0)
			p.CompareAndSwap(1, 0, 0, 5)
			p.FetchAndOp(1, 0, 2, rma.OpSum)
		}
	})
	// Each atomic: one put-side and one get-side record.
	if got := len(records(s, -1)); got != 4 {
		t.Errorf("%d records, want 4", got)
	}
}

func TestLoggingCostsTime(t *testing.T) {
	runPut := func(logged bool) float64 {
		w := rma.NewWorld(rma.Config{N: 2, WindowWords: 1 << 12})
		var api rma.API = w.Proc(0)
		if logged {
			s, err := NewSystem(w, Config{RanksPerLogger: 2})
			if err != nil {
				t.Fatal(err)
			}
			api = s.Process(0)
		}
		w.Run(func(r int) {
			if r == 0 {
				for i := 0; i < 50; i++ {
					api.Put(1, 0, make([]uint64, 256))
					api.Flush(1)
				}
			}
		})
		return w.Proc(0).Now()
	}
	plain := runPut(false)
	logged := runPut(true)
	if logged <= plain {
		t.Errorf("ML logging added no cost: %g vs %g", logged, plain)
	}
}

func TestLoggerSharding(t *testing.T) {
	w, s := newSys(t, 4, 8, Config{RanksPerLogger: 2})
	if len(s.loggers) != 2 {
		t.Fatalf("%d loggers, want 2", len(s.loggers))
	}
	w.Run(func(r int) {
		p := s.Process(r)
		p.PutValue((r+1)%4, 0, 1)
		p.Flush((r + 1) % 4)
	})
	// Ranks 0,1 share logger 0; ranks 2,3 share logger 1.
	l0, l1 := 0, 0
	for _, rec := range append(records(s, 0), records(s, 1)...) {
		if rec.Src/2 == 0 {
			l0++
		}
	}
	for _, rec := range append(records(s, 2), records(s, 3)...) {
		if rec.Src/2 == 1 {
			l1++
		}
	}
	if l0 != 2 || l1 != 2 {
		t.Errorf("sharding counts = %d, %d; want 2, 2", l0, l1)
	}
}
