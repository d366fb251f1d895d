package ftrma

// Concurrency audit of the log store under a concurrent remote
// recovery-fetch: on the fabric, a recovery's copyLP/copyLG snapshots run
// on frame-handler goroutines while the surviving rank keeps appending,
// trimming, and compacting the same store. These tests hammer every
// mutating path against the fetch paths and validate (a) under -race,
// that the byte counters, per-peer aggregates, and slab arenas are
// data-race free, and (b) functionally,
// that materialized payloads are never torn by a concurrent trim, clear,
// or slab compaction (each record's payload is self-describing and must
// come out intact).

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rma"
)

// stampedRecord builds a record whose payload words all equal a function
// of its counters — a torn or misdirected payload is detectable.
func stampedRecord(peer, seq int) LogRecord {
	v := uint64(peer)<<32 | uint64(seq)
	data := make([]uint64, 1+seq%7)
	for i := range data {
		data[i] = v
	}
	return LogRecord{
		Kind: LogPut, Src: 0, Trg: peer, Off: seq, Data: data,
		LocalOff: -1, Op: rma.OpSum, Combine: seq%3 == 0,
		EC: seq, GC: seq, SC: 0, GNC: seq / 8,
	}
}

func checkFetched(t *testing.T, recs []LogRecord) {
	t.Helper()
	for _, r := range recs {
		want := uint64(r.Trg)<<32 | uint64(r.EC)
		for i, w := range r.Data {
			if w != want {
				t.Errorf("torn payload: record (peer %d, seq %d) word %d = %#x, want %#x",
					r.Trg, r.EC, i, w, want)
				return
			}
		}
	}
}

// TestLogStoreConcurrentRecoveryFetch runs appenders, trimmers, and a
// compaction-heavy clear loop against concurrent recovery fetches and
// largestPeer scans.
func TestLogStoreConcurrentRecoveryFetch(t *testing.T) {
	s := newLogStore(logTuning{slabWords: 128, segRecords: 8, compactRatio: 0.75})
	const peers = 4
	const rounds = 400
	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	// Appenders: one per peer, LP and LG interleaved.
	for p := 0; p < peers; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			for seq := 0; seq < rounds; seq++ {
				s.AppendLP(p, stampedRecord(p, seq))
				s.AppendLG(p, stampedRecord(p, seq))
			}
		}(p)
	}
	// Trimmers: advance the covered watermarks, forcing segment drops,
	// straddling-segment filters, M-flag recomputes, and compaction.
	for p := 0; p < peers; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			for ec := 0; ec < rounds; ec += 16 {
				s.TrimLP(p, ec)
				s.TrimLG(p, ec/8, ec)
			}
		}(p)
	}
	// Recovery fetches: materialize snapshots and validate integrity
	// while the writers run.
	for p := 0; p < peers; p++ {
		readers.Add(1)
		go func(p int) {
			defer readers.Done()
			for !stop.Load() {
				checkFetched(t, s.CopyLP(p))
				checkFetched(t, s.CopyLG(p))
			}
		}(p)
	}
	// Demand-checkpoint victim scans and budget/flag reads.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			s.largestPeer()
			s.Bytes()
			s.FlagM(1)
			s.setN(2, true)
			s.FlagN(2)
		}
	}()

	writers.Wait()
	stop.Store(true)
	readers.Wait()

	// Quiet-point invariant: the incremental byte counters equal a full
	// recount, and a final fetch is intact.
	if got, want := s.Bytes(), s.liveFootprint(); got != want {
		t.Fatalf("byte accounting diverged under concurrency: bytes()=%d, recount=%d", got, want)
	}
	for p := 0; p < peers; p++ {
		checkFetched(t, s.CopyLP(p))
		checkFetched(t, s.CopyLG(p))
	}
	if freed := s.clear(); freed < 0 {
		t.Fatalf("clear freed negative bytes: %d", freed)
	}
	if s.Bytes() != 0 || s.liveFootprint() != 0 {
		t.Fatalf("store not empty after clear: %d/%d", s.Bytes(), s.liveFootprint())
	}
}
