package ftrma

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rma"
)

// TestTrimLGEqualCounters pins the §6.2 boundary semantics: a get record
// whose (GNC, GC) equals the checkpoint snapshot is NOT covered (only
// records lexicographically strictly below the snapshot are), while a
// record with equal GNC and smaller GC is.
func TestTrimLGEqualCounters(t *testing.T) {
	s := newLogStore(tinyTuning())
	s.AppendLG(1, LogRecord{Src: 1, GNC: 3, GC: 4, Data: []uint64{1}}) // < snap in GC
	s.AppendLG(1, LogRecord{Src: 1, GNC: 3, GC: 5, Data: []uint64{2}}) // == snap
	s.AppendLG(1, LogRecord{Src: 1, GNC: 3, GC: 6, Data: []uint64{3}}) // > snap
	s.AppendLG(1, LogRecord{Src: 1, GNC: 2, GC: 9, Data: []uint64{4}}) // GNC below
	s.AppendLG(1, LogRecord{Src: 1, GNC: 4, GC: 0, Data: []uint64{5}}) // GNC above
	freed := s.TrimLG(1, 3, 5)
	if freed != 2*(64+8) {
		t.Errorf("freed %d bytes, want %d", freed, 2*(64+8))
	}
	var got []uint64
	for _, r := range s.CopyLG(1) {
		got = append(got, r.Data[0])
	}
	want := []uint64{2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("surviving payloads %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("surviving payloads %v, want %v", got, want)
		}
	}
}

// TestTrimLPStraddlingSegment builds a log whose covered records straddle a
// segment boundary: the fully covered head segments must be dropped whole
// and the straddling segment filtered in place, with watermarks rebuilt so
// a follow-up trim still drops the now-covered remainder.
func TestTrimLPStraddlingSegment(t *testing.T) {
	s := newLogStore(logTuning{slabWords: 16, segRecords: 4, compactRatio: 0.5})
	// 10 records, ECs 0..9: segments [0-3], [4-7], [8-9].
	for ec := 0; ec < 10; ec++ {
		s.AppendLP(1, LogRecord{Trg: 1, EC: ec, Data: []uint64{uint64(ec)}})
	}
	// Watermark 6 covers segment [0-3] whole and half of [4-7].
	s.TrimLP(1, 6)
	recs := s.CopyLP(1)
	if len(recs) != 4 {
		t.Fatalf("%d records survive, want 4 (EC 6..9)", len(recs))
	}
	for i, r := range recs {
		if r.EC != 6+i || r.Data[0] != uint64(6+i) {
			t.Fatalf("record %d = EC %d data %v", i, r.EC, r.Data)
		}
	}
	if s.Bytes() != s.liveFootprint() {
		t.Errorf("byte accounting broken after straddling trim")
	}
	// The filtered segment's watermark must now reflect only survivors:
	// trimming at 10 must drop everything, including the filtered segment.
	if s.TrimLP(1, 10); len(s.CopyLP(1)) != 0 {
		t.Error("follow-up trim left records behind")
	}
	if s.Bytes() != 0 {
		t.Errorf("bytes() = %d after dropping everything", s.Bytes())
	}
}

// TestTrimRecomputesMFlagAcrossSegments checks M-flag recomputation when
// the only combining record sits in a dropped segment (flag must fall) or
// in a surviving one (flag must hold) — across segment boundaries.
func TestTrimRecomputesMFlagAcrossSegments(t *testing.T) {
	s := newLogStore(logTuning{slabWords: 16, segRecords: 2, compactRatio: 0.5})
	s.AppendLP(1, LogRecord{Trg: 1, EC: 0, Combine: true, Op: rma.OpSum, Data: []uint64{1}})
	s.AppendLP(1, LogRecord{Trg: 1, EC: 1, Data: []uint64{2}})
	s.AppendLP(1, LogRecord{Trg: 1, EC: 2, Data: []uint64{3}})
	if !s.FlagM(1) {
		t.Fatal("M flag not raised by combining append")
	}
	// EC 0 (the only combining record, in the first segment) is covered.
	s.TrimLP(1, 1)
	if s.FlagM(1) {
		t.Error("M flag survives although the combining record was trimmed")
	}
	s.AppendLP(1, LogRecord{Trg: 1, EC: 5, Combine: true, Op: rma.OpSum, Data: []uint64{4}})
	s.TrimLP(1, 3) // drops EC 1..2, keeps the combining EC 5
	if !s.FlagM(1) {
		t.Error("M flag lost although a combining record survives")
	}
}

// TestSortReplayCausalOrder is the Theorem 4.2 property test: for random
// record sets, ReplayOrder must emit puts so that every cohb edge introduced
// by gsyncs (smaller GNC first) and every so edge introduced by locks
// (same GNC, smaller SC first) is respected, with epochs (EC) ordering
// records within a lock phase; gets are ordered by (GNC, GC). Records not
// ordered by cohb/so (equal keys) must keep their fetch order (stability:
// an arbitrary but deterministic ||co order).
func TestSortReplayCausalOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		puts := make([]LogRecord, n)
		gets := make([]LogRecord, n)
		for i := range puts {
			puts[i] = LogRecord{
				Kind: LogPut, GNC: rng.Intn(4), SC: rng.Intn(4), EC: rng.Intn(4),
				Off: i, // unique tag to identify records after sorting
			}
			gets[i] = LogRecord{
				Kind: LogGet, GNC: rng.Intn(4), GC: rng.Intn(4), Off: i,
			}
		}
		orig := append([]LogRecord(nil), puts...)
		origGets := append([]LogRecord(nil), gets...)
		l := ReplayOrder(puts, gets, -1)

		putKey := func(r LogRecord) [3]int { return [3]int{r.GNC, r.SC, r.EC} }
		getKey := func(r LogRecord) [3]int { return [3]int{r.GNC, r.GC, 0} }
		less := func(a, b [3]int) bool {
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			if a[1] != b[1] {
				return a[1] < b[1]
			}
			return a[2] < b[2]
		}
		// Sorted: no later record's key precedes an earlier one's.
		for i := 1; i < n; i++ {
			if less(putKey(l.Puts[i]), putKey(l.Puts[i-1])) {
				return false
			}
			if less(getKey(l.Gets[i]), getKey(l.Gets[i-1])) {
				return false
			}
		}
		// Stability: equal-key (||co) records keep their fetch order, and
		// the output is a permutation of the input.
		if !stableMatches(orig, l.Puts, putKey) || !stableMatches(origGets, l.Gets, getKey) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// stableMatches checks that sorted is exactly the stable sort of orig under
// key: a permutation where equal-key elements preserve input order.
func stableMatches(orig, sorted []LogRecord, key func(LogRecord) [3]int) bool {
	want := append([]LogRecord(nil), orig...)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := key(want[i]), key(want[j])
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	if len(want) != len(sorted) {
		return false
	}
	for i := range want {
		if want[i].Off != sorted[i].Off {
			return false
		}
	}
	return true
}

// TestAppendSteadyStateZeroAlloc asserts the tentpole's allocation contract:
// once slabs and segments have been warmed up and recycle through trims, the
// per-record append path allocates nothing.
func TestAppendSteadyStateZeroAlloc(t *testing.T) {
	s := newLogStore(Config{}.logTuning())
	payload := make([]uint64, 8)
	ec := 0
	// Warm up: fill and trim once so the freelists hold a full cycle's
	// slabs and segments.
	for i := 0; i < 2048; i++ {
		s.AppendLP(1, LogRecord{Trg: 1, EC: ec, Data: payload})
		ec++
	}
	s.TrimLP(1, ec)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 2048; i++ {
			s.AppendLP(1, LogRecord{Trg: 1, EC: ec, Data: payload})
			ec++
		}
		s.TrimLP(1, ec)
	})
	if allocs != 0 {
		t.Fatalf("steady-state append/trim cycle allocates %.1f times per 2048 records, want 0", allocs)
	}
}

// TestAppendLGSteadyStateZeroAlloc is the get-log counterpart.
func TestAppendLGSteadyStateZeroAlloc(t *testing.T) {
	s := newLogStore(Config{}.logTuning())
	payload := make([]uint64, 8)
	gnc := 0
	for i := 0; i < 2048; i++ {
		s.AppendLG(2, LogRecord{Src: 2, GNC: gnc, Data: payload})
		gnc++
	}
	s.TrimLG(2, gnc, 0)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 2048; i++ {
			s.AppendLG(2, LogRecord{Src: 2, GNC: gnc, Data: payload})
			gnc++
		}
		s.TrimLG(2, gnc, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state LG append/trim cycle allocates %.1f times per 2048 records, want 0", allocs)
	}
}

// TestCompactionReclaimsDeadSlabs checks the arena live-ratio trigger: after
// trimming most records, the arena must shrink its allocated word count to
// (near) the live payload volume, and surviving payloads must be intact.
func TestCompactionReclaimsDeadSlabs(t *testing.T) {
	s := newLogStore(logTuning{slabWords: 64, segRecords: 8, compactRatio: 0.5})
	for ec := 0; ec < 256; ec++ {
		s.AppendLP(1, LogRecord{Trg: 1, EC: ec, Data: []uint64{uint64(ec), ^uint64(ec)}})
	}
	s.mu.Lock()
	usedBefore := s.arena.used
	s.mu.Unlock()
	s.TrimLP(1, 250) // 6 survivors out of 256
	s.mu.Lock()
	live, used := s.arena.live, s.arena.used
	s.mu.Unlock()
	if live != 12 {
		t.Fatalf("live = %d words, want 12", live)
	}
	if used >= usedBefore/4 {
		t.Errorf("compaction left used = %d words (before: %d)", used, usedBefore)
	}
	for i, r := range s.CopyLP(1) {
		ec := uint64(250 + i)
		if r.Data[0] != ec || r.Data[1] != ^ec {
			t.Fatalf("survivor %d corrupted after compaction: %v", i, r.Data)
		}
	}
}

// TestBulkCycleRewritesNothing: the fabric's bulk shape — three 4096-word
// puts per phase to one peer, each filling a slab of the fabric's 4096-word
// arena, trimmed two phases back — frees every trimmed slab as its record
// goes, so the live ratio never falls and compaction never copies a word.
func TestBulkCycleRewritesNothing(t *testing.T) {
	s := NewLocalLogHost(4096, 128, 0.5)
	data := make([]uint64, 4096)
	for p := 0; p < 100; p++ {
		for k := 0; k < 3; k++ {
			data[0] = uint64(3*p + k)
			s.AppendLP(1, LogRecord{Trg: 1, EC: p, GNC: p, Data: data})
		}
		s.TrimLP(1, p-1)
	}
	s.mu.Lock()
	copied, live, used, slabs := s.arena.copied, s.arena.live, s.arena.used, len(s.arena.slabs)
	s.mu.Unlock()
	if copied != 0 {
		t.Errorf("compaction rewrote %d payload words, want 0", copied)
	}
	if live != 2*3*4096 || used != live || slabs != 6 {
		t.Errorf("the arena holds %d slabs, %d words used and %d live, want 6 slabs of two phases' records, all live", slabs, used, live)
	}
	recs := s.CopyLP(1)
	if len(recs) != 6 || recs[0].Data[0] != 3*98 || recs[5].Data[0] != 3*99+2 {
		t.Fatalf("the log keeps %d records, want the last two phases' six", len(recs))
	}
}
