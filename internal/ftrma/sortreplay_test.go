package ftrma

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortReplayStableOrder pins ReplayOrder, the Theorem-4.2 replay order: puts
// lexicographic by (GNC, SC, EC), gets by (GNC, GC), each sort stable —
// records the counters do not order (||co accesses) must keep the fetch
// order, which is what makes replay access-deterministic. The fabric's
// install ships exactly this order over the wire, so the property is
// load-bearing across processes, not just in-process recovery.
func TestSortReplayStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	// Puts: every (GNC, SC, EC) combination from a small cube, plus for
	// one key three tied records distinguished only by Src, in a known
	// fetch order.
	var puts []LogRecord
	for gnc := 0; gnc < 3; gnc++ {
		for sc := 0; sc < 3; sc++ {
			for ec := 0; ec < 3; ec++ {
				puts = append(puts, LogRecord{Kind: LogPut, GNC: gnc, SC: sc, EC: ec})
			}
		}
	}
	rng.Shuffle(len(puts), func(i, j int) { puts[i], puts[j] = puts[j], puts[i] })
	for src := 0; src < 3; src++ {
		// Appended last, so after any correct stable sort the tied
		// records appear in Src order 0, 1, 2.
		puts = append(puts, LogRecord{Kind: LogPut, GNC: 1, SC: 1, EC: 1, Src: src, Combine: true})
	}

	var gets []LogRecord
	for gnc := 0; gnc < 3; gnc++ {
		for gc := 0; gc < 3; gc++ {
			gets = append(gets, LogRecord{Kind: LogGet, GNC: gnc, GC: gc})
		}
	}
	rng.Shuffle(len(gets), func(i, j int) { gets[i], gets[j] = gets[j], gets[i] })
	for src := 0; src < 3; src++ {
		gets = append(gets, LogRecord{Kind: LogGet, GNC: 2, GC: 2, Src: src, Combine: true})
	}

	rawPuts, rawGets := slices.Clone(puts), slices.Clone(gets) // fetch order
	l := ReplayOrder(puts, gets, -1)

	putKey := func(r LogRecord) [3]int { return [3]int{r.GNC, r.SC, r.EC} }
	if !sort.SliceIsSorted(l.Puts, func(i, j int) bool {
		a, b := putKey(l.Puts[i]), putKey(l.Puts[j])
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	}) {
		t.Fatal("puts not in (GNC, SC, EC) order")
	}
	if !sort.SliceIsSorted(l.Gets, func(i, j int) bool {
		a, b := l.Gets[i], l.Gets[j]
		if a.GNC != b.GNC {
			return a.GNC < b.GNC
		}
		return a.GC < b.GC
	}) {
		t.Fatal("gets not in (GNC, GC) order")
	}

	// Stability: the tied records (tagged Combine) must surface in the
	// Src order they were fetched in.
	var tiedPuts, tiedGets []int
	for _, r := range l.Puts {
		if r.Combine {
			tiedPuts = append(tiedPuts, r.Src)
		}
	}
	for _, r := range l.Gets {
		if r.Combine {
			tiedGets = append(tiedGets, r.Src)
		}
	}
	for i, s := range tiedPuts {
		if s != i {
			t.Fatalf("tied puts reordered: %v", tiedPuts)
		}
	}
	for i, s := range tiedGets {
		if s != i {
			t.Fatalf("tied gets reordered: %v", tiedGets)
		}
	}

	if want := 27 + 3 + 9 + 3; l.Len() != want {
		t.Fatalf("Len() = %d, want %d", l.Len(), want)
	}
	if l.MaxGNC() != 2 {
		t.Fatalf("MaxGNC() = %d, want 2", l.MaxGNC())
	}
	if empty := ReplayOrder(nil, nil, -1); empty.Len() != 0 || empty.MaxGNC() != -1 {
		t.Fatalf("empty logs: Len %d, MaxGNC %d", empty.Len(), empty.MaxGNC())
	}

	// Selection: from keeps the records with GNC ≥ from, in the same order
	// the unfiltered sort gives them; a negative from keeps everything.
	for _, tc := range []struct{ from, puts, gets int }{
		{-1, 30, 12}, {0, 30, 12}, {1, 21, 9}, {2, 9, 6}, {3, 0, 0},
	} {
		got := ReplayOrder(slices.Clone(rawPuts), slices.Clone(rawGets), tc.from)
		if len(got.Puts) != tc.puts || len(got.Gets) != tc.gets {
			t.Fatalf("from %d: %d puts / %d gets, want %d / %d", tc.from, len(got.Puts), len(got.Gets), tc.puts, tc.gets)
		}
		keep := func(r LogRecord) bool { return tc.from < 0 || r.GNC >= tc.from }
		var wantPuts, wantGets []LogRecord
		for _, r := range l.Puts {
			if keep(r) {
				wantPuts = append(wantPuts, r)
			}
		}
		for _, r := range l.Gets {
			if keep(r) {
				wantGets = append(wantGets, r)
			}
		}
		if !slices.EqualFunc(got.Puts, wantPuts, recordsEqual) || !slices.EqualFunc(got.Gets, wantGets, recordsEqual) {
			t.Fatalf("from %d: selection is not the sorted order's GNC ≥ %d suffix", tc.from, tc.from)
		}
	}
}

func recordsEqual(a, b LogRecord) bool {
	return a.GNC == b.GNC && a.SC == b.SC && a.EC == b.EC && a.GC == b.GC && a.Src == b.Src && a.Combine == b.Combine
}
