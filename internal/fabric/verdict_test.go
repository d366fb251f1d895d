package fabric

// Tests of the fabric's use of the recovery rule: the arbiter orders an
// install once and the replacement keeps that order, and a crash that
// ftrma.Classify does not call causal fails every survivor promptly rather
// than leaving one parked behind a replacement that cannot come.

import (
	"testing"
	"time"

	"repro/internal/ftrma"
	"repro/internal/transport/wire"
)

// TestInstallKeepsReplayOrder: three puts to one word and three get
// deposits to another, tied on every counter and told apart only by Src,
// go through the install codec in the order the arbiter gathered them and
// the replacement's applyInstall, which orders them (ReplayOrder). Ties
// replay in fetch order, so the window must show the last tied writer; a
// record of an older phase, fetched last, must replay first; one older than
// the committed phase not at all.
func TestInstallKeepsReplayOrder(t *testing.T) {
	const words, putOff, getOff = 8, 2, 5
	put := func(src, gnc int, v uint64) ftrma.LogRecord {
		return ftrma.LogRecord{Kind: ftrma.LogPut, Src: src, Trg: 1, Off: putOff, Data: []uint64{v}, LocalOff: -1, EC: 1, GNC: gnc}
	}
	get := func(src, gnc int, v uint64) ftrma.LogRecord {
		return ftrma.LogRecord{Kind: ftrma.LogGet, Src: 1, Trg: src, Data: []uint64{v}, LocalOff: getOff, GC: 1, GNC: gnc}
	}
	var puts, gets []ftrma.LogRecord
	for src := 0; src < 3; src++ {
		puts = append(puts, put(src, 2, uint64(10+src)))
		gets = append(gets, get(src, 2, uint64(20+src)))
	}
	puts = append(puts, put(3, 1, 99), put(3, 0, 98)) // older phase: first; pre-checkpoint: dropped
	gets = append(gets, get(3, 1, 97), get(3, 0, 96))

	var e wire.Enc
	encInstall(&e, &install{puts: puts, gets: gets})
	in, ok := decInstall(wire.NewDec(e.Bytes()))
	if !ok {
		t.Fatal("undecodable install")
	}
	nd := bareNode(words)
	if err := nd.applyInstall(snap{phase: 1, ec: make([]int, 2)}, in); err != nil {
		t.Fatal(err)
	}
	if got := nd.window[putOff]; got != 12 {
		t.Errorf("put word = %d after replay, want 12 (the last tied writer)", got)
	}
	if got := nd.window[getOff]; got != 22 {
		t.Errorf("get deposit = %d after replay, want 22 (the last tied deposit)", got)
	}
	if got := uint64(nd.om.replayPuts.Load() + nd.om.replayGets.Load()); got != 8 {
		t.Errorf("%d records replayed, want 8 (the phase-0 pair is below the committed phase)", got)
	}
}

// TestCrisisRefusesUnsurvivable: a crash that is not causal fails every
// survivor's Sync within a second — no survivor parks at the barrier and no
// arbiter parks an install. Two ranks of different groups dying inside one
// phase is several ranks dead at once; the death of a group's parity host
// that is also its member loses both copies of that member's base.
func TestCrisisRefusesUnsurvivable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		groups  int
		victims func(f *testFabric) []int
	}{
		{"two-groups-one-phase", 4, 2, func(*testFabric) []int { return []int{2, 3} }},
		{"own-parity-host", 4, 1, func(f *testFabric) []int { return []int{f.nodes[0].Hostings()[0].Host} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startTestFabric(t, newPipeNet(), tc.n, tc.groups, fastTuning)
			errs := make(chan error, tc.n)
			for _, tn := range f.nodes {
				tn := tn
				go func() { errs <- drivePhases(tn.Node, 0, 1) }()
			}
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			type synced struct {
				rank int
				err  error
			}
			syncs := make(chan synced, tc.n)
			victims := tc.victims(f)
			dead := map[int]bool{}
			for _, v := range victims {
				dead[v] = true
			}
			for r, tn := range f.nodes {
				if !dead[r] {
					tn := tn
					go func() { syncs <- synced{tn.rank, runPhase(tn.Node, 1)} }()
				}
			}
			t0 := time.Now()
			for _, v := range victims {
				f.nodes[v].closeWithin(t, 0)
			}
			for i := 0; i < tc.n-len(victims); i++ {
				select {
				case s := <-syncs:
					if s.err == nil {
						t.Fatalf("rank %d passed the barrier with %v dead", s.rank, victims)
					}
					t.Logf("rank %d after %v: %v", s.rank, time.Since(t0), s.err)
				case <-time.After(time.Second - time.Since(t0)):
					t.Fatalf("%d of %d survivors still in Sync 1 s after the kill of %v", tc.n-len(victims)-i, tc.n-len(victims), victims)
				}
			}
			for r, tn := range f.nodes {
				tn.mmu.Lock()
				parked := tn.pending != nil
				tn.mmu.Unlock()
				if parked && !dead[r] {
					t.Errorf("rank %d parked an install for an unsurvivable crash", r)
				}
			}
		})
	}
}
