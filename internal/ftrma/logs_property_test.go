package ftrma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rma"
)

// tinyTuning shrinks the arena so a few records already span several
// segments and slabs, exercising segment drops, straddling filters, and
// compaction that production sizes would hide.
func tinyTuning() logTuning {
	return logTuning{slabWords: 16, segRecords: 4, compactRatio: 0.5}
}

// checkAccounting verifies the byte-accounting invariant bytes() ==
// sum-of-live-record-footprints, plus the arena's live <= used counterpart.
func checkAccounting(t *testing.T, s *LogStore) bool {
	t.Helper()
	if s.Bytes() != s.liveFootprint() {
		t.Logf("bytes() = %d, live footprint = %d", s.Bytes(), s.liveFootprint())
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lpBytes < 0 || s.lgBytes < 0 || s.arena.live < 0 || s.arena.live > s.arena.used {
		t.Logf("counters out of range: lp=%d lg=%d live=%d used=%d",
			s.lpBytes, s.lgBytes, s.arena.live, s.arena.used)
		return false
	}
	return true
}

// TestLogStoreByteAccounting checks the invariant that the byte counters
// always equal the sum of the stored records' footprints, under random
// interleavings of appends, trims, and full clears.
func TestLogStoreByteAccounting(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newLogStore(tinyTuning())
		for step := 0; step < 300; step++ {
			q := rng.Intn(4)
			switch rng.Intn(6) {
			case 0, 1:
				s.AppendLP(q, LogRecord{
					Trg: q, Data: make([]uint64, rng.Intn(8)),
					EC: rng.Intn(5), Combine: rng.Intn(4) == 0,
				})
			case 2:
				s.AppendLG(q, LogRecord{
					Src: q, Data: make([]uint64, rng.Intn(8)),
					GNC: rng.Intn(5), GC: rng.Intn(5),
				})
			case 3:
				s.TrimLP(q, rng.Intn(6))
			case 4:
				s.TrimLG(q, rng.Intn(6), rng.Intn(6))
			case 5:
				if rng.Intn(8) == 0 { // occasional coordinated clear
					s.clear()
				}
			}
			if !checkAccounting(t, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTrimNeverDropsUncoveredRecords checks the trim safety property: a
// record whose counters are not strictly below the snapshot survives
// trimming (dropping it would lose a replayable access).
func TestTrimNeverDropsUncoveredRecords(t *testing.T) {
	prop := func(ecs []uint8, snapRaw uint8) bool {
		s := newLogStore(tinyTuning())
		snap := int(snapRaw % 8)
		for _, e := range ecs {
			s.AppendLP(1, LogRecord{Trg: 1, EC: int(e % 8), Data: []uint64{1}})
		}
		s.TrimLP(1, snap)
		kept := map[int]int{}
		for _, r := range s.CopyLP(1) {
			kept[r.EC]++
		}
		for _, e := range ecs {
			ec := int(e % 8)
			if ec >= snap {
				if kept[ec] == 0 {
					return false // an uncovered record was dropped
				}
				kept[ec]--
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTrimPreservesPayloadsAndOrder checks that surviving records keep
// their payload bytes and relative order across trims and the compactions
// they trigger (the zero-copy views must stay bit-identical).
func TestTrimPreservesPayloadsAndOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newLogStore(tinyTuning())
		type oracle struct {
			ec   int
			data []uint64
		}
		var want []oracle
		for step := 0; step < 200; step++ {
			if rng.Intn(4) < 3 {
				data := make([]uint64, 1+rng.Intn(6))
				for i := range data {
					data[i] = rng.Uint64()
				}
				ec := rng.Intn(8)
				s.AppendLP(1, LogRecord{Trg: 1, EC: ec, Data: data})
				want = append(want, oracle{ec: ec, data: append([]uint64(nil), data...)})
			} else {
				snap := rng.Intn(9)
				s.TrimLP(1, snap)
				kept := want[:0]
				for _, o := range want {
					if o.ec >= snap {
						kept = append(kept, o)
					}
				}
				want = kept
			}
			got := s.CopyLP(1)
			if len(got) != len(want) {
				return false
			}
			for i, o := range want {
				if got[i].EC != o.ec || len(got[i].Data) != len(o.data) {
					return false
				}
				for j := range o.data {
					if got[i].Data[j] != o.data[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMFlagTracksCombiningRecords checks that the M flag is exactly "the
// put log towards q contains a combining record" across appends and trims.
func TestMFlagTracksCombiningRecords(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newLogStore(tinyTuning())
		for step := 0; step < 100; step++ {
			if rng.Intn(3) > 0 {
				s.AppendLP(2, LogRecord{
					Trg: 2, EC: rng.Intn(5), Combine: rng.Intn(3) == 0,
					Op: rma.OpSum, Data: []uint64{1},
				})
			} else {
				s.TrimLP(2, rng.Intn(6))
			}
			want := false
			for _, r := range s.CopyLP(2) {
				if r.Combine {
					want = true
				}
			}
			if s.FlagM(2) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLargestPeerMatchesBruteForce checks the O(peers) victim scan against
// a from-scratch recomputation under random append/trim mixes.
func TestLargestPeerMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newLogStore(tinyTuning())
		for step := 0; step < 150; step++ {
			q := rng.Intn(5)
			switch rng.Intn(4) {
			case 0, 1:
				s.AppendLP(q, LogRecord{Trg: q, Data: make([]uint64, rng.Intn(6)), EC: rng.Intn(4)})
			case 2:
				s.AppendLG(q, LogRecord{Src: q, Data: make([]uint64, rng.Intn(6)), GNC: rng.Intn(4)})
			case 3:
				s.TrimLP(q, rng.Intn(5))
			}
			_, gotBytes := s.largestPeer()
			wantBytes := 0
			for q := 0; q < 5; q++ {
				b := 0
				for _, r := range s.CopyLP(q) {
					b += r.Bytes()
				}
				for _, r := range s.CopyLG(q) {
					b += r.Bytes()
				}
				if b > wantBytes {
					wantBytes = b
				}
			}
			if gotBytes != wantBytes {
				t.Logf("largestPeer bytes = %d, brute force = %d", gotBytes, wantBytes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
