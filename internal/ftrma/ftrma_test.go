package ftrma

import (
	"testing"

	"repro/internal/rma"
)

// newSys builds a world plus protocol with a convenient default config.
func newSys(t *testing.T, n, words int, mod func(*Config)) (*rma.World, *System) {
	t.Helper()
	w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
	cfg := Config{
		Groups:            1,
		ChecksumsPerGroup: 1,
		MTBF:              1e6,
		UseDaly:           false,
		FixedInterval:     0, // no CC unless a test enables it
		Log:               LogConfig{Puts: true, Gets: true},
	}
	if mod != nil {
		mod(&cfg)
	}
	sys, err := NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, sys
}

func TestConfigValidate(t *testing.T) {
	base := Config{Groups: 2, ChecksumsPerGroup: 1, MTBF: 100, UseDaly: true}
	if err := base.Validate(8); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Groups = 0
	if bad.Validate(8) == nil {
		t.Error("accepted zero groups")
	}
	bad = base
	bad.Groups = 9
	if bad.Validate(8) == nil {
		t.Error("accepted more groups than ranks")
	}
	bad = base
	bad.MTBF = 0
	if bad.Validate(8) == nil {
		t.Error("accepted Daly without MTBF")
	}
	bad = base
	bad.ChecksumsPerGroup = 0
	if bad.Validate(8) == nil {
		t.Error("accepted zero checksum processes")
	}
	bad = base
	bad.Stream.Demand = true
	if bad.Validate(8) == nil {
		t.Error("accepted streaming without chunk size")
	}
	bad = base
	bad.Stream.Demand = true
	bad.Stream.ChunkBytes = 100 // not a multiple of the 8-byte word
	if bad.Validate(8) == nil {
		t.Error("accepted word-misaligned stream chunk size")
	}
	bad = base
	bad.Stream.Depth = -1
	if bad.Validate(8) == nil {
		t.Error("accepted negative stream depth")
	}
	bad = base
	bad.Log.SegmentRecords = -4
	if bad.Validate(8) == nil {
		t.Error("accepted negative log segment capacity")
	}
	bad = base
	bad.Log.SlabWords = -1
	if bad.Validate(8) == nil {
		t.Error("accepted negative log slab size")
	}
	bad = base
	bad.Log.CompactFraction = 1.5
	if bad.Validate(8) == nil {
		t.Error("accepted compaction fraction >= 1")
	}
	// Zero-valued tuning knobs mean "default" and must stay accepted.
	ok := base
	ok.Stream.Depth, ok.Log.SegmentRecords, ok.Log.SlabWords = 0, 0, 0
	if err := ok.Validate(8); err != nil {
		t.Errorf("rejected zero (default) tuning knobs: %v", err)
	}
}

// TestConfigDefaults pins the zero-value resolution: NewSystem must run
// with the documented defaults materialized, so runtime code never sees a
// zero Stream.Depth or arena knob.
func TestConfigDefaults(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 8})
	sys, err := NewSystem(w, Config{Groups: 1, ChecksumsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.cfg
	if c.Stream.Depth != 4 {
		t.Errorf("default Stream.Depth = %d, want 4", c.Stream.Depth)
	}
	if c.Log.SlabWords != 4096 || c.Log.SegmentRecords != 128 || c.Log.CompactFraction != 0.5 {
		t.Errorf("log arena defaults not resolved: %+v", c)
	}
}

func TestProcessImplementsAPIPassThrough(t *testing.T) {
	w, sys := newSys(t, 2, 16, nil)
	w.Run(func(r int) {
		p := sys.Process(r)
		if p.Rank() != r || p.N() != 2 {
			t.Errorf("identity wrong for rank %d", r)
		}
		if r == 0 {
			p.PutValue(1, 0, 42)
			p.Flush(1)
			got := p.GetBlocking(1, 0, 1)
			if got[0] != 42 {
				t.Errorf("round trip = %d, want 42", got[0])
			}
		}
		p.Gsync()
	})
}

func TestPutLoggedAtSource(t *testing.T) {
	w, sys := newSys(t, 2, 16, nil)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := sys.Process(0)
		p.Put(1, 3, []uint64{7, 8})
		p.Flush(1)
		p.Put(1, 5, []uint64{9})
		p.Flush(1)
	})
	logs := sys.Process(0).logs
	lp := logs.CopyLP(1)
	if len(lp) != 2 {
		t.Fatalf("LP_0[1] has %d records, want 2", len(lp))
	}
	r0, r1 := lp[0], lp[1]
	if r0.EC != 0 || r1.EC != 1 {
		t.Errorf("epoch counters = %d, %d; want 0, 1", r0.EC, r1.EC)
	}
	if r0.Data[0] != 7 || r0.Data[1] != 8 || r0.Off != 3 {
		t.Errorf("logged record wrong: %+v", r0)
	}
	if r0.Combine || logs.FlagM(1) {
		t.Error("replacing put marked combining")
	}
	st := sys.Stats()
	if st.PutsLogged != 2 {
		t.Errorf("PutsLogged = %d, want 2", st.PutsLogged)
	}
}

func TestCombiningPutSetsMFlag(t *testing.T) {
	w, sys := newSys(t, 2, 16, nil)
	w.Run(func(r int) {
		if r == 0 {
			p := sys.Process(0)
			p.Accumulate(1, 0, []uint64{5}, rma.OpSum)
			p.Flush(1)
		}
	})
	if !sys.Process(0).logs.FlagM(1) {
		t.Error("M_0[1] not set after combining put")
	}
}

func TestGetLoggedAtTargetAfterEpochClose(t *testing.T) {
	w, sys := newSys(t, 2, 16, nil)
	w.Proc(1).WriteAt(4, []uint64{99})
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := sys.Process(0)
		p.GetCopy(1, 4, 1, 0)
		// Phase 1: N flag raised at the target, nothing in LG yet.
		if !sys.Process(1).logs.FlagN(0) {
			t.Error("N_1[0] not raised during open epoch")
		}
		if len(sys.Process(1).logs.CopyLG(0)) != 0 {
			t.Error("get logged before epoch close")
		}
		p.Flush(1)
		// Phase 2: record lands at the target with the data, N cleared.
		if sys.Process(1).logs.FlagN(0) {
			t.Error("N_1[0] not cleared after epoch close")
		}
		lg := sys.Process(1).logs.CopyLG(0)
		if len(lg) != 1 {
			t.Fatalf("LG_1[0] has %d records, want 1", len(lg))
		}
		if lg[0].Data[0] != 99 || lg[0].LocalOff != 0 {
			t.Errorf("logged get wrong: %+v", lg[0])
		}
	})
}

func TestAtomicsLoggedBothSidesAndSetM(t *testing.T) {
	w, sys := newSys(t, 2, 16, nil)
	w.Run(func(r int) {
		if r == 0 {
			sys.Process(0).FetchAndOp(1, 0, 3, rma.OpSum)
		}
	})
	if len(sys.Process(0).logs.CopyLP(1)) != 1 {
		t.Error("atomic put side not logged at source")
	}
	if len(sys.Process(1).logs.CopyLG(0)) != 1 {
		t.Error("atomic get side not logged at target")
	}
	if !sys.Process(0).logs.FlagM(1) {
		t.Error("atomic did not set M flag")
	}
}

func TestSCCountersUnderLocks(t *testing.T) {
	w, sys := newSys(t, 3, 16, nil)
	w.Run(func(r int) {
		if r == 2 {
			return
		}
		p := sys.Process(r)
		p.Lock(2, rma.StrWindow)
		p.PutValue(2, r, uint64(r+1))
		p.Unlock(2, rma.StrWindow)
	})
	recs := append(sys.Process(0).logs.CopyLP(2), sys.Process(1).logs.CopyLP(2)...)
	if len(recs) != 2 {
		t.Fatalf("%d put logs, want 2", len(recs))
	}
	if recs[0].SC == recs[1].SC {
		t.Error("lock-separated puts share an SC")
	}
	for _, r := range recs {
		if r.SC < 1 || r.SC > 2 {
			t.Errorf("SC = %d, want 1 or 2", r.SC)
		}
	}
}

func TestGNCStampsGsyncPhases(t *testing.T) {
	w, sys := newSys(t, 2, 16, nil)
	w.Run(func(r int) {
		p := sys.Process(r)
		if r == 0 {
			p.PutValue(1, 0, 1)
		}
		p.Gsync()
		if r == 0 {
			p.PutValue(1, 1, 2)
			p.Flush(1)
		}
		p.Gsync()
	})
	recs := sys.Process(0).logs.CopyLP(1)
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].GNC != 0 || recs[1].GNC != 1 {
		t.Errorf("GNCs = %d, %d; want 0, 1", recs[0].GNC, recs[1].GNC)
	}
}

func TestCausalRecoveryReplaysPuts(t *testing.T) {
	// Rank 1's window is written entirely by rank 0's puts. Kill rank 1
	// with no checkpoint taken since start: recovery must rebuild its
	// window purely from the put logs.
	w, sys := newSys(t, 2, 8, nil)
	w.Run(func(r int) {
		if r == 0 {
			p := sys.Process(0)
			for i := 0; i < 8; i++ {
				p.PutValue(1, i, uint64(100+i))
			}
			p.Flush(1)
			// Overwrite two cells in a later epoch: replay order matters.
			p.PutValue(1, 0, 200)
			p.PutValue(1, 1, 201)
			p.Flush(1)
		}
	})
	w.Kill(1)
	res, err := sys.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack {
		t.Fatal("unexpected fallback")
	}
	if res.Logs.Len() != 10 {
		t.Fatalf("fetched %d records, want 10", res.Logs.Len())
	}
	w.RunRank(1, func() { res.Proc.ReplayAll(res.Logs) })
	got := w.Proc(1).ReadAt(0, w.Proc(1).WindowWords())
	want := []uint64{200, 201, 102, 103, 104, 105, 106, 107}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered window = %v, want %v", got, want)
		}
	}
	if sys.Stats().Recoveries != 1 || sys.Stats().ActionsReplayed != 10 {
		t.Errorf("stats = %+v", sys.Stats())
	}
}

func TestCausalRecoveryReplaysGetsIntoWindow(t *testing.T) {
	// Rank 0 gets remote data into its own window; after rank 0 fails the
	// gets are replayed from the target-side logs.
	w, sys := newSys(t, 2, 8, nil)
	w.Proc(1).WriteAt(0, []uint64{77, 88})
	w.Run(func(r int) {
		if r == 0 {
			p := sys.Process(0)
			p.GetCopy(1, 0, 2, 4)
			p.Flush(1)
		}
	})
	w.Kill(0)
	res, err := sys.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	w.RunRank(0, func() { res.Proc.ReplayAll(res.Logs) })
	got := w.Proc(0).ReadAt(0, w.Proc(0).WindowWords())
	if got[4] != 77 || got[5] != 88 {
		t.Fatalf("recovered gets = %v", got[:6])
	}
}

func TestRecoveryUsesCheckpointThenReplays(t *testing.T) {
	// Take a demand (UC) checkpoint of rank 1 mid-run; later puts are
	// logged. Recovery = checkpoint + replay of post-checkpoint logs.
	w, sys := newSys(t, 2, 4, nil)
	w.Run(func(r int) {
		if r == 0 {
			p := sys.Process(0)
			p.PutValue(1, 0, 10)
			p.PutValue(1, 1, 11)
			p.Flush(1)
		}
	})
	// Rank 1 checkpoints itself (UC, at an epoch boundary: nothing runs).
	w.RunRank(1, func() { sys.Process(1).takeUCCheckpoint() })
	// Rank 0 trims its logs against the new checkpoint, then issues more.
	w.Run(func(r int) {
		if r == 0 {
			p := sys.Process(0)
			p.trimAgainst(1)
			p.PutValue(1, 2, 12)
			p.Flush(1)
		}
	})
	if got := len(sys.Process(0).logs.CopyLP(1)); got != 1 {
		t.Fatalf("after trim, LP has %d records, want 1", got)
	}
	w.Kill(1)
	res, err := sys.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	w.RunRank(1, func() { res.Proc.ReplayAll(res.Logs) })
	got := w.Proc(1).ReadAt(0, w.Proc(1).WindowWords())
	if got[0] != 10 || got[1] != 11 || got[2] != 12 {
		t.Fatalf("recovered window = %v", got)
	}
	if sys.Stats().UCCheckpoints != 1 {
		t.Errorf("UCCheckpoints = %d, want 1", sys.Stats().UCCheckpoints)
	}
}

func TestNFlagForcesFallback(t *testing.T) {
	// Rank 0 dies with an open get epoch: N_1[0] is still true, so causal
	// recovery is impossible and the system must roll back to the last
	// coordinated checkpoint (§3.2.3).
	w, sys := newSys(t, 2, 4, func(c *Config) { c.FixedInterval = 1e-9 })
	w.Run(func(r int) {
		p := sys.Process(r)
		p.Gsync() // anchors the checkpoint schedule
		p.Gsync() // takes a coordinated checkpoint (interval elapsed)
		if r == 0 {
			p.WriteAt(0, []uint64{5})
			p.GetCopy(1, 0, 1, 1) // epoch stays open
		}
	})
	ccs := sys.Stats().CCCheckpoints
	if ccs < 1 {
		t.Fatal("no coordinated checkpoint was taken")
	}
	w.Kill(0)
	res, err := sys.Recover(0)
	if err != ErrFallback {
		t.Fatalf("err = %v, want ErrFallback", err)
	}
	if !res.FellBack {
		t.Fatal("result does not report fallback")
	}
	// The restored state is the CC state: word 0 of rank 0 was 0 at
	// checkpoint time (set to 5 only afterwards).
	if got := w.Proc(0).ReadAt(0, 1)[0]; got != 0 {
		t.Errorf("rank 0 cell = %d, want CC value 0", got)
	}
	if sys.Stats().Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", sys.Stats().Fallbacks)
	}
}

func TestMFlagForcesFallback(t *testing.T) {
	w, sys := newSys(t, 2, 4, func(c *Config) { c.FixedInterval = 1e-9 })
	w.Run(func(r int) {
		p := sys.Process(r)
		p.Gsync() // anchor
		p.Gsync() // coordinated checkpoint
		if r == 0 {
			p.Accumulate(1, 0, []uint64{3}, rma.OpSum)
			p.Flush(1)
		}
	})
	w.Kill(1)
	res, err := sys.Recover(1)
	if err != ErrFallback {
		t.Fatalf("err = %v, want ErrFallback", err)
	}
	if !res.FellBack {
		t.Fatal("no fallback reported")
	}
	// After fallback the combining put is forgotten (CC predates it).
	if got := w.Proc(1).ReadAt(0, 1)[0]; got != 0 {
		t.Errorf("cell = %d, want 0", got)
	}
}

func TestGsyncSchemeTakesCoordinatedCheckpoints(t *testing.T) {
	w, sys := newSys(t, 4, 16, func(c *Config) { c.FixedInterval = 1e-9; c.Groups = 2 })
	w.Run(func(r int) {
		p := sys.Process(r)
		for it := 0; it < 3; it++ {
			p.PutValue((r+1)%4, 0, uint64(it))
			p.Gsync()
		}
	})
	st := sys.Stats()
	// The first gsync anchors the schedule; the remaining two checkpoint.
	if st.CCCheckpoints != 2 {
		t.Errorf("CCCheckpoints = %d, want 2", st.CCCheckpoints)
	}
	// CC clears logs.
	for r := 0; r < 4; r++ {
		if b := sys.Process(r).logs.Bytes(); b != 0 {
			t.Errorf("rank %d still holds %d log bytes after CC", r, b)
		}
	}
}

func TestDalyIntervalSpacing(t *testing.T) {
	// With Daly scheduling and a large MTBF, not every gsync triggers a
	// checkpoint.
	w, sys := newSys(t, 2, 1<<12, func(c *Config) {
		c.UseDaly = true
		c.MTBF = 1e4
		c.FixedInterval = 0
	})
	w.Run(func(r int) {
		p := sys.Process(r)
		for it := 0; it < 50; it++ {
			p.PutValue((r+1)%2, 0, uint64(it))
			p.Gsync()
		}
	})
	st := sys.Stats()
	if st.CCCheckpoints >= 50 {
		t.Errorf("Daly scheduling checkpointed at every gsync (%d)", st.CCCheckpoints)
	}
}

func TestLocksSchemeCheckpoint(t *testing.T) {
	w, sys := newSys(t, 3, 8, func(c *Config) { c.Scheme = CCLocks })
	w.Run(func(r int) {
		p := sys.Process(r)
		p.Lock((r+1)%3, rma.StrWindow)
		p.PutValue((r+1)%3, 0, uint64(r))
		p.Unlock((r+1)%3, rma.StrWindow)
		if p.lc != 0 {
			t.Errorf("rank %d LC = %d, want 0", r, p.lc)
		}
		p.CheckpointLocks()
	})
	if sys.Stats().CCCheckpoints != 1 {
		t.Errorf("CCCheckpoints = %d, want 1", sys.Stats().CCCheckpoints)
	}
}

func TestCheckpointLocksPanicsWithHeldLock(t *testing.T) {
	w, sys := newSys(t, 1, 4, func(c *Config) { c.Scheme = CCLocks })
	defer func() {
		if recover() == nil {
			t.Fatal("CheckpointLocks with held lock did not panic")
		}
	}()
	w.Run(func(r int) {
		p := sys.Process(0)
		p.Lock(0, rma.StrWindow)
		p.CheckpointLocks()
	})
}

func TestDemandCheckpointTrimsLogs(t *testing.T) {
	// A tiny log budget forces demand checkpoints; afterwards the logs
	// stay bounded and the demand counters are visible (Fig. 11a).
	w, sys := newSys(t, 2, 64, func(c *Config) { c.Log.BudgetBytes = 4096 })
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := sys.Process(0)
		payload := make([]uint64, 16)
		for it := 0; it < 200; it++ {
			p.Put(1, 0, payload)
			p.Flush(1)
		}
	})
	// Rank 1 must service the demand flag at ITS next epoch close; since
	// it ran nothing, service it explicitly to emulate its next flush.
	w.Run(func(r int) {
		if r == 1 {
			sys.Process(1).serviceDemand()
		}
	})
	// Another round of puts triggers opportunistic trimming at rank 0.
	w.Run(func(r int) {
		if r == 0 {
			p := sys.Process(0)
			p.Put(1, 0, make([]uint64, 16))
			p.Flush(1)
		}
	})
	st := sys.Stats()
	if st.DemandRequests == 0 {
		t.Error("no demand checkpoint requests despite tiny budget")
	}
	if st.UCCheckpoints == 0 {
		t.Error("demand flag never serviced")
	}
	if st.LogBytesTrimmed == 0 {
		t.Error("no log bytes trimmed")
	}
	if b := sys.Process(0).logs.Bytes(); b > 64*1024 {
		t.Errorf("logs grew unboundedly: %d bytes", b)
	}
}

// TestStreamingDemandCheckpointCostOrdering pins the §6.2 variant ordering
// under the pipelined cost model. Bulk (variant 2) hands the whole copy to
// the CH in one send and the CH folds off the member's critical path, so it
// stays the fastest. Streaming (variant 1) couples the member to the CH's
// per-chunk transfer+fold chain through the bounded buffer; with depth 1
// transfer and fold strictly alternate at the CH's single buffer, while a
// deeper pipeline overlaps the transfer of batch k+1 with the fold of
// batch k and must land strictly between the two.
func TestStreamingDemandCheckpointCostOrdering(t *testing.T) {
	run := func(stream bool, depth int) float64 {
		w, sys := newSys(t, 2, 1<<14, func(c *Config) {
			c.Stream.Demand = stream
			c.Stream.ChunkBytes = 4096
			c.Stream.Depth = depth
		})
		w.Run(func(r int) {
			if r == 0 {
				p := sys.Process(0)
				// Fill the window so the checkpoint has a dirty region to
				// stream (an untouched window transfers nothing under
				// incremental checkpointing).
				data := make([]uint64, 1<<14)
				for i := range data {
					data[i] = uint64(i + 1)
				}
				p.inner.WriteAt(0, data)
				p.takeUCCheckpoint()
			}
		})
		return w.Proc(0).Now()
	}
	bulk := run(false, 0)
	serial := run(true, 1)
	pipelined := run(true, 4)
	if serial <= bulk {
		t.Errorf("serial streaming (%g) not slower than bulk (%g)", serial, bulk)
	}
	if pipelined >= serial {
		t.Errorf("pipelined streaming (%g) not faster than serial streaming (%g)", pipelined, serial)
	}
	if pipelined <= bulk {
		// Not a model theorem for every geometry, but for a 128 KiB window
		// in 4 KiB chunks the 32 per-chunk latencies plus the fold tail
		// must keep even the pipelined stream behind one bulk send.
		t.Errorf("pipelined streaming (%g) unexpectedly beat bulk (%g) at this geometry", pipelined, bulk)
	}
}

func TestRSGroupsSurviveTwoFailures(t *testing.T) {
	// m=2 Reed–Solomon checksums: two concurrent member crashes are NOT
	// catastrophic — causal recovery is impossible (logs at the dead peers
	// died with them), but the coordinated fallback reconstructs both lost
	// checkpoints from the RS parity (§5: "every group can resist m
	// concurrent process crashes").
	w, sys := newSys(t, 4, 8, func(c *Config) {
		c.ChecksumsPerGroup = 2
		c.FixedInterval = 1e-12
	})
	w.Run(func(r int) {
		p := sys.Process(r)
		for i := 0; i < 8; i++ {
			p.WriteAt(i, []uint64{uint64(r*100 + i)})
		}
		p.Gsync() // anchor
		p.Gsync() // coordinated checkpoint capturing the values
	})
	w.Kill(1)
	w.Kill(2)
	res, err := sys.Recover(1)
	if err != ErrFallback {
		t.Fatalf("err = %v, want ErrFallback (concurrent failures)", err)
	}
	if !res.FellBack {
		t.Fatal("fallback not reported")
	}
	for r := 0; r < 4; r++ {
		if !w.Alive(r) {
			t.Fatalf("rank %d still dead after fallback", r)
		}
		for i := 0; i < 8; i++ {
			if got := w.Proc(r).ReadAt(i, 1)[0]; got != uint64(r*100+i) {
				t.Fatalf("rank %d cell %d = %d, want %d", r, i, got, r*100+i)
			}
		}
	}
}

func TestXORGroupCannotRecoverTwo(t *testing.T) {
	w, sys := newSys(t, 4, 8, nil) // m = 1
	w.Run(func(r int) { sys.Process(r).takeUCCheckpoint() })
	w.Kill(1)
	w.Kill(2)
	if _, err := sys.Recover(1); err == nil {
		t.Error("XOR parity recovered two concurrent failures")
	}
}

func TestRecoverLiveRankRejected(t *testing.T) {
	_, sys := newSys(t, 2, 4, nil)
	if _, err := sys.Recover(0); err == nil {
		t.Error("recovered a live rank")
	}
}

func TestReplayOrderingProperty(t *testing.T) {
	// Puts to the same cell across epochs: replay must leave the
	// last-epoch value regardless of how many sources interleave.
	w, sys := newSys(t, 4, 4, nil)
	w.Run(func(r int) {
		p := sys.Process(r)
		if r == 3 {
			p.Gsync()
			p.Gsync()
			p.Gsync()
			return
		}
		// Each source writes its rank value in successive gsync phases;
		// the final phase is written by rank 2 only.
		p.PutValue(3, 0, uint64(r+1))
		p.Gsync()
		p.PutValue(3, 1, uint64(r+1))
		p.Gsync()
		if r == 2 {
			p.PutValue(3, 0, 42)
		}
		p.Gsync()
	})
	final := w.Proc(3).ReadAt(0, 1)[0]
	if final != 42 {
		t.Fatalf("pre-kill value = %d, want 42", final)
	}
	w.Kill(3)
	res, err := sys.Recover(3)
	if err != nil {
		t.Fatal(err)
	}
	w.RunRank(3, func() { res.Proc.ReplayAll(res.Logs) })
	if got := w.Proc(3).ReadAt(0, 1)[0]; got != 42 {
		t.Errorf("replayed cell = %d, want 42 (GNC order violated)", got)
	}
}

func TestCounterSnapshotsRestoredOnRecovery(t *testing.T) {
	w, sys := newSys(t, 2, 4, nil)
	w.Run(func(r int) {
		p := sys.Process(r)
		p.PutValue((r+1)%2, 0, 1)
		p.Gsync()
		p.Gsync()
	})
	w.RunRank(1, func() { sys.Process(1).takeUCCheckpoint() })
	gncBefore := sys.Process(1).gnc.Load()
	w.Kill(1)
	res, err := sys.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Proc.gnc.Load(); got != gncBefore {
		t.Errorf("restored GNC = %d, want %d", got, gncBefore)
	}
}
