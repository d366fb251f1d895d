package ftrma

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rma"
)

func TestAlgorithm3LockOrderedReplay(t *testing.T) {
	// Algorithm 3: codes that synchronize with locks and communicate with
	// puts. Two ranks write the same cell of rank 2 under its window lock;
	// replay must order by SC so the last lock holder's value wins.
	w, sys := newSys(t, 3, 8, nil)
	w.Run(func(r int) {
		if r == 2 {
			return
		}
		p := sys.Process(r)
		p.Lock(2, rma.StrWindow)
		p.PutValue(2, 0, uint64(100+r))
		p.PutValue(2, 1, uint64(200+r))
		p.Unlock(2, rma.StrWindow)
	})
	final := w.Proc(2).ReadAt(0, 2)
	w.Kill(2)
	res, err := sys.Recover(2)
	if err != nil {
		t.Fatal(err)
	}
	// All four puts share GNC 0; SC separates the two lock epochs.
	scs := map[int]bool{}
	for _, rec := range res.Logs.Puts {
		scs[rec.SC] = true
	}
	if len(scs) != 2 {
		t.Fatalf("expected 2 distinct SCs, got %v", scs)
	}
	w.RunRank(2, func() { res.Proc.ReplayAll(res.Logs) })
	got := w.Proc(2).ReadAt(0, 2)
	if got[0] != final[0] || got[1] != final[1] {
		t.Fatalf("replay = %v, pre-failure state = %v (SC order violated)", got, final)
	}
}

// TestRecoveryPathCounts pins the work each recovery path does on one
// bulk-synchronous schedule: 4 ranks, 6 gsync'd phases, one 8-word access
// per phase towards the right neighbour, rank 3 killed after the last
// phase. Issued as puts the schedule is conflict-free, so Recover hands
// back exactly the 6 records rank 3's in-neighbour logged about it and
// nobody rolls back. Issued as combining accumulates, the M flags force
// the coordinated fallback; no coordinated checkpoint was ever taken, so
// every rank returns to phase 0 and redoes all 6 phases.
func TestRecoveryPathCounts(t *testing.T) {
	const n, phases, ipp, victim = 4, 6, 8, 3
	run := func(combining bool) (*System, *RecoverResult, error) {
		w := rma.NewWorld(rma.Config{N: n, WindowWords: n * phases * ipp})
		sys, err := NewSystem(w, Config{Groups: 2, ChecksumsPerGroup: 1, Log: LogConfig{Puts: true, Gets: true}})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(r int) {
			p := sys.Process(r)
			for ph := 0; ph < phases; ph++ {
				data := make([]uint64, ipp)
				for i := range data {
					data[i] = uint64(r+1)<<40 | uint64(ph+1)<<20 | uint64(i+1)
				}
				if combining {
					p.Accumulate((r+1)%n, (r*phases+ph)*ipp, data, rma.OpSum)
				} else {
					p.Put((r+1)%n, (r*phases+ph)*ipp, data)
				}
				p.Gsync()
			}
		})
		w.Kill(victim)
		res, err := sys.Recover(victim)
		return sys, res, err
	}

	_, res, err := run(false)
	if err != nil {
		t.Fatalf("conflict-free schedule did not recover causally: %v", err)
	}
	if got := res.Logs.Len(); got != phases {
		t.Errorf("causal path replays %d actions, want %d (one logged put per phase)", got, phases)
	}
	sys, _, err := run(true)
	if !errors.Is(err, ErrFallback) {
		t.Fatalf("combining schedule did not force the fallback: %v", err)
	}
	for r := 0; r < n; r++ {
		if redone := phases - sys.Process(r).GNC(); redone != phases {
			t.Errorf("fallback: rank %d redoes %d phases, want %d (back to phase 0)", r, redone, phases)
		}
	}
}

func TestReplayOrderingPropertyRandomPrograms(t *testing.T) {
	// Property: for random sequences of epoch-separated puts into one
	// victim from multiple sources, causal replay reproduces the victim's
	// exact pre-failure memory. Sources write disjoint cells within a
	// phase (access determinism holds), phases are separated by gsyncs,
	// and each source overwrites its own cells across epochs.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, words, phases = 4, 16, 3
		w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
		sys, err := NewSystem(w, Config{Groups: 1, ChecksumsPerGroup: 1, Log: LogConfig{Puts: true}})
		if err != nil {
			return false
		}
		const victim = 3
		// Pre-generate per-phase plans: source r writes cells r*4..r*4+3;
		// plan entries encode (phase*100 + offset, value).
		plans := make([][][2]uint64, n)
		for r := 0; r < n-1; r++ {
			for ph := 0; ph < phases; ph++ {
				for k := 0; k < 1+rng.Intn(3); k++ {
					off := r*4 + rng.Intn(4)
					val := rng.Uint64()%1000 + 1
					plans[r] = append(plans[r], [2]uint64{uint64(ph*100 + off), val})
				}
			}
		}
		w.Run(func(r int) {
			p := sys.Process(r)
			if r == victim {
				for ph := 0; ph < phases; ph++ {
					p.Gsync()
				}
				return
			}
			i := 0
			for ph := 0; ph < phases; ph++ {
				for ; i < len(plans[r]); i++ {
					if int(plans[r][i][0])/100 != ph {
						break
					}
					p.PutValue(victim, int(plans[r][i][0])%100, plans[r][i][1])
				}
				p.Gsync()
			}
		})
		want := w.Proc(victim).ReadAt(0, words)
		w.Kill(victim)
		res, err := sys.Recover(victim)
		if err != nil {
			return false
		}
		w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
		got := w.Proc(victim).ReadAt(0, words)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestChaosKillsAtBoundaries(t *testing.T) {
	// Failure injection: for several seeds, kill a random rank at a random
	// gsync boundary, recover causally, continue, and verify the final
	// all-to-all state matches a fault-free run. Each rank repeatedly
	// rotates a token through every window cell via puts.
	const n, words, iters = 4, 8, 6
	reference := func() []uint64 {
		w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
		runAll(w, nil, 0, iters)
		var all []uint64
		for r := 0; r < n; r++ {
			all = append(all, w.Proc(r).ReadAt(0, words)...)
		}
		return all
	}()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		killAt := 1 + rng.Intn(iters-1)
		victim := rng.Intn(n)
		w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
		sys, err := NewSystem(w, Config{Groups: 2, ChecksumsPerGroup: 1, Log: LogConfig{Puts: true}})
		if err != nil {
			t.Fatal(err)
		}
		runAll(w, sys, 0, killAt)
		w.Kill(victim)
		res, err := sys.Recover(victim)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
		runAll(w, sys, killAt, iters)
		var all []uint64
		for r := 0; r < n; r++ {
			all = append(all, w.Proc(r).ReadAt(0, words)...)
		}
		for i := range reference {
			if all[i] != reference[i] {
				t.Fatalf("seed %d (kill %d@%d): state differs at %d", seed, victim, killAt, i)
			}
		}
	}
}

// runAll executes the chaos workload: every iteration, each rank puts a
// value derived from (rank, iter) into every rank's window at its own slot.
// All state is put-written, so ReplayAll recovery is exact.
func runAll(w *rma.World, sys *System, from, to int) {
	w.Run(func(r int) {
		var p rma.API = w.Proc(r)
		if sys != nil {
			p = sys.Process(r)
		}
		for it := from; it < to; it++ {
			for q := 0; q < w.N(); q++ {
				p.PutValue(q, r, uint64(1000*it+10*r+1))
			}
			p.Gsync()
		}
	})
}

func TestStreamingDemandCheckpointRecovery(t *testing.T) {
	// The streaming variant must be functionally identical to bulk.
	for _, streaming := range []bool{false, true} {
		w, sys := newSys(t, 2, 8, func(c *Config) {
			c.Stream.Demand = streaming
			c.Stream.ChunkBytes = 16
		})
		w.Run(func(r int) {
			if r == 1 {
				for i := 0; i < 8; i++ {
					sys.Process(1).WriteAt(i, []uint64{uint64(i + 1)})
				}
				sys.Process(1).UCCheckpoint()
			}
		})
		w.Kill(1)
		res, err := sys.Recover(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if got := w.Proc(1).ReadAt(i, 1)[0]; got != uint64(i+1) {
				t.Fatalf("streaming=%v: cell %d = %d", streaming, i, got)
			}
		}
		_ = res
	}
}

func TestMultiGroupRecoveryUsesRightParity(t *testing.T) {
	// With several groups, recovery must reconstruct from the failed
	// rank's own group.
	w, sys := newSys(t, 6, 4, func(c *Config) { c.Groups = 3 })
	w.Run(func(r int) {
		p := sys.Process(r)
		p.WriteAt(0, []uint64{uint64(1000 + r)})
		p.UCCheckpoint()
	})
	for victim := 0; victim < 6; victim++ {
		w.Kill(victim)
		res, err := sys.Recover(victim)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
		if got := w.Proc(victim).ReadAt(0, 1)[0]; got != uint64(1000+victim) {
			t.Fatalf("victim %d restored %d", victim, got)
		}
	}
}

func TestFallbackRestoresGlobalConsistency(t *testing.T) {
	// After a fallback every rank must be back at the coordinated
	// checkpoint: survivors' post-checkpoint local writes are rolled back
	// too.
	w, sys := newSys(t, 3, 4, func(c *Config) { c.FixedInterval = 1e-9 })
	w.Run(func(r int) {
		p := sys.Process(r)
		p.WriteAt(0, []uint64{uint64(10 + r)})
		p.Gsync() // anchor
		p.Gsync() // CC with word 0 = 10+r
		p.WriteAt(0, []uint64{99})
		if r == 0 {
			p.GetCopy(1, 0, 1, 1) // leaves N raised
		}
	})
	w.Kill(0)
	res, err := sys.Recover(0)
	if err != ErrFallback || !res.FellBack {
		t.Fatalf("expected fallback, got %v", err)
	}
	for r := 0; r < 3; r++ {
		if got := w.Proc(r).ReadAt(0, 1)[0]; got != uint64(10+r) {
			t.Errorf("rank %d cell = %d, want %d (CC state)", r, got, 10+r)
		}
	}
	// Logs were cleared everywhere; the system can keep running.
	w.Run(func(r int) {
		p := sys.Process(r)
		p.PutValue((r+1)%3, 2, uint64(r))
		p.Gsync()
	})
}
