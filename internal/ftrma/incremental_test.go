package ftrma

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/rma"
)

// runIncrementalScenario drives a deterministic workload — tracked local
// writes, remote puts, and per-round UC
// checkpoints — kills a rank, recovers it, and returns every rank's final
// window plus the virtual time spent checkpointing.
func runIncrementalScenario(t *testing.T, m int, full bool) ([][]uint64, float64) {
	t.Helper()
	const words = 512
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: words})
	sys, err := NewSystem(w, Config{
		Groups: 1, ChecksumsPerGroup: m, Log: LogConfig{Puts: true}, FullCheckpoints: full,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		init := make([]uint64, words)
		for i := range init {
			init[i] = uint64(r)<<32 | uint64(i)
		}
		p.inner.WriteAt(0, init)
		p.UCCheckpoint()
		p.Barrier() // all inits visible before any remote puts race them
		rng := rand.New(rand.NewSource(int64(100 + r)))
		for round := 0; round < 6; round++ {
			// Tracked partial write to this rank's own window, kept below
			// word 256 so it can never collide with rank 0's remote puts
			// (two unordered writers to one word would make the final
			// contents interleaving-dependent, which is an application
			// race, not a checkpointing property).
			p.inner.WriteAt(rng.Intn(250), []uint64{rng.Uint64(), rng.Uint64()})
			if r == 2 && round >= 3 {
				// A write through the API's WriteAt, outside the region
				// the Inner() writes above reach.
				p.WriteAt(400+round, []uint64{rng.Uint64() | 1})
			}
			if r == 0 {
				// Remote put into rank 1's window (tracked at the target).
				p.Put(1, 256+round, []uint64{uint64(round + 1)})
				p.Flush(1)
			}
			p.Barrier()
			p.UCCheckpoint()
			p.Barrier()
		}
	})
	w.Kill(2)
	if _, err := sys.Recover(2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	out := make([][]uint64, w.N())
	for r := 0; r < w.N(); r++ {
		out[r] = w.Proc(r).ReadAt(0, words)
	}
	return out, sys.Stats().CheckpointSeconds
}

// TestIncrementalCheckpointEquivalence is the dirty-region property test:
// for XOR (m=1) and Reed–Solomon (m=2) groups, a workload checkpointed
// incrementally must recover states bit-identical to the same workload
// checkpointed with full-window copies — and must not spend more virtual
// time doing it.
func TestIncrementalCheckpointEquivalence(t *testing.T) {
	for _, m := range []int{1, 2} {
		fullState, fullCost := runIncrementalScenario(t, m, true)
		incState, incCost := runIncrementalScenario(t, m, false)
		for r := range fullState {
			for i := range fullState[r] {
				if fullState[r][i] != incState[r][i] {
					t.Fatalf("m=%d: rank %d word %d differs: full %x, incremental %x",
						m, r, i, fullState[r][i], incState[r][i])
				}
			}
		}
		if incCost > fullCost {
			t.Errorf("m=%d: incremental checkpointing cost %g > full %g virtual seconds",
				m, incCost, fullCost)
		}
	}
}

// runFallbackScenario exercises the coordinated-rollback path: every rank
// takes a coordinated checkpoint, keeps mutating, and a combining put
// forces recovery to fall back to the coordinated level. Returns every
// rank's window after the rollback.
func runFallbackScenario(t *testing.T, m int, full bool) [][]uint64 {
	t.Helper()
	const words = 256
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: words})
	sys, err := NewSystem(w, Config{
		Groups: 1, ChecksumsPerGroup: m, Log: LogConfig{Puts: true}, Scheme: CCLocks,
		FullCheckpoints: full,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		init := make([]uint64, words)
		for i := range init {
			init[i] = uint64(r*1000 + i)
		}
		p.inner.WriteAt(0, init)
		p.CheckpointLocks() // coordinated checkpoint of the initial state
		p.inner.WriteAt(2*r, []uint64{0xfeed})
		if r == 0 {
			// Combining put raises M at rank 2: causal recovery of rank 2
			// becomes illegal and the system must roll back to the
			// coordinated level.
			p.Accumulate(2, 0, []uint64{7}, rma.OpSum)
			p.Flush(2)
		}
		p.Barrier()
	})
	w.Kill(2)
	_, err = sys.Recover(2)
	if !errors.Is(err, ErrFallback) {
		t.Fatalf("expected coordinated fallback, got %v", err)
	}
	out := make([][]uint64, w.N())
	for r := 0; r < w.N(); r++ {
		out[r] = w.Proc(r).ReadAt(0, words)
	}
	return out
}

// TestIncrementalFallbackEquivalence checks that the coordinated rollback
// restores bit-identical state whether the checkpoints that fed the CC
// parity were incremental or full.
func TestIncrementalFallbackEquivalence(t *testing.T) {
	for _, m := range []int{1, 2} {
		fullState := runFallbackScenario(t, m, true)
		incState := runFallbackScenario(t, m, false)
		for r := range fullState {
			for i := range fullState[r] {
				if fullState[r][i] != incState[r][i] {
					t.Fatalf("m=%d: rank %d word %d differs after fallback: full %x, incremental %x",
						m, r, i, fullState[r][i], incState[r][i])
				}
			}
			// The rollback must restore the coordinated snapshot: the
			// initial fill, untouched by the post-checkpoint writes.
			want := uint64(r*1000 + 5)
			if fullState[r][5] != want {
				t.Fatalf("rank %d word 5 = %x, want coordinated state %x", r, fullState[r][5], want)
			}
		}
	}
}

// TestFallbackTwiceRestoresCoordinatedState regression-tests the CC-base
// re-seed in FallbackToCC: after a rollback respawns a rank, its ccData
// must match its contribution in the coordinated parity, or the next
// coordinated round corrupts the parity and a second rollback restores
// garbage.
func TestFallbackTwiceRestoresCoordinatedState(t *testing.T) {
	const words = 64
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: words})
	sys, err := NewSystem(w, Config{Groups: 1, ChecksumsPerGroup: 1, Scheme: CCLocks})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(r, tag int) []uint64 {
		out := make([]uint64, words)
		for i := range out {
			out[i] = uint64(tag)<<32 | uint64(r*100+i)
		}
		return out
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		p.inner.WriteAt(0, fill(r, 1))
		p.CheckpointLocks()
	})
	w.Kill(2)
	if err := sys.FallbackToCC(2); err != nil {
		t.Fatalf("first fallback: %v", err)
	}
	// A fresh coordinated round with new data, then a second failure.
	w.Run(func(r int) {
		p := sys.Process(r)
		p.inner.WriteAt(0, fill(r, 2))
		p.CheckpointLocks()
	})
	w.Kill(2)
	if err := sys.FallbackToCC(2); err != nil {
		t.Fatalf("second fallback: %v", err)
	}
	for r := 0; r < w.N(); r++ {
		got := w.Proc(r).ReadAt(0, words)
		want := fill(r, 2)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rank %d word %d = %x, want %x (second coordinated state)", r, i, got[i], want[i])
			}
		}
	}
}

// TestCausalRecoveryAfterFallback regression-tests the parity re-seed on
// rollback: a UC checkpoint taken after the last coordinated round leaves
// a contribution in the UC parity that a fallback makes stale (the copies
// it folded are discarded). A later single-rank causal recovery must
// reconstruct the post-rollback state, not resurrect the pre-rollback
// checkpoint.
func TestCausalRecoveryAfterFallback(t *testing.T) {
	const words = 32
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: words})
	// Two groups so two concurrent failures (one per group) stay within
	// the XOR parity's tolerance and force the coordinated fallback.
	sys, err := NewSystem(w, Config{Groups: 2, ChecksumsPerGroup: 1, Scheme: CCLocks})
	if err != nil {
		t.Fatal(err)
	}
	base := func(r int) []uint64 {
		out := make([]uint64, words)
		for i := range out {
			out[i] = uint64(r*10000 + i)
		}
		return out
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		p.inner.WriteAt(0, base(r))
		p.CheckpointLocks()
	})
	// Rank 0 advances past the coordinated state and checkpoints it.
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := sys.Process(0)
		p.inner.WriteAt(0, []uint64{0xdeadbeef})
		p.UCCheckpoint()
	})
	// Concurrent failures in different groups: causal recovery impossible,
	// coordinated fallback rolls everyone (including rank 0) back.
	g0 := sys.Grouping().ComputeMembers(0)
	g1 := sys.Grouping().ComputeMembers(1)
	w.Kill(g0[len(g0)-1])
	w.Kill(g1[0])
	if _, err := sys.Recover(g1[0]); !errors.Is(err, ErrFallback) {
		t.Fatalf("expected fallback, got %v", err)
	}
	if got := w.Proc(0).ReadAt(0, 1)[0]; got == 0xdeadbeef {
		t.Fatal("rank 0 still at pre-rollback state after fallback")
	}
	// Now rank 0 fails alone: causal recovery must rebuild its coordinated
	// state from the (re-seeded) UC parity, not the stale 0xdeadbeef copy.
	w.Kill(0)
	if _, err := sys.Recover(0); err != nil {
		t.Fatalf("causal recovery after fallback: %v", err)
	}
	got := w.Proc(0).ReadAt(0, words)
	for i, want := range base(0) {
		if got[i] != want {
			t.Fatalf("word %d = %x, want %x (coordinated state, not pre-rollback checkpoint)", i, got[i], want)
		}
	}
}

// TestIncrementalCheckpointTransfersLess pins the point of the tentpole:
// after a small update to a large window, the incremental checkpoint moves
// (virtual-time-wise) far less data than a full one.
func TestIncrementalCheckpointTransfersLess(t *testing.T) {
	cost := func(full bool) float64 {
		w := rma.NewWorld(rma.Config{N: 2, WindowWords: 1 << 14})
		sys, err := NewSystem(w, Config{Groups: 1, ChecksumsPerGroup: 1, FullCheckpoints: full})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(r int) {
			p := sys.Process(r)
			big := make([]uint64, 1<<14)
			for i := range big {
				big[i] = uint64(i + 1)
			}
			p.inner.WriteAt(0, big)
			p.UCCheckpoint()
			t0 := p.Now()
			p.inner.WriteAt(7, []uint64{42}) // one dirty chunk
			p.UCCheckpoint()
			_ = t0
		})
		return sys.Stats().CheckpointSeconds
	}
	fullCost := cost(true)
	incCost := cost(false)
	// The second checkpoint dominates the difference: one 512-byte chunk
	// against a 128 KiB window. Demand a 1.5x gap end to end.
	if incCost*1.5 > fullCost {
		t.Errorf("incremental cost %g not clearly below full cost %g", incCost, fullCost)
	}
}
