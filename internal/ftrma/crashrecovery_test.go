package ftrma

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rma"
)

// Randomized crash–recovery property test: N ranks execute seeded-random
// Put/Get/Accumulate/CAS/FetchAndOp/Lock/Gsync schedules with randomly
// injected Kills at phase boundaries, and after every recovery — causal
// replay or coordinated fallback — the window state of EVERY rank must be
// bit-identical to a failure-free oracle run of the same schedule at the
// same phase boundary.
//
// Determinism of the oracle is guaranteed by construction of the schedule:
//   - every mutable slot has a single writer rank (puts and atomics go to
//     per-source slots, GetCopy landings to per-op slots of the issuer),
//   - gets only read the put region of the *previous* phase parity, which
//     no rank writes during the current phase,
//   - combining ops use commutative reductions (sum/xor), so their phase
//     result is interleaving-independent.
const (
	crRanks  = 4
	crPhases = 6
	crOps    = 5
	crSeeds  = 55
)

// Window layout (words), per rank:
//
//	[0, 2N)      put slots, even phases (2 words per source rank)
//	[2N, 4N)     put slots, odd phases
//	[4N, 5N)     accumulate slots (1 word per source rank)
//	[5N, 6N)     atomic CAS/FAO slots (1 word per source rank)
//	[6N, 6N+ops) GetCopy landing slots (1 word per op index)
func crWindowWords() int { return 6*crRanks + crOps }

// crPhase runs one rank's deterministic op stream for one phase, closed by
// the collective gsync. The stream depends only on (seed, phase, rank), so
// the oracle run, the failure run, and any post-fallback re-execution all
// issue identical accesses.
func crPhase(p rma.FullAPI, seed int64, phase int, combining bool) {
	r, n := p.Rank(), p.N()
	rng := rand.New(rand.NewSource(seed ^ int64(phase)*1_000_003 ^ int64(r)*777_767))
	aCur := (phase % 2) * 2 * n
	aPrev := ((phase + 1) % 2) * 2 * n
	bBase, dBase, cBase := 4*n, 5*n, 6*n
	for i := 0; i < crOps; i++ {
		t := rng.Intn(n - 1)
		if t >= r {
			t++ // never self: a rank's own put logs die with it (Fig. 3)
		}
		v := rng.Uint64()
		pick := rng.Intn(10)
		if !combining && (pick == 4 || pick == 5) {
			pick = 0 // puts-only seeds keep the M flags down: causal recovery
		}
		switch pick {
		case 0, 1, 2:
			p.Put(t, aCur+2*r, []uint64{v, v ^ 0xa5a5})
		case 3:
			// Lock-protected put: exercises the SC counters and the so
			// (synchronization order) edges of Algorithm 3.
			p.Lock(t, rma.StrWindow)
			p.PutValue(t, aCur+2*r, v)
			p.Unlock(t, rma.StrWindow)
		case 4:
			if rng.Intn(2) == 0 {
				p.Accumulate(t, bBase+r, []uint64{v >> 48}, rma.OpSum)
			} else {
				p.Accumulate(t, bBase+r, []uint64{v}, rma.OpXor)
			}
		case 5:
			if rng.Intn(2) == 0 {
				p.CompareAndSwap(t, dBase+r, uint64(rng.Intn(4)), v)
			} else {
				p.FetchAndOp(t, dBase+r, uint64(rng.Intn(100)), rma.OpSum)
			}
		case 6, 7:
			p.Get(t, aPrev+rng.Intn(2*n), 1)
		case 8:
			// Landing slot cBase+i is private to (rank, op index): replayed
			// gets must never race for a slot within one phase.
			p.GetCopy(t, aPrev+rng.Intn(2*n), 1, cBase+i)
		case 9:
			p.Flush(t)
		}
	}
	p.Gsync()
}

type killEvent struct {
	after  int // fires once the monotone executed-phase counter reaches this
	victim int
}

// snapWindows copies every rank's window.
func snapWindows(w *rma.World) [][]uint64 {
	out := make([][]uint64, w.N())
	for r := 0; r < w.N(); r++ {
		out[r] = w.Proc(r).ReadAt(0, w.Proc(r).WindowWords())
	}
	return out
}

// checkBoundary asserts that every rank's window matches the oracle
// snapshot of phase boundary ph bit for bit.
func checkBoundary(t *testing.T, w *rma.World, snap [][]uint64, ph int, when string) {
	t.Helper()
	for r := 0; r < w.N(); r++ {
		got := w.Proc(r).ReadAt(0, w.Proc(r).WindowWords())
		for i := range got {
			if got[i] != snap[r][i] {
				t.Fatalf("%s: rank %d word %d = %#x, oracle(boundary %d) = %#x",
					when, r, i, got[i], ph, snap[r][i])
			}
		}
	}
}

// runCrashRecoverySeed executes one seed: oracle run, failure run with
// injected kills, and bit-identity checks after every recovery and at the
// end. Returns how many causal recoveries, coordinated fallbacks, and
// host-death parity rebuilds ran.
func runCrashRecoverySeed(t *testing.T, seed int64) (causal, fallback, rebuilds int) {
	crng := rand.New(rand.NewSource(seed * 0x9e3779b1))
	combining := crng.Intn(2) == 0
	cfg := Config{
		Groups:            1 + crng.Intn(2),
		ChecksumsPerGroup: 1 + crng.Intn(2),
		Log:               LogConfig{Puts: true, Gets: true},
	}
	if crng.Intn(2) == 0 {
		cfg.Log.BudgetBytes = 2048 // tight: demand checkpoints + trims fire
	}
	switch crng.Intn(3) {
	case 1:
		cfg.FixedInterval = 1e-3 // occasional coordinated rounds
	case 2:
		cfg.FixedInterval = 1e-12 // coordinated round at every gsync
	}
	if crng.Intn(2) == 0 {
		// Tiny arena: segment drops, straddling filters, and compaction
		// all run under the live protocol.
		cfg.Log.SlabWords, cfg.Log.SegmentRecords = 32, 4
	}
	if crng.Intn(2) == 0 {
		// Streaming demand checkpoints with a random pipeline depth (1 =
		// strictly serial chain, >1 = overlapped), so the chunk pipeline
		// runs under the randomized kill schedule.
		cfg.Stream.Demand = true
		cfg.Stream.ChunkBytes = 256
		cfg.Stream.Depth = 1 + crng.Intn(4)
	}
	if cfg.Groups >= 2 && crng.Intn(2) == 0 {
		// Peer-hosted parity: every (group, level) resides at an elected
		// rank and dies with it, so random kills also hit parity hosts and
		// exercise the rebuild + re-election path. Restricted to >= 2
		// groups, where the out-of-group placement policy always holds and
		// every single kill stays recoverable: a lost member's group still
		// has its (remotely hosted) parity, a lost host's group still has
		// every member copy to re-encode from.
		cfg.PeerParityHosts = true
	}

	nk := 1 + crng.Intn(2)
	seen := map[int]bool{}
	var kills []killEvent
	for len(kills) < nk {
		a := 1 + crng.Intn(crPhases)
		if seen[a] {
			continue
		}
		seen[a] = true
		kills = append(kills, killEvent{after: a, victim: crng.Intn(crRanks)})
	}
	sort.Slice(kills, func(i, j int) bool { return kills[i].after < kills[j].after })

	words := crWindowWords()

	// Failure-free oracle: snapshot every phase boundary.
	oracle := rma.NewWorld(rma.Config{N: crRanks, WindowWords: words})
	snaps := make([][][]uint64, crPhases+1)
	snaps[0] = snapWindows(oracle)
	for ph := 0; ph < crPhases; ph++ {
		cur := ph
		oracle.Run(func(r int) { crPhase(oracle.Proc(r), seed, cur, combining) })
		snaps[ph+1] = snapWindows(oracle)
	}

	// Failure run under the full protocol.
	w := rma.NewWorld(rma.Config{N: crRanks, WindowWords: words})
	sys, err := NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Make the initial (zero) state recoverable, as applications do.
	w.Run(func(r int) { sys.Process(r).UCCheckpoint() })

	ph, steps := 0, 0
	for ph < crPhases {
		cur := ph
		w.Run(func(r int) { crPhase(sys.Process(r), seed, cur, combining) })
		ph++
		steps++
		for len(kills) > 0 && steps >= kills[0].after {
			k := kills[0]
			kills = kills[1:]
			w.Kill(k.victim)
			res, err := sys.Recover(k.victim)
			switch {
			case err == nil:
				w.RunRank(k.victim, func() { res.Proc.ReplayAll(res.Logs) })
				// Pure replay fast-forwards p_new to the survivors' phase;
				// the batch system communicates the resume point (§4.3) —
				// the driver plays that role here.
				res.Proc.gnc.Store(int64(ph))
				// The dead rank's source-side put logs (protecting OTHER
				// ranks' windows) died with it, so until every rank is
				// checkpointed again a second failure would be unrecoverable
				// causally. Re-establish full coverage the way production
				// drivers do: a collective uncoordinated checkpoint right
				// after recovery (all ranks are quiesced at an epoch
				// boundary, satisfying §3.2.2's epoch condition).
				w.Run(func(r int) { sys.Process(r).UCCheckpoint() })
				causal++
			case errors.Is(err, ErrFallback):
				fallback++
				resume := res.Proc.GNC()
				if resume > ph {
					t.Fatalf("rollback to the future: GNC %d > phase %d", resume, ph)
				}
				ph = resume // re-execute from the coordinated checkpoint
			default:
				t.Fatal(err)
			}
			checkBoundary(t, w, snaps[ph], ph,
				fmt.Sprintf("after recovery of rank %d (step %d)", k.victim, steps))
		}
	}
	checkBoundary(t, w, snaps[crPhases], crPhases, "final state")
	return causal, fallback, sys.Stats().ParityRebuilds
}

// TestRandomizedCrashRecovery drives the property over crSeeds seeds, one
// subtest each, and checks that the suite as a whole exercised both
// recovery paths (causal replay and coordinated fallback).
func TestRandomizedCrashRecovery(t *testing.T) {
	causal, fallback, rebuilds := 0, 0, 0
	for seed := int64(1); seed <= crSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, f, rb := runCrashRecoverySeed(t, seed)
			causal += c
			fallback += f
			rebuilds += rb
		})
	}
	if t.Failed() {
		return
	}
	if causal == 0 {
		t.Error("no seed exercised causal recovery")
	}
	if fallback == 0 {
		t.Error("no seed exercised the coordinated fallback")
	}
	if rebuilds == 0 {
		t.Error("no seed killed an elected parity host (rebuild path unexercised)")
	}
	t.Logf("recoveries across %d seeds: %d causal, %d fallback, %d parity rebuilds",
		crSeeds, causal, fallback, rebuilds)
}
