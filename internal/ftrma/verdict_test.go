package ftrma

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rma"
)

// TestClassifyMatchesRecover is the analytical tier for the survivability
// rule: over seeded random worlds, placements and crashes, Classify —
// evaluated on the parity placement before the crash, without running
// anything — predicts what System.Recover then does. Causal must recover
// (nil error), Fallback must roll back (ErrFallback), Catastrophic must
// fail with any other error. Crashes are biased towards parity hosts, so
// the host-alive terms of the rule are exercised, not just the counts.
func TestClassifyMatchesRecover(t *testing.T) {
	const cases, words = 600, 16
	rng := rand.New(rand.NewSource(26))
	seen := map[Verdict]int{}
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(15)
		groups := 1 + rng.Intn(n)
		if rng.Intn(4) == 0 {
			groups = 1 // the only grouping that hosts parity in-group
		}
		m := 1 + rng.Intn(2)
		peer := rng.Intn(2) == 0
		w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
		sys, err := NewSystem(w, Config{
			Groups: groups, ChecksumsPerGroup: m, PeerParityHosts: peer,
			Log: LogConfig{Puts: true, Gets: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(r int) { sys.Process(r).UCCheckpoint() })
		for phase := 0; phase < 2; phase++ {
			w.Run(func(r int) {
				p := sys.Process(r)
				p.Put((r+1)%n, r, []uint64{uint64(100*phase + r + 1)})
				p.Gsync()
			})
		}

		// 1–3 victims; the first one a parity host a third of the time.
		k := 1 + rng.Intn(min(3, n-1))
		victims := rng.Perm(n)[:k]
		if h := sys.ParityHostRank(rng.Intn(groups), rng.Intn(NumLevels)); h >= 0 && rng.Intn(3) == 0 {
			others := slices.DeleteFunc(victims, func(r int) bool { return r == h })
			victims = append([]int{h}, others...)[:k]
		}
		f := victims[0]
		// Optionally leave the victim's get towards a survivor open: the
		// survivor's N flag about it is then raised.
		flagged := rng.Intn(4) == 0
		if flagged {
			q := (f + 1) % n
			for slices.Contains(victims, q) {
				q = (q + 1) % n
			}
			w.RunRank(f, func() { sys.Process(f).Get(q, 0, 1) })
		}
		placed := [][NumLevels]int{}
		for g := 0; g < groups; g++ {
			placed = append(placed, [NumLevels]int{sys.ParityHostRank(g, LevelUC), sys.ParityHostRank(g, LevelCC)})
		}
		want := Classify(sys.Grouping(), func(g, l int) int { return placed[g][l] }, NumLevels, victims, flagged)
		seen[want]++

		for _, v := range victims {
			w.Kill(v)
		}
		_, err = sys.Recover(f)
		var got Verdict
		switch {
		case err == nil:
			got = VerdictCausal
		case errors.Is(err, ErrFallback):
			got = VerdictFallback
		default:
			got = VerdictCatastrophic
		}
		if got != want {
			t.Fatalf("case %d: n %d, %d groups, m %d, peer hosts %v, hosts %v, victims %v, flagged %v: Classify says %v, Recover did %v (%v)",
				c, n, groups, m, peer, placed, victims, flagged, want, got, err)
		}
	}
	t.Logf("verdicts over %d cases: %v", cases, fmt.Sprint(seen))
	for _, v := range []Verdict{VerdictCausal, VerdictFallback, VerdictCatastrophic} {
		if seen[v] < cases/20 {
			t.Errorf("only %d %v cases of %d: the sample does not exercise the rule", seen[v], v, cases)
		}
	}
}
