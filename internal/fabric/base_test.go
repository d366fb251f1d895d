package fabric

// Tests of the copy-on-write committed base (base.go). The reference is the
// algorithm it replaced: a full copy of the window as the base, advanced at
// each commit by XORing the fold's delta into it.

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/ftrma"
	"repro/internal/rma"
	"repro/internal/transport/wire"
)

// scanDiff is the full-scan diff of w against the base b: one offset and one
// XOR delta per changed run.
func scanDiff(w, b []uint64) (offs []int, deltas [][]uint64) {
	for i := 0; i < len(w); {
		if w[i] == b[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(w) && w[j] != b[j] {
			j++
		}
		delta := make([]uint64, j-i)
		for k := i; k < j; k++ {
			delta[k-i] = w[k] ^ b[k]
		}
		offs = append(offs, i)
		deltas = append(deltas, delta)
		i = j
	}
	return offs, deltas
}

// checkSavedInvariant holds nd's saved chunks to the store's rule: every
// chunk stamped after the commit has a zero marker over committed words that
// are zero, or a copy of its own. Caller holds ckptMu and winMu.
func checkSavedInvariant(t *testing.T, nd *Node, base []uint64, when string) {
	t.Helper()
	owner := map[int32]int{}
	for off, n, ok := nd.dirty.Next(0, nd.ckptGen); ok; off, n, ok = nd.dirty.Next(off+n, nd.ckptGen) {
		c, k := off/chunkWords, nd.saved[off/chunkWords]
		switch {
		case k == zeroCopy:
			if slices.ContainsFunc(base[off:off+n], func(x uint64) bool { return x != 0 }) {
				t.Fatalf("%s: chunk %d has a zero marker over committed words that are not zero", when, c)
			}
		case k < 0 || int(k) >= len(nd.copies)/chunkWords:
			t.Fatalf("%s: chunk %d has copy %d of %d", when, c, k, len(nd.copies)/chunkWords)
		default:
			if o, ok := owner[k]; ok {
				t.Fatalf("%s: chunks %d and %d share copy %d", when, o, c, k)
			}
			owner[k] = c
		}
	}
	if zeroWords != [chunkWords]uint64{} {
		t.Fatalf("%s: the zero words were written", when)
	}
}

// baseFetchServer serves fBaseFetch for whatever node *nd points at over
// a wire connection pair, as a survivor serves the crisis arbiter.
func baseFetchServer(t *testing.T, nd **Node) *wire.Conn {
	t.Helper()
	cn, sn := net.Pipe()
	server := wire.New(sn, wire.Config{VecHandler: func(byte, []byte, wire.Reply) (byte, *wire.Vec, error) {
		return (*nd).handleBaseFetch()
	}})
	client := wire.New(cn, wire.Config{})
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client
}

// TestCopyOnWriteBaseMatchesFullCopy is the differential test of the store
// against the full-copy base: seeded interleavings of writes (random words,
// zeros, committed words, the window's own), diffs, folds that commit or
// fail and are retried, writes landing while a fold is in flight, base
// fetches over the wire (quiesce: no fold in flight) and installs followed
// by a replay. After every step the overlaid base equals the shadow base
// kept the old way, and the store's invariant holds; every diff equals the
// full scan of the window against the shadow, and a retried fold ships the
// delta of its first attempt.
func TestCopyOnWriteBaseMatchesFullCopy(t *testing.T) {
	for _, words := range []int{5*chunkWords + 17, 40 * chunkWords} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("words%d/seed%d", words, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				nd := bareNode(words)
				shadow := make([]uint64, words)
				client := baseFetchServer(t, &nd)
				var flight *ckptDelta // the fold in flight: its delta as diffed
				s := snap{ec: make([]int, 2)}
				pick := func() (off, n int) {
					switch rng.Intn(4) {
					case 0: // straddles a chunk boundary
						n = 2 + rng.Intn(80)
						off = chunkWords*(1+rng.Intn(words/chunkWords)) - 1 - rng.Intn(n-1)
					case 1: // ends with the window
						n = 1 + rng.Intn(40)
						off = words - n
					default:
						n = 1 + rng.Intn(3*chunkWords)
						off = rng.Intn(words - n + 1)
					}
					off = max(off, 0)
					return off, min(n, words-off)
				}
				for step := 0; step < 600; step++ {
					op := rng.Intn(10)
					when := fmt.Sprintf("step %d (op %d)", step, op)
					switch op {
					case 0, 1, 2, 3: // a write, in flight or not
						off, n := pick()
						data := randWords(rng, n)
						switch rng.Intn(4) {
						case 0:
							clear(data)
						case 1:
							copy(data, shadow[off:off+n]) // the committed words
						case 2:
							data = nd.ReadAt(off, n) // stamped, unchanged
						}
						nd.WriteAt(off, data)
					case 4, 5: // the checkpoint's diff
						if flight != nil {
							continue // a fold is in flight: it is retried, not diffed again
						}
						nd.ckptMu.Lock()
						nd.diffRanges()
						nd.winMu.Lock()
						offs, deltas := scanDiff(nd.window, shadow)
						nd.winMu.Unlock()
						nd.ckptMu.Unlock()
						i := 0
						nd.delta.each(func(off int, delta []uint64) {
							if i >= len(offs) || off != offs[i] || !slices.Equal(delta, deltas[i]) {
								t.Fatalf("%s: run %d of the diff at %d differs from the full scan against the full-copy base", when, i, off)
							}
							i++
						})
						if i != len(offs) {
							t.Fatalf("%s: the diff has %d runs, the full scan against the full-copy base %d", when, i, len(offs))
						}
						flight = &ckptDelta{runs: slices.Clone(nd.delta.runs), words: slices.Clone(nd.delta.words), gen: nd.delta.gen}
					case 6: // the fold fails: nothing is committed, the retry ships the same delta
						if flight == nil {
							continue
						}
						if !slices.Equal(nd.delta.runs, flight.runs) || !slices.Equal(nd.delta.words, flight.words) {
							t.Fatalf("%s: the retry would ship another delta than the failed fold", when)
						}
					case 7, 8: // the fold is acked: commit, and the old way XORs the delta in
						if flight == nil {
							continue
						}
						nd.ckptMu.Lock()
						nd.commitBase(s)
						nd.ckptMu.Unlock()
						flight.each(func(off int, delta []uint64) {
							for k, x := range delta {
								shadow[off+k] ^= x
							}
						})
						flight = nil
					case 9: // quiesce: a base fetch, or an install and its replay
						if flight != nil {
							continue
						}
						if rng.Intn(2) == 0 {
							reply, err := client.Call(fBaseFetch, nil)
							if err != nil {
								t.Fatal(err)
							}
							d := wire.NewDec(reply)
							decSnap(d)
							if got := d.WordsAlias(); d.Failed() || !slices.Equal(got, shadow) {
								t.Fatalf("%s: the base fetch returned another base than the full copy", when)
							}
							continue
						}
						// The replacement's window is its rebuilt base.
						var rl ftrma.ReplayLogs
						for k := rng.Intn(4); k > 0; k-- {
							off, n := pick()
							rl.Puts = append(rl.Puts, ftrma.LogRecord{Kind: ftrma.LogPut, Op: rma.OpReplace, Off: off, Data: randWords(rng, n)})
						}
						repl := bareNode(words)
						repl.window = slices.Clone(shadow)
						if err := repl.replay(&rl); err != nil {
							t.Fatal(err)
						}
						nd = repl
					}
					nd.ckptMu.Lock()
					nd.winMu.Lock()
					base := committedBaseLocked(nd)
					for i := range base {
						if base[i] != shadow[i] {
							t.Fatalf("%s: the overlaid base differs from the full-copy base at word %d", when, i)
						}
					}
					checkSavedInvariant(t, nd, base, when)
					nd.winMu.Unlock()
					nd.ckptMu.Unlock()
				}
			})
		}
	}
}

// TestFillSavesNothing: the set-up fill of a fresh window saves no copy —
// every chunk it covers held the initial zeros, so each gets the zero
// marker — and its commit drops them all. Then, over halo phases on a
// 1<<18-word window, every rank at rest holds exactly the chunks written
// since its last commit, and a steady phase allocates nothing window-sized.
func TestFillSavesNothing(t *testing.T) {
	const n, words, phases = 4, 1 << 18, 40
	f := startTestFabricWords(t, newPipeNet(), n, 2, words, fastTuning)
	for _, tn := range f.nodes {
		tn.WriteAt(0, randWords(rand.New(rand.NewSource(int64(tn.rank))), words))
		if copies, zeros := savedChunks(tn.Node); copies != 0 || zeros != words/chunkWords {
			t.Fatalf("rank %d: the fill saved %d copies and %d zero markers, want 0 and %d", tn.rank, copies, zeros, words/chunkWords)
		}
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the fill")
	// A halo phase: every rank puts 8 words to each peer at the slot of
	// (rank, p), flushes, and only then do the ranks sync, so every put is
	// in its target's diff.
	halo := func(p int) {
		var wg sync.WaitGroup
		for _, tn := range f.nodes {
			tn := tn
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < n; q++ {
					if q != tn.rank {
						tn.Put(q, (tn.rank*16+p%16)*8, randWords(rand.New(rand.NewSource(int64(p))), 8))
						tn.Flush(q)
					}
				}
			}()
		}
		wg.Wait()
		syncAll(t, f)
	}
	halo(0)
	halo(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := 2; p < phases; p++ {
		halo(p)
	}
	runtime.ReadMemStats(&after)
	perPhase := (after.TotalAlloc - before.TotalAlloc) / (phases - 2)
	t.Logf("a steady halo phase allocates %d B on 4 ranks", perPhase)
	const window = 8 * words
	if perPhase >= window/8 {
		t.Errorf("a steady halo phase allocates %d B, an eighth of a %d B window or more", perPhase, window)
	}
	checkCommitted(t, f, "after the halo phases")
	// Written since the last commit: rank r writes chunks 3, 4 and 9 (the
	// first two in one write), and nothing else moves.
	for _, tn := range f.nodes {
		tn.WriteAt(3*chunkWords+60, make([]uint64, 10))
		tn.WriteAt(9*chunkWords, []uint64{uint64(tn.rank)})
		if copies, zeros := savedChunks(tn.Node); copies+zeros != 3 {
			t.Fatalf("rank %d holds %d copies and %d zero markers, want the 3 chunks written since its commit", tn.rank, copies, zeros)
		}
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the last phase")
}

// TestCopyOnWriteBaseThroughRecovery carries the differential test through a
// crisis on four ranks in two groups. After seeded phases of writes and puts
// every committed base at rest is its window (checkCommitted), and that
// window is the full copy the old way kept. Every rank then writes without a
// fold, so the survivors serve their base fetches — and the arbiter reads
// its own base — with saved chunks laid over the window, and a random
// victim is killed and replaced: every base, the replacement's included,
// still equals its full copy, and after the next phase checkCommitted holds
// again. Nobody but the victim is condemned.
func TestCopyOnWriteBaseThroughRecovery(t *testing.T) {
	const n, words = 4, 40 * chunkWords
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := startTestFabricWords(t, newPipeNet(), n, 2, words, fastTuning)
			f.onlyKilledCondemned = true
			write := func() (off int, data []uint64) {
				k := 1 + rng.Intn(3*chunkWords)
				return rng.Intn(words - k + 1), randWords(rng, k)
			}
			for p := 0; p < 4; p++ {
				for _, tn := range f.nodes {
					tn.WriteAt(write())
					if q := rng.Intn(n); q != tn.rank {
						off, data := write()
						tn.Put(q, off, data)
						tn.Flush(q) // acked before any rank diffs
					}
				}
				syncAll(t, f)
				checkCommitted(t, f, fmt.Sprintf("phase %d", p))
			}
			shadows := make([][]uint64, n)
			for r, tn := range f.nodes {
				shadows[r] = tn.ReadAt(0, words)
				for k := 1 + rng.Intn(4); k > 0; k-- {
					tn.WriteAt(write())
				}
				if !slices.Equal(committedBase(tn.Node), shadows[r]) {
					t.Fatalf("rank %d: the overlaid base differs from the full copy after its writes", r)
				}
			}
			victim := rng.Intn(n)
			repl := f.replace(t, victim)
			for r, tn := range f.nodes {
				if !slices.Equal(committedBase(tn.Node), shadows[r]) {
					t.Fatalf("victim %d: rank %d's overlaid base differs from its full copy after the recovery", victim, r)
				}
			}
			if got := repl.ReadAt(0, words); !slices.Equal(got, shadows[victim]) {
				t.Fatalf("victim %d: the replacement's window is not the victim's committed base", victim)
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the recovery")
		})
	}
}
