package fabric

// Tests of the recovery path's waits. Between a rank's death and the fabric
// running again every stage waits for the event it needs — the verdict, the
// parked install, the replacement going live — and none for a clock: a join
// is held open until there is a world to answer it with, a frame that reaches
// an installing node is held until the node is live, a redelivery is woken by
// the membership table. The one clock left, the back-off after a failed dial,
// is counted (fabric.retry.backoffs), and a kill and replace leaves it at 0.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport/wire"
)

// replace fail-stops rank victim, waits — like the benchmark's harness — for
// the next rank's verdict, and joins a replacement through that rank.
func (f *testFabric) replace(t *testing.T, victim int) *testNode {
	t.Helper()
	observer := f.nodes[(victim+1)%len(f.nodes)]
	f.cmu.Lock()
	if f.killed == nil {
		f.killed = map[int]bool{}
	}
	f.killed[victim] = true
	f.cmu.Unlock()
	f.nodes[victim].closeWithin(t, 0)
	await(t, "the verdict", func() bool { return !observer.sees(victim).Alive })
	repl, err := f.join(observer.addr)
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	if repl.rank != victim {
		t.Fatalf("the replacement took rank %d, want %d", repl.rank, victim)
	}
	f.all = append(f.all, repl)
	f.nodes[victim] = repl
	return repl
}

// backoffs sums fabric.retry.backoffs over every node the fabric ever had.
func (f *testFabric) backoffs() (n uint64) {
	for _, tn := range f.all {
		n += tn.om.backoffs.Load()
	}
	return n
}

// parkedJoins counts the fJoin handlers running in this process.
func parkedJoins() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Node).handleJoin("))
}

// ghostJoin sends an fJoin for a joiner that will never be a node and waits
// until a handler holds it. The channel reports how the call ended.
func ghostJoin(t *testing.T, pn *pipeNet, addr string) (*wire.Conn, <-chan error) {
	t.Helper()
	nc, err := pn.dialer("ghost").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ghost := wire.New(nc, wire.Config{})
	var e wire.Enc
	e.Str("ghost")
	held := parkedJoins()
	gone := make(chan error, 1)
	go func() {
		_, err := ghost.Call(fJoin, e.Bytes())
		gone <- err
	}()
	await(t, "the ghost's join to park", func() bool { return parkedJoins() == held+1 })
	return ghost, gone
}

// recoveryTime bootstraps four ranks on a filled 64 Ki-word window, closes a
// phase, kills victim at the top of the next one while the others run it,
// replaces it, and returns the time from the victim's Close until all four
// ranks are past that phase's Sync.
func recoveryTime(t *testing.T, gossip time.Duration, victim int) time.Duration {
	t.Helper()
	const n, words = 4, 64 << 10
	// A lease far longer than the test: only a closed connection is a death.
	f := startTestFabricWords(t, newPipeNet(), n, 2, words, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: gossip})
	errs := make(chan error, n)
	for _, tn := range f.nodes {
		tn := tn
		go func() {
			tn.WriteAt(n*testPhases, randWords(rand.New(rand.NewSource(int64(tn.rank))), words-n*testPhases))
			errs <- drivePhases(tn.Node, 0, 1)
		}()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r, tn := range f.nodes {
		if r != victim {
			tn := tn
			go func() { errs <- runPhase(tn.Node, 1) }()
		}
	}
	t0 := time.Now()
	repl := f.replace(t, victim)
	if err := runPhase(repl.Node, 1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	el := time.Since(t0)
	if got := f.backoffs(); got != 0 {
		t.Errorf("gossip %v, victim %d: the recovery waited on a clock %d times (fabric.retry.backoffs)", gossip, victim, got)
	}
	syncAll(t, f) // the phase's puts may have landed after their target's diff
	checkCommitted(t, f, "after the recovery")
	return el
}

// TestRecoveryIgnoresGossipInterval: a kill costs its work, whatever the
// gossip period. Gossip is anti-entropy; no stage of a recovery waits for its
// tick. With a 2 s period (which -short skips) every stage that did would add
// 2 s; the recovery takes what it takes at 20 ms, within the spread of
// repeating either. The victims are the arbiter, a parity host and a rank
// that hosts nothing.
func TestRecoveryIgnoresGossipInterval(t *testing.T) {
	const limit = 500 * time.Millisecond
	victims := []int{0, 1, 2} // 0 arbitrates and hosts group 1, 1 hosts group 0, 2 hosts nothing
	measure := func(gossip time.Duration) (med, spread time.Duration) {
		var els []time.Duration
		for rep := 0; rep < 2; rep++ {
			for _, v := range victims {
				// A subtest each, so that each fabric is torn down (and held
				// to its Close contract) before the next one starts.
				t.Run(fmt.Sprintf("gossip%v-victim%d-%d", gossip, v, rep), func(t *testing.T) {
					el := recoveryTime(t, gossip, v)
					t.Logf("recovered in %v", el)
					if el > limit {
						t.Errorf("the recovery took %v, want < %v", el, limit)
					}
					els = append(els, el)
				})
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		slices.Sort(els)
		return els[len(els)/2], els[len(els)-1] - els[0]
	}
	fast, fastSpread := measure(20 * time.Millisecond)
	if testing.Short() {
		return
	}
	slow, slowSpread := measure(2 * time.Second)
	// Under 5 % of the limit the two are the same number on a shared machine.
	if diff, spread := (slow - fast).Abs(), max(fastSpread, slowSpread, limit/20); diff > spread {
		t.Errorf("the median recovery is %v at a 20 ms gossip period and %v at 2 s: %v apart, repeats spread %v", fast, slow, diff, spread)
	}
}

// TestJoinLongPoll: an fJoin is answered when there is an answer. A join
// that reaches the arbiter before anybody is dead is held through the
// verdict and the log gather and comes back with the world in that one
// exchange, and the replacement's confirm is the one more fJoin it sends; a
// joiner that hangs up lets go of the handler holding its request.
func TestJoinLongPoll(t *testing.T) {
	const n, victim = 4, 2
	pn := newPipeNet()
	var mu sync.Mutex
	joins := map[string]int{} // fJoin frames by sender
	pn.onFrame = func(from, _ string, ft byte, _ []byte) {
		if ft == fJoin {
			mu.Lock()
			joins[from]++
			mu.Unlock()
		}
	}
	f := startTestFabric(t, pn, n, 2, benchTuning)
	errs := make(chan error, n)
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- drivePhases(tn.Node, 0, 1) }()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	arbiter := f.nodes[0]

	// A joiner that never becomes a node: its request parks, it hangs up.
	ghost, gone := ghostJoin(t, pn, arbiter.addr)
	ghost.Close()
	if err := <-gone; err == nil {
		t.Fatal("a join nobody could answer was answered")
	}
	await(t, "the hang-up to release the handler", func() bool { return parkedJoins() == 0 })

	// The replacement joins through a rank that is not the arbiter, while
	// everybody is still alive: one redirect, then the arbiter holds it.
	type joined struct {
		tn  *testNode
		err error
	}
	done := make(chan joined, 1)
	go func() {
		tn, err := f.join(f.nodes[3].addr)
		done <- joined{tn, err}
	}()
	await(t, "the replacement's join to park at the arbiter", func() bool { return parkedJoins() == 1 })
	select {
	case j := <-done:
		t.Fatalf("a join was answered with nobody dead: %+v", j)
	default:
	}
	for r, tn := range f.nodes {
		if r != victim {
			tn := tn
			go func() { errs <- runPhase(tn.Node, 1) }()
		}
	}
	f.nodes[victim].closeWithin(t, 0)
	j := <-done
	if j.err != nil {
		t.Fatalf("the held join failed: %v", j.err)
	}
	f.all = append(f.all, j.tn)
	f.nodes[victim] = j.tn
	if j.tn.rank != victim || j.tn.inc != 1 || j.tn.Phase() != 1 {
		t.Fatalf("the held join made rank %d inc %d at phase %d, want rank %d inc 1 at phase 1", j.tn.rank, j.tn.inc, j.tn.Phase(), victim)
	}
	mu.Lock()
	if got := joins[j.tn.addr]; got != 3 {
		t.Errorf("the replacement sent %d fJoin frames, want one to the rank it joined through, one to the arbiter and its confirm", got)
	}
	mu.Unlock()
	go func() { errs <- runPhase(j.tn.Node, 1) }()
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := f.backoffs(); got != 0 {
		t.Errorf("the kill and replace waited on a clock %d times (fabric.retry.backoffs)", got)
	}
}

// TestReplaceRefusesNothing: twenty kills and replacements, the survivors
// flushing to the victim throughout. A batch, a fold or a gossip frame that
// reaches the replacement while it installs is held and served once it is
// live, so no node that stays up ever answers CodeCrisis; every held batch
// lands, once; nobody but the victims is condemned.
func TestReplaceRefusesNothing(t *testing.T) {
	const n, rounds, phases = 4, 20, 2 * 20
	pn := newPipeNet()
	var mu sync.Mutex
	byAddr := map[string]*Node{} // the nodes that are live; one installing is not in it yet
	refusals := map[string]int{} // CodeCrisis replies of nodes that were not closed, by address
	pn.onReply = func(to string, rt byte, payload []byte) bool {
		if rt == 0xFF && len(payload) > 0 && payload[0] == wire.CodeCrisis {
			mu.Lock()
			if nd := byAddr[to]; nd == nil || nd.state.Load() != stClosed {
				refusals[to]++
			}
			mu.Unlock()
		}
		return false
	}
	f := startTestFabricWords(t, pn, n, 2, n*phases, fastTuning)
	mu.Lock()
	for _, tn := range f.nodes {
		byAddr[tn.addr] = tn.Node
	}
	mu.Unlock()
	errs := make(chan error, n)
	all := func(p int, but int) {
		for r, tn := range f.nodes {
			if r != but {
				tn := tn
				go func() { errs <- putPhase(tn.Node, p, phases) }()
			}
		}
	}
	wait := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	kills := make([]int, n)
	for round := 0; round < rounds; round++ {
		victim := (round*3 + 1) % n // 1, 0, 3, 2, ...: every rank five times
		all(2*round, -1)
		wait(n)
		kills[victim]++
		all(2*round+1, victim) // the survivors' batches to the victim park
		repl := f.replace(t, victim)
		mu.Lock()
		byAddr[repl.addr] = repl.Node
		mu.Unlock()
		go func() { errs <- putPhase(repl.Node, 2*round+1, phases) }()
		wait(n)
	}
	for r, tn := range f.nodes {
		for src := 0; src < n; src++ {
			for p := 0; p < phases && src != r; p++ {
				if got := tn.ReadAt(src*phases+p, 1)[0]; got != testVal(src, p) {
					t.Errorf("rank %d word (%d, %d) = %#x, want %#x", r, src, p, got, testVal(src, p))
				}
			}
		}
		for q := 0; q < n; q++ {
			if m := tn.sees(q); !m.Alive || m.Incarnation != kills[q] {
				t.Errorf("rank %d ends up seeing %+v after %d kills of that rank", r, m, kills[q])
			}
		}
	}
	// A verdict is a transition of the table from alive to dead, and each of
	// the three survivors of a kill makes it at most once.
	var verdicts uint64
	for _, tn := range f.all {
		verdicts += tn.om.condemned.Load()
	}
	if verdicts > rounds*(n-1) {
		t.Errorf("%d verdicts for %d kills with %d survivors each: a bystander was condemned", verdicts, rounds, n-1)
	}
	mu.Lock()
	for addr, k := range refusals { // a victim may refuse on its way down; nobody else
		t.Errorf("the node at %s answered CodeCrisis %d times while installing or live", addr, k)
	}
	mu.Unlock()
	if got := f.backoffs(); got != 0 {
		t.Errorf("%d kills and replacements waited on a clock %d times (fabric.retry.backoffs)", rounds, got)
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the run")
}

// TestReplacementKilledBeforeItsFirstFold kills a replacement mid-recovery:
// the first replacement of a victim closes before its first Sync, so it
// never folds, and a second replacement still brings the fabric through
// every phase with each write-once word in place. The victims are the
// arbiter, a parity host and a rank that hosts nothing.
func TestReplacementKilledBeforeItsFirstFold(t *testing.T) {
	for _, victim := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			const n = 4
			f := startTestFabric(t, newPipeNet(), n, 2, fastTuning)
			errs := make(chan error, n)
			wait := func() {
				t.Helper()
				for range f.nodes {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, tn := range f.nodes {
				tn := tn
				go func() { errs <- runPhase(tn.Node, 0) }()
			}
			wait()
			for r, tn := range f.nodes {
				if r != victim {
					tn := tn
					go func() { errs <- runPhase(tn.Node, 1) }()
				}
			}
			first := f.replace(t, victim)
			second := f.replace(t, victim)
			if first.inc != 1 || second.inc != 2 {
				t.Fatalf("the replacements have incarnations %d and %d, want 1 and 2", first.inc, second.inc)
			}
			go func() { errs <- runPhase(second.Node, 1) }()
			wait()
			for _, tn := range f.nodes {
				tn := tn
				go func() { errs <- drivePhases(tn.Node, 2, testPhases) }()
			}
			wait()
			for r, tn := range f.nodes {
				for src := 0; src < n; src++ {
					for p := 0; p < testPhases && src != r; p++ {
						if got := tn.ReadAt(src*testPhases+p, 1)[0]; got != testVal(src, p) {
							t.Errorf("rank %d word (%d, %d) = %#x, want %#x", r, src, p, got, testVal(src, p))
						}
					}
				}
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the second replacement")
		})
	}
}

// TestRecoveryWindowTraffic counts one recovery in windows: how many cross
// the wire (fabric.wire.bytes.sent, summed over every node) and how many
// window-sized buffers the process allocates (runtime.MemStats.TotalAlloc),
// from the kill until the replacement has joined. The 2 MiB window keeps
// every window-sized frame body out of wire's pool, so each receive is an
// allocation of its own. Ranks 0 and 1 host the parity of groups 1 and 0, so
// their replacement rebuilds a shard as well as its base: the shard from the
// two members' bases, the base from the other member's and the parity — 4
// windows on the wire for a host, 2 for the others; the join reply carries
// log records only. Each is received into one buffer and kept there, and
// nothing else window-sized is allocated: each rebuild XORs in the first
// buffer fetched, which stays the hosted shard or becomes the window — the
// replacement's committed base is that window, with no chunk saved yet.
// Nobody but the victim is condemned, the teardown included.
func TestRecoveryWindowTraffic(t *testing.T) {
	const n, words = 4, 1 << 18
	wantWire := []uint64{4, 4, 2, 2}
	wantAllocs := []uint64{4, 4, 2, 2}
	for victim := 0; victim < n; victim++ {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			// No gossip rounds and a lease longer than the test: nothing but the
			// recovery moves bytes between the kill and the join.
			f := startTestFabricWords(t, newPipeNet(), n, 2, words, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: time.Hour})
			f.onlyKilledCondemned = true // the victim alone
			errs := make(chan error, n)
			for _, tn := range f.nodes {
				tn := tn
				go func() {
					tn.WriteAt(0, randWords(rand.New(rand.NewSource(int64(tn.rank))), words))
					errs <- tn.Sync()
				}()
			}
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			wireBytes := func() (sent, recv uint64) {
				for _, tn := range f.all {
					sent += tn.om.wireOut.Load()
					recv += tn.om.wireIn.Load()
				}
				return sent, recv
			}
			sent0, recv0 := wireBytes()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f.replace(t, victim)
			runtime.ReadMemStats(&after)
			// A reply is counted sent once its write returns, which may be
			// after its caller has it: wait until the sends cover the receives.
			await(t, "the sends to be counted", func() bool {
				sent, recv := wireBytes()
				return sent-sent0 >= recv-recv0
			})
			const window = 8 * words
			sent, _ := wireBytes()
			onWire := (sent - sent0 + window/2) / window
			allocs := (after.TotalAlloc - before.TotalAlloc) / window
			t.Logf("victim %d: %d windows on the wire, %d window-sized allocations", victim, onWire, allocs)
			if onWire != wantWire[victim] {
				t.Errorf("victim %d: %d windows on the wire (%d B), want %d", victim, onWire, sent-sent0, wantWire[victim])
			}
			if !raceEnabled && allocs > wantAllocs[victim] {
				t.Errorf("victim %d: the recovery allocated %d windows (%d B), want %d", victim, allocs, after.TotalAlloc-before.TotalAlloc, wantAllocs[victim])
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the recovery")
		})
	}
}

// TestRecoveryFromLocalOperands: on two ranks in one group, rank 0 hosts the
// parity and arbitrates, so both operands of rank 1's rebuild — rank 0's
// committed base and its hosted shard — come from the arbiter, the two
// fetches to it at once. The rebuild leaves both untouched: the replacement
// comes back with the victim's committed window, and every base and the
// parity agree.
func TestRecoveryFromLocalOperands(t *testing.T) {
	const n, words = 2, 1000
	f := startTestFabricWords(t, newPipeNet(), n, 1, words, fastTuning)
	for _, tn := range f.nodes {
		tn.WriteAt(0, randWords(rand.New(rand.NewSource(int64(tn.rank))), words))
	}
	syncAll(t, f)
	if h := f.nodes[0].Hostings()[0].Host; h != 0 {
		t.Fatalf("rank %d hosts the parity, want rank 0", h)
	}
	want := f.nodes[1].ReadAt(0, words)
	repl := f.replace(t, 1)
	if got := repl.ReadAt(0, words); !slices.Equal(got, want) {
		t.Fatal("the replacement's window is not the victim's committed one")
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the recovery")
}

// TestBatchAckedAsItsTargetDies: a batch its target applied and acked just
// before dying reaches the replacement. The source logs a batch (LP) only
// once the ack is back, so the crisis's log fetch — fLogFetch at a survivor,
// the arbiter's own copy — waits until no delivery to the victim is between
// its call and its ackBatch. Here the source's delivery to the victim stops
// in that window, the victim is killed, and the delivery goes on only once
// the crisis has reached its log: the fetch waiting on it, or (had it not
// waited) the install parked without it. The sources are the arbiter and a
// survivor the arbiter fetches from.
func TestBatchAckedAsItsTargetDies(t *testing.T) {
	const n, victim = 4, 2
	for _, src := range []int{0, 3} {
		t.Run(fmt.Sprintf("source%d", src), func(t *testing.T) {
			f := startTestFabric(t, newPipeNet(), n, 2, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: 2 * time.Second})
			errs := make(chan error, n)
			for _, tn := range f.nodes {
				tn := tn
				go func() { errs <- runPhase(tn.Node, 0) }()
			}
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			s, arbiter := f.nodes[src], f.nodes[0]
			reached := func() bool {
				s.ackMu.Lock()
				waiting := s.ackWaiters > 0
				s.ackMu.Unlock()
				arbiter.mmu.Lock()
				defer arbiter.mmu.Unlock()
				return waiting || arbiter.pending != nil
			}
			var once sync.Once
			s.batchCalled = func(target int) {
				if target != victim {
					return
				}
				once.Do(func() {
					f.nodes[victim].Close()
					for deadline := time.Now().Add(10 * time.Second); !reached(); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Error("the crisis never reached the victim's logs")
							return
						}
					}
				})
			}
			for r, tn := range f.nodes {
				if r != victim {
					tn := tn
					go func() { errs <- runPhase(tn.Node, 1) }()
				}
			}
			observer := f.nodes[(victim+1)%n]
			await(t, "the verdict", func() bool { return !observer.sees(victim).Alive })
			f.nodes[victim].log.Close()
			repl, err := f.join(observer.addr)
			if err != nil {
				t.Fatalf("replacement join: %v", err)
			}
			f.all = append(f.all, repl)
			f.nodes[victim] = repl
			go func() { errs <- runPhase(repl.Node, 1) }()
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			for q := 0; q < n; q++ {
				if q == victim {
					continue
				}
				if got := repl.ReadAt(q*testPhases+1, 1)[0]; got != testVal(q, 1) {
					t.Errorf("the replacement has word (%d, 1) = %#x, want %#x", q, got, testVal(q, 1))
				}
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the recovery")
		})
	}
}

// TestCrisisWhileFoldsHeld: a crisis begins while parity hosts hold the
// survivors' folds for the barrier. Gossip runs every 2 s. Quiesce answers
// the held folds, the members commit them and ask again, and the barrier
// releases once the replacement folds: every survivor passes it within
// TestRecoveryIgnoresGossipInterval's limit of the kill, and every base and
// parity agree. Ranks 0 and 1 host groups 1 and 0; rank 0 arbitrates.
func TestCrisisWhileFoldsHeld(t *testing.T) {
	const n, limit = 4, 500 * time.Millisecond
	for _, tc := range []struct {
		name   string
		victim int
	}{
		{"a member killed", 2},             // the arbiter's and ranks 1 and 3's folds held
		{"a host killed while holding", 1}, // ranks 0 and 2's folds held at the victim
		{"the arbiter's own fold held", 3}, // rank 0's fold held at rank 1 as it arbitrates
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startTestFabric(t, newPipeNet(), n, 2, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: 2 * time.Second})
			errs := make(chan error, n)
			for _, tn := range f.nodes {
				tn := tn
				go func() { errs <- runPhase(tn.Node, 0) }()
			}
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			hosted := func() (k uint64) {
				for _, tn := range f.nodes {
					k += tn.om.foldsHosted.Load()
				}
				return k
			}
			before := hosted()
			for r, tn := range f.nodes {
				if r != tc.victim {
					tn := tn
					go func() { errs <- runPhase(tn.Node, 1) }()
				}
			}
			await(t, "the survivors' folds to be held", func() bool { return hosted() == before+n-1 })
			select {
			case err := <-errs:
				t.Fatalf("a survivor passed the barrier without the victim's fold: %v", err)
			default:
			}
			t0 := time.Now()
			repl := f.replace(t, tc.victim)
			go func() { errs <- runPhase(repl.Node, 1) }()
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if el := time.Since(t0); el > limit {
				t.Errorf("the survivors passed the barrier %v after the kill, want < %v", el, limit)
			}
			for r, tn := range f.nodes {
				for q := 0; q < n; q++ {
					for p := 0; p < 2 && q != r; p++ {
						if got := tn.ReadAt(q*testPhases+p, 1)[0]; got != testVal(q, p) {
							t.Errorf("rank %d word (%d, %d) = %#x, want %#x", r, q, p, got, testVal(q, p))
						}
					}
				}
			}
			if got := f.backoffs(); got != 0 {
				t.Errorf("the recovery waited on a clock %d times (fabric.retry.backoffs)", got)
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the recovery")
		})
	}
}

// TestReplacementHostsItsRebuiltShard: the replacement of a parity host
// hosts the group it inherits, its shard rebuilt from the members' bases
// where the replacement runs — crisis.rebuild.us is recorded there, not at
// the arbiter — and the arbiter receives no window-sized frame: no window
// passes through it. The victims are the two hosts, the arbiter among them.
func TestReplacementHostsItsRebuiltShard(t *testing.T) {
	const n, words = 4, 1 << 16
	for _, victim := range []int{0, 1} { // 0 hosts group 1 and arbitrates, 1 hosts group 0
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			f := startTestFabricWords(t, newPipeNet(), n, 2, words, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: time.Hour})
			for _, tn := range f.nodes {
				tn.WriteAt(0, randWords(rand.New(rand.NewSource(int64(tn.rank))), words))
			}
			syncAll(t, f)
			hostings := f.nodes[0].Hostings()
			g := slices.IndexFunc(hostings, func(h Hosting) bool { return h.Host == victim })
			arbiter := f.nodes[1-min(victim, 1)]
			recv0 := arbiter.om.wireIn.Load()
			repl := f.replace(t, victim)
			if got := arbiter.om.wireIn.Load() - recv0; got >= 8*words {
				t.Errorf("the arbiter received %d B during the recovery, a window or more", got)
			}
			repl.parMu.Lock()
			hosted := repl.hosted[g] != nil
			repl.parMu.Unlock()
			if !hosted || !slices.Equal(repl.Hostings(), hostings) {
				t.Fatalf("the replacement of rank %d does not host group %d, or the table moved: %v", victim, g, repl.Hostings())
			}
			if got := repl.om.parityRebuilds.Load(); got != 1 {
				t.Errorf("the replacement rebuilt %d shards, want 1", got)
			}
			if at, there := arbiter.om.crisis[obs.CrisisRebuild].Count(), repl.om.crisis[obs.CrisisRebuild].Count(); at != 0 || there != 1 {
				t.Errorf("crisis.rebuild.us counts %d at the arbiter and %d at the replacement, want 0 and 1", at, there)
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the recovery")
		})
	}
}

// TestReplacementLostBeforeConfirm: a replacement that takes the install and
// hangs up before it confirms — here one that also fetched a survivor's base
// under its incarnation — leaves the install parked again. The next
// replacement takes it under the incarnation after, rebuilds and replays
// it, and brings every survivor's Sync through the barrier: each write-once
// word in place, every base and parity agreeing, nobody but the victim
// condemned.
func TestReplacementLostBeforeConfirm(t *testing.T) {
	const n, victim = 4, 2
	pn := newPipeNet()
	f := startTestFabric(t, pn, n, 2, fastTuning)
	errs := make(chan error, n)
	wait := func() {
		t.Helper()
		for range f.nodes {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- runPhase(tn.Node, 0) }()
	}
	wait()
	for r, tn := range f.nodes {
		if r != victim {
			tn := tn
			go func() { errs <- runPhase(tn.Node, 1) }()
		}
	}
	f.nodes[victim].closeWithin(t, 0)
	observer := f.nodes[(victim+1)%n]
	await(t, "the verdict", func() bool { return !observer.sees(victim).Alive })

	// The lost replacement: it joins at the arbiter, says hello under the
	// install's incarnation, fetches a base, and is gone.
	dial := pn.dialer("lost")
	nc, err := dial.Dial(f.nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	jc := wire.New(nc, wire.Config{})
	var e wire.Enc
	e.Str("lost")
	reply, err := jc.Call(fJoin, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDec(reply)
	if mode := d.B(); mode != jmWorld {
		t.Fatalf("the arbiter answered the join with mode %d", mode)
	}
	w, ok := decWorld(d)
	if !ok || w.rank != victim || w.members[victim].Incarnation != 1 || d.B() != 1 {
		t.Fatalf("the join reply is not rank %d's install at incarnation 1: %+v", victim, w)
	}
	if _, ok := decInstall(d); !ok {
		t.Fatal("undecodable install")
	}
	nc, err = dial.Dial(observer.addr)
	if err != nil {
		t.Fatal(err)
	}
	pc := wire.New(nc, wire.Config{})
	var hello wire.Enc
	hello.I(victim)
	hello.I(1)
	pc.Notify(fHello, hello.Bytes())
	if _, err := pc.Call(fBaseFetch, nil); err != nil {
		t.Fatal(err)
	}
	pc.Close()
	jc.Close()

	repl, err := f.join(observer.addr)
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	f.all = append(f.all, repl)
	f.nodes[victim] = repl
	if repl.rank != victim || repl.inc != 2 || repl.Phase() != 1 {
		t.Fatalf("the replacement is rank %d inc %d at phase %d, want rank %d inc 2 at phase 1", repl.rank, repl.inc, repl.Phase(), victim)
	}
	go func() { errs <- runPhase(repl.Node, 1) }()
	wait()
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- drivePhases(tn.Node, 2, testPhases) }()
	}
	wait()
	for r, tn := range f.nodes {
		for src := 0; src < n; src++ {
			for p := 0; p < testPhases && src != r; p++ {
				if got := tn.ReadAt(src*testPhases+p, 1)[0]; got != testVal(src, p) {
					t.Errorf("rank %d word (%d, %d) = %#x, want %#x", r, src, p, got, testVal(src, p))
				}
			}
		}
		if m := tn.sees(victim); !m.Alive || m.Incarnation != 2 {
			t.Errorf("rank %d sees the victim's slot as %+v", r, m)
		}
		if got := tn.om.condemned.Load(); got > 1 {
			t.Errorf("rank %d passed %d verdicts, want the victim's at most", r, got)
		}
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the second replacement")
}
