package fabric

// Tests of the tracked checkpoint diff. The rule under test: diffRanges,
// which visits only the chunks stamped since the last committed fold, must
// produce exactly the (off, delta) ranges of a scan of the whole window —
// whatever wrote the window, whenever it landed relative to a fold in
// flight, and on a replacement whose window was rebuilt by replay.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rma"
	"repro/internal/transport/wire"
)

// fullScanDiff is the checkpoint diff as it was before the tracker: every
// word of the window against the committed base, one slice per changed run.
// It survives here as the reference the tracked diff is held to. Caller
// holds ckptMu.
func fullScanDiff(nd *Node) (offs []int, deltas [][]uint64) {
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	return scanDiff(nd.window, committedBaseLocked(nd))
}

// committedBaseLocked is nd's committed base as one slice: the window with
// the saved chunks laid over it. Caller holds ckptMu and winMu.
func committedBaseLocked(nd *Node) []uint64 {
	b := make([]uint64, nd.windowWords)
	nd.eachBase(func(off int, w []uint64) { copy(b[off:], w) })
	return b
}

// committedBase is committedBaseLocked under nd's locks.
func committedBase(nd *Node) []uint64 {
	nd.ckptMu.Lock()
	defer nd.ckptMu.Unlock()
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	return committedBaseLocked(nd)
}

// savedChunks counts nd's saved chunks, those stamped after the commit:
// copies, and zero markers.
func savedChunks(nd *Node) (copies, zeros int) {
	nd.winMu.Lock()
	defer nd.winMu.Unlock()
	for off, n, ok := nd.dirty.Next(0, nd.ckptGen); ok; off, n, ok = nd.dirty.Next(off+n, nd.ckptGen) {
		if nd.saved[off/chunkWords] == zeroCopy {
			zeros++
		} else {
			copies++
		}
	}
	return copies, zeros
}

// checkTrackedDiff diffs nd's window both ways and compares range for
// range. Nothing may be writing the window meanwhile. It returns the
// tracked diff's run offsets.
func checkTrackedDiff(t *testing.T, nd *Node, when string) []int {
	t.Helper()
	nd.ckptMu.Lock()
	defer nd.ckptMu.Unlock()
	nd.diffRanges()
	offs, deltas := fullScanDiff(nd)
	var got []int
	nd.delta.each(func(off int, delta []uint64) {
		if i := len(got); i < len(offs) && (off != offs[i] || !slices.Equal(delta, deltas[i])) {
			t.Fatalf("%s: rank %d run %d is [%d,+%d), the full scan has [%d,+%d) (or the delta words differ)",
				when, nd.rank, i, off, len(delta), offs[i], len(deltas[i]))
		}
		got = append(got, off)
	})
	if len(got) != len(offs) {
		t.Fatalf("%s: rank %d tracked diff has runs at %v, the full scan at %v", when, nd.rank, got, offs)
	}
	return got
}

// checkCommitted holds the fabric, at rest after a gsync, to the checkpoint
// invariants: every window equals its committed base and no chunk keeps a
// saved copy (nothing is written between the fold and this check), and
// every group's parity is the plain XOR of its members' bases — the paper's
// checksum, computed here with the ^ operator rather than the code the
// fabric folds with.
func checkCommitted(t *testing.T, f *testFabric, when string) {
	t.Helper()
	bases := make([][]uint64, len(f.nodes))
	for r, tn := range f.nodes {
		bases[r] = committedBase(tn.Node)
		if !slices.Equal(tn.ReadAt(0, tn.windowWords), bases[r]) {
			t.Fatalf("%s: rank %d window differs from its committed base", when, tn.rank)
		}
		if copies, zeros := savedChunks(tn.Node); copies+zeros != 0 {
			t.Fatalf("%s: rank %d keeps %d saved chunks and %d zero markers at rest", when, tn.rank, copies, zeros)
		}
	}
	for _, h := range f.nodes[0].Hostings() {
		want := make([]uint64, f.nodes[0].windowWords)
		for _, r := range f.nodes[0].grouping.ComputeMembers(h.Group) {
			for i, w := range bases[r] {
				want[i] ^= w
			}
		}
		host := f.nodes[h.Host]
		host.parMu.Lock()
		same := slices.Equal(want, host.hosted[h.Group].shards[0])
		host.parMu.Unlock()
		if !same {
			t.Fatalf("%s: group %d parity at rank %d is not the XOR of its members' bases", when, h.Group, h.Host)
		}
	}
}

// syncAll closes a phase on every node at once.
func syncAll(t *testing.T, f *testFabric) {
	t.Helper()
	errs := make(chan error, len(f.nodes))
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- tn.Sync() }()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// TestTrackedDiffMatchesFullScan drives two ranks through seeded random
// mixes of everything that writes a fabric window — WriteAt, self-puts,
// remote puts, local and remote GetCopy landings, writes that restore a
// word's committed value — over ranges that straddle chunk boundaries and
// end on the (short) last chunk, and after every step compares the tracked
// diff with the full scan on both ranks. Every few steps a real gsync folds
// and commits. One rank hosts the parity and folds locally, the other folds
// over the wire. Neither is ever condemned, the teardown included.
func TestTrackedDiffMatchesFullScan(t *testing.T) {
	const words = 5*64 + 17
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := startTestFabricWords(t, newPipeNet(), 2, 1, words, fastTuning)
			f.onlyKilledCondemned = true // fault-free: nobody is condemned
			pick := func() (off, n int) {
				switch rng.Intn(4) {
				case 0: // straddles a chunk boundary
					n = 2 + rng.Intn(40)
					off = 64*(1+rng.Intn(words/64)) - 1 - rng.Intn(n-1)
				case 1: // ends with the window
					n = 1 + rng.Intn(40)
					off = words - n
				default:
					n = 1 + rng.Intn(100)
					off = rng.Intn(words - n + 1)
				}
				off = max(off, 0)
				return off, min(n, words-off)
			}
			for step := 0; step < 240; step++ {
				r := rng.Intn(2)
				nd, peer := f.nodes[r].Node, f.nodes[1-r].Node
				off, n := pick()
				op := rng.Intn(7)
				switch op {
				case 0:
					nd.WriteAt(off, randWords(rng, n))
				case 1:
					nd.Put(nd.rank, off, randWords(rng, n))
				case 2: // a put from the peer
					peer.Put(nd.rank, off, randWords(rng, n))
					peer.Flush(nd.rank)
				case 3: // a get from the peer, landing in the window
					src := rng.Intn(words - n + 1)
					nd.GetCopy(peer.rank, src, n, off)
					nd.Flush(peer.rank)
				case 4: // a get from itself, landing in the window
					nd.GetCopy(nd.rank, rng.Intn(words-n+1), n, off)
				case 5: // stamped, unchanged
					nd.WriteAt(off, nd.ReadAt(off, n))
				case 6: // changed, then back to the committed value
					nd.WriteAt(off, randWords(rng, n))
					nd.WriteAt(off, committedBase(nd)[off:off+n])
				}
				when := fmt.Sprintf("step %d (op %d on rank %d, [%d,+%d))", step, op, r, off, n)
				checkTrackedDiff(t, nd, when)
				checkTrackedDiff(t, peer, when)
				if step%8 == 7 {
					syncAll(t, f)
					checkCommitted(t, f, when)
				}
			}
		})
	}
}

// TestPutBetweenDiffAndCommit: a peer's put that lands after a checkpoint
// diffed the window and before it committed the base is in neither that
// fold nor that base, and the next fold carries it. (A tracker that cleared
// itself at commit would forget the put: window and base would differ where
// no stamp says so, and parity would never hear of it.)
func TestPutBetweenDiffAndCommit(t *testing.T) {
	const words, at = 4 * 64, 2*64 + 5
	val := []uint64{0xfeed, 0xbeef}
	pn := newPipeNet()
	var a, host *Node
	landed := make(chan struct{})
	var once sync.Once
	// The fold frame leaves a after its diff and before its commit: that is
	// when the host puts into a's window.
	pn.onFrame = func(from, _ string, ft byte, _ []byte) {
		if ft == fParityFold && from == a.addr {
			once.Do(func() {
				host.Put(a.rank, at, val)
				host.Flush(a.rank)
				close(landed)
			})
		}
	}
	f := startTestFabricWords(t, pn, 2, 1, words, fastTuning)
	h := f.nodes[0].Hostings()[0].Host
	host, a = f.nodes[h].Node, f.nodes[1-h].Node

	a.WriteAt(3, []uint64{1, 2, 3})
	errs := make(chan error, 2)
	go func() { errs <- a.Sync() }()
	<-landed // the host's workload thread is the hook until here
	go func() { errs <- host.Sync() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := a.ReadAt(at, 2); !slices.Equal(got, val) {
		t.Fatalf("the put did not land: window has %x", got)
	}
	inBase := committedBase(a)[at : at+2]
	if !slices.Equal(inBase, []uint64{0, 0}) {
		t.Fatalf("the base committed %x at the put's offset; the fold was diffed before the put", inBase)
	}
	if got := checkTrackedDiff(t, a, "after the first fold"); !slices.Equal(got, []int{at}) {
		t.Fatalf("the next diff has runs at %v, want the late put's [%d]", got, at)
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the second fold")
	if got := a.om.ckptFolded.Load(); got != 3+2 {
		t.Fatalf("two folds shipped %d delta words, want the 3 written and the 2 put", got)
	}
}

// foldFrames records the fParityFold payloads that leave a node.
type foldFrames struct {
	mu     sync.Mutex
	frames [][]byte
}

func (ff *foldFrames) add(payload []byte) int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.frames = append(ff.frames, append([]byte(nil), payload...))
	return len(ff.frames)
}

// twoAlike fails unless exactly two frames left, byte for byte the same.
func (ff *foldFrames) twoAlike(t *testing.T) {
	t.Helper()
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if len(ff.frames) != 2 || !bytes.Equal(ff.frames[0], ff.frames[1]) {
		t.Fatalf("%d fold frames left the member, want the failed one and an identical retry", len(ff.frames))
	}
}

// TestFoldRetryShipsSameWords: a fold whose host dies under it commits
// nothing, so the retry — at the host's replacement, which hosts the
// group's rebuilt parity — ships the same frame, from the same diff, and
// commits once. Each of the two ranks hosts the other's group.
func TestFoldRetryShipsSameWords(t *testing.T) {
	const words = 4 * 64
	pn := newPipeNet()
	var a *Node
	var sent foldFrames
	leaving, killed := make(chan struct{}), make(chan struct{})
	// The first fold finds its host gone.
	pn.onFrame = func(from, _ string, ft byte, payload []byte) {
		if ft == fParityFold && from == a.addr && sent.add(payload) == 1 {
			close(leaving)
			<-killed
		}
	}
	f := startTestFabricWords(t, pn, 2, 2, words, fastTuning)
	a = f.nodes[0].Node
	h := f.nodes[0].Hostings()[0].Host

	a.WriteAt(60, randWords(rand.New(rand.NewSource(1)), 10)) // two chunks
	a.WriteAt(words-1, []uint64{7})
	errs := make(chan error, 2)
	go func() { errs <- a.Sync() }()
	<-leaving
	f.nodes[h].closeWithin(t, 0)
	close(killed)
	repl := f.replace(t, h)
	go func() { errs <- repl.Sync() }() // the host had not closed phase 0
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sent.twoAlike(t)
	if sent, hosted := a.om.foldsSent.Load(), repl.om.foldsHosted.Load(); sent != 1 || hosted != 1 {
		t.Fatalf("rank %d committed %d folds and the replacement host applied %d, want 1 and 1 (the retry)", a.rank, sent, hosted)
	}
	if got := a.om.ckptFolded.Load(); got != 11 {
		t.Fatalf("fabric.ckpt.words.folded = %d, want the 11 words written, once", got)
	}
	if got := a.om.ckptScanned.Load(); got != 3*64 {
		t.Fatalf("fabric.ckpt.words.scanned = %d, want three chunks, diffed once", got)
	}
	checkCommitted(t, f, "after the retried fold")
}

// TestFoldAckLostReshipsSameWords: the host applies a fold and the ack is
// lost; the window changes, and the host dies, before the retry. The
// replacement host rebuilds the group's parity from the member's committed
// base, which the lost ack left without the fold, so the retry must carry
// the words of the first attempt: it brings the parity back to what the
// first attempt made it. The new words go with the next fold. Each of the
// two ranks hosts the other's group.
func TestFoldAckLostReshipsSameWords(t *testing.T) {
	const words, at = 4 * 64, 2*64 + 5
	late := []uint64{0xfeed, 0xbeef}
	pn := newPipeNet()
	var a, host *Node
	var sent foldFrames
	var applied []uint64 // the parity once the first attempt is folded in
	lost := make(chan struct{})
	pn.onFrame = func(from, _ string, ft byte, payload []byte) {
		if ft == fParityFold && from == a.addr {
			sent.add(payload)
		}
	}
	pn.onReply = func(to string, rt byte, _ []byte) bool {
		if rt != fParityFold|0x80 || to != host.addr || applied != nil {
			return false
		}
		host.parMu.Lock()
		applied = append([]uint64(nil), host.hosted[0].shards[0]...)
		host.parMu.Unlock()
		a.WriteAt(at, late) // between the two attempts
		close(lost)
		return true
	}
	f := startTestFabricWords(t, pn, 2, 2, words, fastTuning)
	h := f.nodes[0].Hostings()[0].Host
	a, host = f.nodes[0].Node, f.nodes[h].Node

	a.WriteAt(3, []uint64{1, 2, 3})
	errs := make(chan error, 2)
	go func() { errs <- a.Sync() }()
	go func() { errs <- host.Sync() }()
	<-lost
	if err := <-errs; err != nil { // the host's: the barrier released it
		t.Fatal(err)
	}
	repl := f.replace(t, h)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	sent.twoAlike(t)
	repl.parMu.Lock()
	same := slices.Equal(repl.hosted[0].shards[0], applied)
	repl.parMu.Unlock()
	if !same {
		t.Fatal("the retry did not bring the rebuilt parity to where the first attempt had it")
	}
	if got := a.om.ckptFolded.Load(); got != 3 {
		t.Fatalf("fabric.ckpt.words.folded = %d, want the 3 words of the acked fold", got)
	}
	if got := checkTrackedDiff(t, a, "after the retried fold"); !slices.Equal(got, []int{at}) {
		t.Fatalf("the next diff has runs at %v, want the late write's [%d]", got, at)
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the next fold")
	if got := a.ReadAt(at, 2); !slices.Equal(got, late) {
		t.Fatalf("the late write did not survive: window has %x", got)
	}
}

// TestReplacementFoldsReplayedPuts: kill + replace on a 64 Ki-word window.
// The replacement's window is its reconstructed base plus replayed puts;
// those are stamped like any write, so its first diff — a few chunks, not
// the window — matches the full scan, and its first fold brings base and
// parity level with the window.
func TestReplacementFoldsReplayedPuts(t *testing.T) {
	const n, victim, stopAt, words = 4, 1, 3, 64 << 10
	late := func(r int) int { return 16000*(r+1) + 63 } // 3 words across a chunk boundary
	f := startTestFabricWords(t, newPipeNet(), n, 2, words, fastTuning)
	errs := make(chan error, n)
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- drivePhases(tn.Node, 0, stopAt-1) }()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	syncAll(t, f) // an empty phase: every put so far is in its target's base
	// Delivered, acknowledged and logged, but in no checkpoint of the victim.
	for r, tn := range f.nodes {
		if r != victim {
			tn.Put(victim, late(r), []uint64{testVal(r, 100), testVal(r, 101), testVal(r, 102)})
			tn.Flush(victim)
		}
	}
	f.nodes[victim].closeWithin(t, 0)
	for r, tn := range f.nodes {
		if r != victim {
			await(t, "the verdict", func() bool { return !tn.sees(victim).Alive })
		}
	}
	repl, err := f.join(f.nodes[3].addr)
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	f.all = append(f.all, repl)
	f.nodes[victim] = repl

	replayed := repl.om.replayPuts.Load()
	if replayed != n-1 {
		t.Fatalf("the install replayed %d puts, want the %d late ones", replayed, n-1)
	}
	got := checkTrackedDiff(t, repl.Node, "the replacement's first diff")
	var want []int
	for r := 0; r < n; r++ {
		if r != victim {
			want = append(want, late(r))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the replacement's first diff has runs at %v, want the late puts at %v", got, want)
	}
	if scanned := repl.om.ckptScanned.Load(); scanned == 0 || scanned > 2*64*replayed {
		t.Fatalf("the first diff compared %d words of a %d-word window for %d replayed puts", scanned, words, replayed)
	}

	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- drivePhases(tn.Node, stopAt, testPhases) }()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	syncAll(t, f) // the last phase's puts may have landed after their target's diff
	checkCommitted(t, f, "after the run")
	for r := 0; r < n; r++ {
		if r != victim && repl.ReadAt(late(r)+2, 1)[0] != testVal(r, 102) {
			t.Errorf("the replacement lost rank %d's late put", r)
		}
	}
}

// TestHandleBatchValidatesBeforeApplying: a batch with one range outside
// the window is refused whole — the puts before the bad one included — and
// leaves neither a word nor a stamp behind.
func TestHandleBatchValidatesBeforeApplying(t *testing.T) {
	const words = 2 * 64
	f := startTestFabricWords(t, newPipeNet(), 2, 1, words, fastTuning)
	nd := f.nodes[0].Node
	batch := func(puts [][2]int, getOff, getN int) []byte {
		var e wire.Enc
		e.I(1) // src
		e.I(0) // inc
		e.I(0) // phase
		e.I(len(puts))
		for _, p := range puts {
			e.I(p[0])
			e.Words(randWords(rand.New(rand.NewSource(1)), p[1]))
		}
		e.I(1)
		e.I(getOff)
		e.I(getN)
		e.I(0) // private landing
		e.I(0) // gc
		return e.Bytes()
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"second put straddles the end", batch([][2]int{{0, 3}, {words - 1, 2}}, 0, 1)},
		{"second put starts past the end", batch([][2]int{{5, 1}, {words + 9, 1}}, 0, 1)},
		{"get straddles the end", batch([][2]int{{0, 3}, {64, 2}}, words-2, 3)},
	} {
		gen := nd.dirty.Gen()
		if _, _, err := nd.handleBatch(wire.NewDec(tc.payload)); err == nil {
			t.Fatalf("%s: the batch was accepted", tc.name)
		}
		if nd.dirty.Gen() != gen {
			t.Errorf("%s: the refused batch left a stamp", tc.name)
		}
		if !slices.Equal(nd.ReadAt(0, words), make([]uint64, words)) {
			t.Errorf("%s: the refused batch wrote the window", tc.name)
		}
	}
	if _, reply, err := nd.handleBatch(wire.NewDec(batch([][2]int{{0, 3}, {words - 2, 2}}, words-1, 1))); err != nil || reply == nil {
		t.Fatalf("a batch that ends with the window was refused: %v", err)
	}
	if got := checkTrackedDiff(t, nd, "after the good batch"); !slices.Equal(got, []int{0, words - 2}) {
		t.Fatalf("the good batch changed runs at %v", got)
	}
}

// unaligned returns a copy of a payload that starts on an odd address, so
// Dec.WordsView cannot alias it and the handlers' fallback buffers are used.
func unaligned(p []byte) []byte {
	buf := make([]byte, len(p)+8)
	return buf[1 : 1+copy(buf[1:], p)]
}

// TestHandlersTakeUnalignedFrames: the handlers read put and delta words
// as views of the frame; a frame whose words cannot be viewed in place has
// the same effect. A delta folded twice cancels, so an aligned and an
// unaligned fold of the same delta leave the parity where it was.
func TestHandlersTakeUnalignedFrames(t *testing.T) {
	const words = 2 * 64
	f := startTestFabricWords(t, newPipeNet(), 2, 1, words, fastTuning)
	nd := f.nodes[f.nodes[0].Hostings()[0].Host].Node
	data := randWords(rand.New(rand.NewSource(3)), 70)
	var e wire.Enc
	for _, v := range []int{1, 0, 0, 1, 50} { // src, inc, phase, one put at 50
		e.I(v)
	}
	e.Words(data)
	e.I(0)
	if _, _, err := nd.handleBatch(wire.NewDec(unaligned(e.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if got := nd.ReadAt(50, 70); !slices.Equal(got, data) {
		t.Fatal("an unaligned put did not land word for word")
	}
	if got := checkTrackedDiff(t, nd, "after the unaligned put"); !slices.Equal(got, []int{50}) {
		t.Fatalf("the unaligned put changed runs at %v", got)
	}

	fold := func(phase int) []byte {
		var e wire.Enc
		for _, v := range []int{1, 0, 0, 1, phase} { // rank, inc, group, memberIdx, phase
			e.I(v)
		}
		encSnap(&e, snap{phase: phase, ec: make([]int, 2)})
		e.I(2)
		e.I(3)
		e.Words(data[:5])
		e.I(words - 65)
		e.Words(data[5:])
		return e.Bytes()
	}
	before := append([]uint64(nil), nd.hosted[0].shards[0]...)
	// The host itself is past both phases, so each fold is answered, released,
	// as soon as it is in.
	nd.mergeWatermark(nd.rank, nd.inc, 12)
	if _, _, err := nd.handleParityFold(wire.NewDec(fold(10)), notificationReply(t)); err != wire.ErrLater {
		t.Fatal(err)
	}
	if slices.Equal(nd.hosted[0].shards[0], before) {
		t.Fatal("the aligned fold left the parity unchanged")
	}
	if _, _, err := nd.handleParityFold(wire.NewDec(unaligned(fold(11))), notificationReply(t)); err != wire.ErrLater {
		t.Fatal(err)
	}
	if !slices.Equal(nd.hosted[0].shards[0], before) {
		t.Fatal("the unaligned fold of the same delta did not cancel the aligned one")
	}
}

// TestFoldBuffersFollowTheFolds: the delta buffer a fold reuses is dropped
// once it is mostly idle, so a whole-window fold (every benchmark's set-up
// fill is one) does not pin a window-sized buffer for the run on the
// member; a steady fold size keeps its buffer. (The host keeps none:
// TestFullWindowFoldAtTheHost.)
func TestFoldBuffersFollowTheFolds(t *testing.T) {
	const words = 64 << 10
	f := startTestFabricWords(t, newPipeNet(), 2, 1, words, fastTuning)
	a := f.nodes[1-f.nodes[0].Hostings()[0].Host].Node
	rng := rand.New(rand.NewSource(4))
	a.WriteAt(0, randWords(rng, words))
	syncAll(t, f)
	if cap(a.delta.words) < words {
		t.Fatalf("the whole-window fold used a %d-word buffer", cap(a.delta.words))
	}
	var caps [3]int
	for i := range caps {
		a.WriteAt(100, randWords(rng, 528))
		syncAll(t, f)
		caps[i] = cap(a.delta.words)
	}
	if caps[1] > 4*528+(8<<10) || caps[2] != caps[1] {
		t.Fatalf("528-word folds after a whole-window one run on buffers of %v words", caps)
	}
	checkCommitted(t, f, "after the folds")
}

// TestBulkCycleKeepsFoldBuffers: when a fold lags a put by a phase, as
// bulk-shm's does about half the time, its diffs alternate one block of
// stamped words (the own write alone) and seven (the own write, the lagging
// puts and the next phase's). Such a cycle of 4096 and 28672 words over 100
// phases allocates no delta buffer and no copy buffer after its first two
// phases: a small fold between two large ones does not let their buffers
// go.
func TestBulkCycleKeepsFoldBuffers(t *testing.T) {
	const block, slots, ranks = 4096, 16, 4
	nd := bareNode(ranks * slots * block)
	rng := rand.New(rand.NewSource(9))
	fold := func() {
		nd.ckptMu.Lock()
		nd.diffRanges()
		nd.commitBase(snap{})
		nd.ckptMu.Unlock()
	}
	nd.WriteAt(0, randWords(rng, nd.windowWords)) // the set-up fill
	fold()
	at := func(src, p int) int { return (src*slots + p%slots) * block }
	seen := map[*uint64]bool{}
	deltaAllocs, copyAllocs := 0, 0
	for p := 1; p <= 100; p++ {
		nd.WriteAt(at(0, p), randWords(rng, block))
		if p%2 == 0 { // the puts of p-1, which landed after its fold, and of p
			for src := 1; src < ranks; src++ {
				nd.WriteAt(at(src, p-1), randWords(rng, block))
				nd.WriteAt(at(src, p), randWords(rng, block))
			}
		}
		scanned := nd.om.ckptScanned.Load()
		delta := unsafe.SliceData(nd.delta.words)
		fold()
		want := uint64(block)
		if p%2 == 0 {
			want = 7 * block
		}
		if got := nd.om.ckptScanned.Load() - scanned; got != want {
			t.Fatalf("phase %d scanned %d words, want %d", p, got, want)
		}
		if p > 2 && unsafe.SliceData(nd.delta.words) != delta {
			deltaAllocs++
		}
		for _, b := range [][]uint64{nd.copies, nd.spare} {
			if d := unsafe.SliceData(b[:cap(b)]); cap(b) > 0 && !seen[d] {
				seen[d] = true
				if p > 2 {
					copyAllocs++
				}
			}
		}
	}
	if deltaAllocs != 0 || copyAllocs != 0 {
		t.Fatalf("after the first cycle, %d delta and %d copy buffers were allocated, want 0 and 0", deltaAllocs, copyAllocs)
	}
}

// windowAllocs runs f and returns how many bytes it allocated, and that in
// windows of the given size, rounded down.
func windowAllocs(words int, f func()) (allocated, windows uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	allocated = after.TotalAlloc - before.TotalAlloc
	return allocated, allocated / uint64(8*words)
}

// TestFullWindowDiffAllocatesOnce: the diff of a window written end to end —
// the set-up fill's — sizes its delta buffer once, from the stamped words,
// instead of growing it by appends across the window's chunks.
func TestFullWindowDiffAllocatesOnce(t *testing.T) {
	const words = 1 << 16
	nd := bareNode(words)
	nd.WriteAt(0, randWords(rand.New(rand.NewSource(5)), words))
	allocated, windows := windowAllocs(words, func() {
		nd.ckptMu.Lock()
		nd.diffRanges()
		nd.ckptMu.Unlock()
	})
	if len(nd.delta.words) != words {
		t.Fatalf("the diff has %d delta words, want the window's %d", len(nd.delta.words), words)
	}
	if windows != 1 {
		t.Fatalf("the diff allocated %d B, %d windows' worth, want one delta buffer", allocated, windows)
	}
}

// TestFullWindowFoldAtTheHost: a fold of the whole window, its runs aligned
// in the frame as a received frame's are, is folded from views of the frame:
// the host allocates no window-sized buffer for it.
func TestFullWindowFoldAtTheHost(t *testing.T) {
	const words = 1 << 16
	f := startTestFabricWords(t, newPipeNet(), 2, 1, words, fastTuning)
	nd := f.nodes[f.nodes[0].Hostings()[0].Host].Node
	member := 1 - nd.rank
	data := randWords(rand.New(rand.NewSource(6)), words)
	var e wire.Enc
	for _, v := range []int{member, 0, 0, nd.grouping.MemberIndex(member), 10} { // rank, inc, group, memberIdx, phase
		e.I(v)
	}
	encSnap(&e, snap{phase: 10, ec: make([]int, 2)})
	e.I(1)
	e.I(0)
	e.Words(data)
	payload := e.Bytes()
	r := notificationReply(t)
	// The host itself is past the phase, so the fold is answered, released,
	// as soon as it is in.
	nd.mergeWatermark(nd.rank, nd.inc, 12)
	var err error
	allocated, windows := windowAllocs(words, func() {
		_, _, err = nd.handleParityFold(wire.NewDec(payload), r)
	})
	if err != wire.ErrLater {
		t.Fatal(err)
	}
	if windows != 0 {
		t.Fatalf("the host allocated %d B for a whole-window fold, a window or more", allocated)
	}
	nd.parMu.Lock()
	same := slices.Equal(nd.hosted[0].shards[0], data)
	nd.parMu.Unlock()
	if !same {
		t.Fatal("the fold did not land in the parity word for word")
	}
}

// TestWindowWritesAreRangeChecked: a local write, a local get landing and a
// remote get landing that run past the window abort with the in-process
// runtime's message instead of truncating silently (or dying on a bare
// slice bound), write nothing, and leave the node usable.
func TestWindowWritesAreRangeChecked(t *testing.T) {
	const words = 2 * 64
	f := startTestFabricWords(t, newPipeNet(), 2, 1, words, fastTuning)
	nd := f.nodes[0].Node
	writers := []struct {
		name  string
		write func(off, n int)
	}{
		{"WriteAt", func(off, n int) { nd.WriteAt(off, make([]uint64, n)) }},
		{"self-Put", func(off, n int) { nd.Put(nd.rank, off, make([]uint64, n)) }},
		{"local GetCopy landing", func(off, n int) { nd.GetCopy(nd.rank, 0, n, off) }},
		{"remote GetCopy landing", func(off, n int) { nd.GetCopy(1, 0, n, off); nd.Flush(1) }},
	}
	ranges := []struct {
		off, n int
		ok     bool
	}{
		{words - 3, 3, true}, // ends with the window
		{words, 0, true},     // empty, at the end
		{words - 2, 3, false},
		{words, 1, false},
		{words + 5, 1, false},
		{-1, 1, false},
	}
	fill := randWords(rand.New(rand.NewSource(2)), words)
	nd.WriteAt(0, fill)
	for _, w := range writers {
		for _, r := range ranges {
			if r.off < 0 && w.name != "WriteAt" && w.name != "self-Put" {
				continue // a negative landing offset means "private"
			}
			want := ""
			if !r.ok {
				want = fmt.Sprintf("rma: access [%d, %d) outside window of %d words", r.off, r.off+r.n, words)
			}
			got := func() (msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = fmt.Sprint(p)
					}
				}()
				w.write(r.off, r.n)
				return ""
			}()
			if got != want {
				t.Errorf("%s of [%d,+%d): panic %q, want %q", w.name, r.off, r.n, got, want)
			}
		}
	}
	// Only the in-range zero writes went through, and every lock was let go.
	copy(fill[words-3:], []uint64{0, 0, 0})
	if got := nd.ReadAt(0, words); !slices.Equal(got, fill) {
		t.Fatal("a refused write reached the window")
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the refused writes")
}

// bareNode is a node with a window and no fabric: enough for the
// checkpoint's local half.
func bareNode(words int) *Node {
	nd := &Node{n: 2, windowWords: words, window: make([]uint64, words), dirty: rma.NewDirtyTracker(words),
		saved: make([]int32, (words+chunkWords-1)/chunkWords)}
	nd.initObs(nil, nil, "")
	return nd
}

// foldNowhere is a checkpoint without the wire: write blocks spaced stride
// apart, diff, encode the fold frame, commit.
func foldNowhere(nd *Node, s snap, data []uint64, blocks, stride int) {
	block := len(data) / blocks
	for k := 0; k < blocks; k++ {
		nd.WriteAt(k*stride, data[k*block:(k+1)*block])
	}
	nd.ckptMu.Lock()
	nd.diffRanges()
	nd.encFold(0, 0, s.phase, s).Release()
	nd.commitBase(s)
	nd.ckptMu.Unlock()
}

// TestCheckpointSteadyStateAllocs pins the checkpoint's local half — diff
// into the node's reused buffers, fold frame gathered from them — at zero
// allocations once the buffers have grown.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so the pooled wire.Vec allocates")
	}
	nd := bareNode(64 << 10)
	s := snap{ec: make([]int, 2)}
	data := make([]uint64, 528)
	steps := 0
	step := func() {
		steps++
		for i := range data {
			data[i]++
		}
		foldNowhere(nd, s, data, 66, 8)
	}
	step()
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("a steady-state diff + encode allocates %.0f times, want 0", avg)
	}
	if got, want := nd.om.ckptScanned.Load(), uint64(steps*9*64); got != want {
		t.Fatalf("%d checkpoints of 528 words compared %d words, want %d (9 chunks each)", steps, got, want)
	}
}

// BenchmarkFabricCheckpoint prices the checkpoint's local half on the three
// window shapes of the repo benchmark: sparse-kill-tcp (4 MiB, the 528-word
// halo ring dirty), bulk-shm (2 MiB, four 4096-word blocks) and halo-tcp (the
// ring is the window). scanned-B/op is what the diff compared against base.
func BenchmarkFabricCheckpoint(b *testing.B) {
	for _, bc := range []struct {
		name                 string
		words, dirty, blocks int
	}{
		{"4MiB-528dirty", 512 << 10, 528, 1},
		{"2MiB-16Kdirty", 256 << 10, 16 << 10, 4},
		{"4KiB-528dirty", 528, 528, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nd := bareNode(bc.words)
			s := snap{ec: make([]int, 2)}
			data := make([]uint64, bc.dirty)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range data {
					data[k]++
				}
				foldNowhere(nd, s, data, bc.blocks, bc.words/bc.blocks)
			}
			b.ReportMetric(float64(8*nd.om.ckptScanned.Load())/float64(b.N), "scanned-B/op")
		})
	}
}
