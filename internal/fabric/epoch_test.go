package fabric

// Tests of what one epoch close costs on the wire. The protocol counts are
// exact: per phase, one fBatch per target written to, one fParityFold per
// rank whose parity lives elsewhere — the fold is the ready to its host, and
// its answer the release — and one readiness frame from each parity host to
// each other host. Every one of them is served on the reader that read it,
// and a fold the barrier holds waits on its host's list, not on a goroutine.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport/wire"
)

// haloPhase is the benchmark's halo pattern in miniature: one word written
// at (rank, p) and put to each ring neighbour, and a get of the left
// neighbour's word of the phase before into the landing row — two batches
// per rank.
func haloPhase(nd *Node, p, phases int) error {
	left, right := (nd.rank+nd.n-1)%nd.n, (nd.rank+1)%nd.n
	val := []uint64{testVal(nd.rank, p)}
	nd.WriteAt(nd.rank*phases+p, val)
	nd.Put(left, nd.rank*phases+p, val)
	nd.Put(right, nd.rank*phases+p, val)
	if p > 0 {
		nd.GetCopy(left, left*phases+p-1, 1, nd.n*phases+p)
	}
	return nd.Sync()
}

// barrierLog records, from the frames on a pipeNet, what each parity host
// had been sent when it released a fold: the folds of each phase by
// destination, and the readiness each host sent each other host.
type barrierLog struct {
	n     int
	folds map[string]map[int][]int  // host address → phase → ranks folded
	ready map[string]map[string]int // host address → sender address → watermark
}

func newBarrierLog(n int) *barrierLog {
	return &barrierLog{n: n, folds: map[string]map[int][]int{}, ready: map[string]map[string]int{}}
}

// frame records an fParityFold or a host's readiness (an fGossip carrying
// fewer entries than the world has ranks). It reports the readiness frames.
func (bl *barrierLog) frame(from, to string, ft byte, payload []byte) (readiness bool) {
	d := wire.NewDec(payload)
	switch ft {
	case fParityFold:
		rank, _, _, _, phase := d.I(), d.I(), d.I(), d.I(), d.I()
		if bl.folds[to] == nil {
			bl.folds[to] = map[int][]int{}
		}
		bl.folds[to][phase] = append(bl.folds[to][phase], rank)
	case fGossip:
		ms, ok := decMembers(d)
		if !ok || len(ms) == bl.n {
			return false
		}
		wm := -1
		for _, m := range ms {
			if wm < 0 || m.Watermark < wm {
				wm = m.Watermark
			}
		}
		if bl.ready[to] == nil {
			bl.ready[to] = map[string]int{}
		}
		bl.ready[to][from] = max(bl.ready[to][from], wm)
		return true
	}
	return false
}

// late reports why a release of phase p from host at addr left too early:
// a fold of p from a member of its groups had not been sent to it, or the
// readiness for p of another host had not.
func (bl *barrierLog) late(addr string, p int, members map[string][]int) []string {
	var out []string
	hosts := make([]string, 0, len(members))
	for h := range members {
		hosts = append(hosts, h)
	}
	for _, r := range members[addr] {
		if !slices.Contains(bl.folds[addr][p], r) {
			out = append(out, fmt.Sprintf("host %s released phase %d before rank %d's fold", addr, p, r))
		}
	}
	for _, h := range hosts {
		if h != addr && bl.ready[addr][h] < p+1 {
			out = append(out, fmt.Sprintf("host %s released phase %d before host %s's readiness", addr, p, h))
		}
	}
	return out
}

// handoffs sums, over the node's connections, the requests their readers
// handed to a handler goroutine instead of serving them inline.
func (nd *Node) handoffs() (n uint64) {
	nd.cmu.Lock()
	defer nd.cmu.Unlock()
	for _, pc := range nd.conns {
		n += pc.c.Handoffs()
	}
	for _, c := range nd.inbound {
		n += c.Handoffs()
	}
	return n
}

// holdCounts returns how many received folds the node has put on its held
// list, how many it has answered from there, and how many wait there now.
func (nd *Node) holdCounts() (holds, answers uint64, waiting int) {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return nd.holds, nd.answers, len(nd.held)
}

// foldGoroutines counts the goroutines of this process inside a fold
// handler.
func foldGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Node).handleParityFold("))
}

// TestEpochCloseFrameBudget: on four ranks in two groups, every group's
// parity hosted outside it, a halo phase costs exactly 8 fBatch, 4
// fParityFold and H(H−1) = 2 host readiness frames (fGossip); no fold is
// released before its host has been sent every fold of its groups and the
// other host's readiness for the phase. None of the 14 requests is handed
// off its connection's reader (wire's Handoffs; 14 per phase while every
// request went to a handler goroutine), and every fold put on a held list
// is answered in the phase. After the host of group 0 is killed and
// replaced — the replacement hosts the group's rebuilt parity, the hosting
// table unchanged — phases cost the same, once the crisis has ended on
// every node: a survivor can learn the replacement's address from gossip
// before the arbiter's fCrisisEnd reaches it, and that frame, which a live
// node hands off, must not land in a counted phase. Gossip runs every 4 s,
// so a release that waited for it would hold a barrier that long. A phase
// that hands a request off names the request types it saw outside the
// inline set.
func TestEpochCloseFrameBudget(t *testing.T) {
	const n, phases, killAt = 4, 10, 4
	const budget = 8 + 4 + 2
	pn := newPipeNet()
	var (
		mu     sync.Mutex
		counts = map[byte]int{}
		other  = map[byte]int{} // request types not served inline, by count
		bl     = newBarrierLog(n)
		cur    = -1             // the phase being counted
		hostOf map[string][]int // host address → its groups' members, in the counted phases
		late   []string
	)
	pn.onFrame = func(from, to string, ft byte, payload []byte) {
		mu.Lock()
		defer mu.Unlock()
		switch ft {
		case fBatch, fParityFold, fGossip:
			if bl.frame(from, to, ft, payload) || ft != fGossip {
				counts[ft]++
			}
		case fHello, wire.TypeHeartbeat:
		default:
			if ft&0x80 == 0 { // a reply the dialing end writes is not a request
				other[ft]++
			}
		}
	}
	pn.onReply = func(to string, rt byte, _ []byte) bool {
		if rt == fParityFold|0x80 {
			mu.Lock()
			if hostOf != nil {
				late = append(late, bl.late(to, cur, hostOf)...)
			}
			mu.Unlock()
		}
		return false
	}
	f := startTestFabricWords(t, pn, n, 2, n*phases+phases, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: 4 * time.Second})
	for _, h := range f.nodes[0].Hostings() {
		if h.Host%2 == h.Group {
			t.Fatalf("group %d is hosted by its own member %d", h.Group, h.Host)
		}
	}
	errs := make(chan error, n)
	run := func(p int, nodes []*testNode) {
		t.Helper()
		for _, tn := range nodes {
			tn := tn
			go func() { errs <- haloPhase(tn.Node, p, phases) }()
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
	handed := func() (n uint64) {
		for _, tn := range f.nodes {
			n += tn.handoffs()
		}
		return n
	}
	holds := func() (held, answered uint64) {
		for _, tn := range f.nodes {
			h, a, _ := tn.holdCounts()
			held, answered = held+h, answered+a
		}
		return held, answered
	}
	counted := func(p int) {
		t.Helper()
		handed0 := handed()
		held0, answered0 := holds()
		mu.Lock()
		clear(counts)
		clear(other)
		cur, hostOf = p, map[string][]int{}
		for _, h := range f.nodes[0].Hostings() {
			addr := f.nodes[h.Host].addr
			hostOf[addr] = append(hostOf[addr], f.nodes[0].grouping.ComputeMembers(h.Group)...)
		}
		mu.Unlock()
		t0 := time.Now()
		run(p, f.nodes)
		wait(n)
		el := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		hostOf = nil
		if counts[fBatch] != 8 || counts[fParityFold] != 4 || counts[fGossip] != 2 {
			t.Errorf("phase %d sent %d fBatch, %d fParityFold, %d host readiness frames, want 8, 4, 2",
				p, counts[fBatch], counts[fParityFold], counts[fGossip])
		}
		if sum := counts[fBatch] + counts[fParityFold] + counts[fGossip]; sum != budget {
			t.Errorf("phase %d closed with %d frames, want %d", p, sum, budget)
		}
		if el > time.Second {
			t.Errorf("phase %d took %v: a barrier waited for gossip", p, el)
		}
		if got := handed() - handed0; got != 0 {
			var types []string
			for ft, k := range other {
				types = append(types, fmt.Sprintf("%#x×%d", ft, k))
			}
			slices.Sort(types)
			t.Errorf("phase %d handed %d requests off their readers, want 0; request types seen outside the inline set: %v", p, got, types)
		}
		if held, answered := holds(); held-held0 != answered-answered0 {
			t.Errorf("phase %d held %d folds and answered %d of them", p, held-held0, answered-answered0)
		}
		for _, l := range late {
			t.Error(l)
		}
		late = nil
	}

	for p := 0; p < killAt; p++ {
		counted(p)
	}
	hostings := f.nodes[0].Hostings()
	victim := hostings[0].Host
	run(killAt, append(append([]*testNode(nil), f.nodes[:victim]...), f.nodes[victim+1:]...))
	repl := f.replace(t, victim)
	run(killAt, []*testNode{repl})
	wait(n)
	// The next phase starts once the crisis has ended everywhere — every
	// survivor has taken the arbiter's fCrisisEnd, and the arbiter's
	// crisis has returned — on tables that have all heard of it.
	for _, tn := range f.nodes {
		if tn != repl {
			await(t, "the end of the crisis", func() bool {
				tn.mmu.Lock()
				busy := tn.crisisBusy
				tn.mmu.Unlock()
				return tn.Recoveries() == 1 && !tn.InCrisis() && !busy
			})
		}
		await(t, "the post-crisis tables", func() bool {
			m := tn.sees(victim)
			return m.Incarnation == 1 && m.Addr != ""
		})
		if got := tn.Hostings(); !slices.Equal(got, hostings) {
			t.Fatalf("rank %d's hosting table moved across the host's kill: %v, was %v", tn.rank, got, hostings)
		}
	}
	for p := killAt + 1; p < phases; p++ {
		counted(p)
	}
	if got := f.backoffs(); got != 0 {
		t.Errorf("the kill and replace waited on a clock %d times (fabric.retry.backoffs)", got)
	}
	for r, tn := range f.nodes {
		for _, src := range []int{(r + n - 1) % n, (r + 1) % n} {
			for p := 0; p < phases; p++ {
				if got := tn.ReadAt(src*phases+p, 1)[0]; got != testVal(src, p) {
					t.Errorf("rank %d word (%d, %d) = %#x, want %#x", r, src, p, got, testVal(src, p))
				}
			}
		}
		for p := 1; p < phases; p++ {
			left := (r + n - 1) % n
			if got := tn.ReadAt(n*phases+p, 1)[0]; got != testVal(left, p-1) {
				t.Errorf("rank %d landed %#x for phase %d, want %#x", r, got, p, testVal(left, p-1))
			}
		}
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the run")
}

// TestHaloPhaseAllocs pins ROADMAP item 13(a)'s allocations per rank per
// Sync: a 4-rank, 2-group halo phase (haloPhase) on pipeNet with gossip off,
// counted by testing.AllocsPerRun over the whole phase on every rank and
// divided by the ranks. The ceiling is today's value, 28; nothing here asks it down.
// Its sources, per rank and phase, from an allocation profile of this test
// (-memprofilerate=1):
//   - ≈ 13: the test network's send queue, which copies every frame it
//     queues (bufConn), as a socket's buffer would hold it;
//   - ≈ 6: net.Pipe's read deadline, a timer per frame read (a socket's
//     deadline allocates nothing);
//   - ≈ 5: the host readiness fGossip: announce encodes its groups'
//     members' full records, addresses included, and decMembers decodes
//     them at the other host;
//   - ≈ 3: the per-phase counter slices: snapNow's copy of the epoch
//     counters, Sync's ecAt entry for the next phase, and decSnap at the
//     parity host;
//   - the rest: the slice GetCopy returns and the wire's reply bookkeeping.
func TestHaloPhaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n, phases = 4, 64
	const ceiling = 28
	f := startTestFabricWords(t, newPipeNet(), n, 2, n*phases+phases, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: time.Hour})
	start := make([]chan int, n)
	done := make(chan error, n)
	for r, tn := range f.nodes {
		start[r] = make(chan int)
		go func(nd *Node, in chan int) {
			for p := range in {
				done <- haloPhase(nd, p, phases)
			}
		}(tn.Node, start[r])
	}
	defer func() {
		for _, in := range start {
			close(in)
		}
	}()
	p := 0
	phase := func() {
		for _, in := range start {
			in <- p
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		p++
	}
	for p < 4 { // connections dialed, buffers grown
		phase()
	}
	perRank := testing.AllocsPerRun(phases-8, phase) / n
	t.Logf("%.1f allocations per rank per halo phase", perRank)
	if perRank > ceiling {
		t.Errorf("a halo phase allocates %.1f times per rank, ceiling %d", perRank, ceiling)
	}
}

// tableNode is a live node with a membership table and nothing else: all a
// merge touches.
func tableNode(n int) *Node {
	nd := &Node{n: n, members: make([]Member, n)}
	for r := range nd.members {
		nd.members[r] = Member{Rank: r, Addr: fmt.Sprint("rank-", r), Alive: true}
	}
	nd.mcond = sync.NewCond(&nd.mmu)
	nd.state.Store(stLive)
	nd.initObs(nil, nil, "")
	return nd
}

// TestMergeWatermark: a fold merges its watermark without
// allocating, by the table's rule — monotone within an incarnation,
// ignored from an older one, a newer one takes the slot.
func TestMergeWatermark(t *testing.T) {
	nd := tableNode(4)
	wm := 0
	merge := func() {
		wm++
		nd.mergeWatermark(2, 0, wm)
	}
	if avg := testing.AllocsPerRun(200, merge); avg != 0 {
		t.Fatalf("a watermark merge allocates %.1f times, want 0", avg)
	}
	if got := nd.sees(2).Watermark; got != wm {
		t.Fatalf("rank 2's watermark is %d after merging %d", got, wm)
	}
	nd.mergeWatermark(2, 0, 1)
	nd.mergeWatermark(1, 0, 7)
	nd.mergeWatermark(1, 1, 3) // a replacement's first fold
	nd.mergeWatermark(1, 0, 9) // its predecessor's, late
	if m := nd.sees(2); m.Watermark != wm {
		t.Errorf("a lower watermark moved rank 2 back to %d", m.Watermark)
	}
	if m := nd.sees(1); m.Incarnation != 1 || m.Watermark != 3 || !m.Alive {
		t.Errorf("rank 1 is %+v, want incarnation 1 alive at watermark 3", m)
	}
}

// notificationReply returns the reply handle of a notification, which
// answers into nothing: a handle to hold and answer as often as a test likes.
func notificationReply(t *testing.T) wire.Reply {
	t.Helper()
	cn, sn := net.Pipe()
	got := make(chan wire.Reply, 1)
	server := wire.New(sn, wire.Config{VecHandler: func(_ byte, _ []byte, r wire.Reply) (byte, *wire.Vec, error) {
		got <- r
		return 0, nil, wire.ErrLater
	}})
	client := wire.New(cn, wire.Config{})
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	if err := client.Notify(fParityFold, nil); err != nil {
		t.Fatal(err)
	}
	return <-got
}

// TestHeldFoldAllocatesNothing: a fold put on the held list and answered by
// the watermark that releases it reuses the list and the answer buffer, so
// a phase's hold and answer allocate nothing.
func TestHeldFoldAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Vecs")
	}
	nd := tableNode(4)
	nd.grouping = fabricGrouping(4, 2)
	r := notificationReply(t)
	p := 0
	phase := func() {
		for rank := 0; rank < 3; rank++ {
			nd.mergeWatermark(rank, 0, p+1)
		}
		nd.holdFold(heldFold{reply: r, g: 1, memberIdx: 0, phase: p})
		if _, _, waiting := nd.holdCounts(); waiting != 1 {
			t.Fatalf("phase %d: a fold before the last rank's was answered", p)
		}
		nd.mergeWatermark(3, 0, p+1)
		p++
	}
	if avg := testing.AllocsPerRun(200, phase); avg != 0 {
		t.Errorf("a held fold and its answer allocate %.1f times, want 0", avg)
	}
	if holds, answers, waiting := nd.holdCounts(); holds != answers || waiting != 0 {
		t.Errorf("%d folds held, %d answered, %d waiting", holds, answers, waiting)
	}
}

// encBatchRef is the reference encoder of the fBatch payload (docs/WIRE.md
// §3, 0x43): the flat Enc encoding the batch path used before it gathered
// put payloads into a Vec.
func encBatchRef(nd *Node, phase int, ops []pendOp) []byte {
	var e wire.Enc
	e.I(nd.rank)
	e.I(nd.inc)
	e.I(phase)
	var puts, gets []pendOp
	for _, op := range ops {
		if op.put {
			puts = append(puts, op)
		} else {
			gets = append(gets, op)
		}
	}
	e.I(len(puts))
	for _, op := range puts {
		e.I(op.off)
		e.Words(op.data)
	}
	e.I(len(gets))
	for _, op := range gets {
		e.I(op.off)
		e.I(op.n)
		e.I(op.localOff + 1)
		e.I(op.gc)
	}
	return e.Bytes()
}

// TestBatchEncodingMatchesEnc: what encBatch puts on the wire — flattened
// below the wire's small-frame threshold, a vectored write above it — is
// byte for byte encBatchRef's payload. The cases move the word vectors'
// alignment padding around: window offsets whose uvarints are one to three
// bytes long, empty runs, payloads that start at odd words of a shared
// stage, and gets before, between and after the puts.
func TestBatchEncodingMatchesEnc(t *testing.T) {
	cn, sn := net.Pipe()
	got := make(chan []byte, 1)
	server := wire.New(sn, wire.Config{Handler: func(ty byte, p []byte) (byte, []byte, error) {
		got <- bytes.Clone(p)
		return ty, nil, nil
	}})
	client := wire.New(cn, wire.Config{})
	defer server.Close()
	defer client.Close()

	stage := randWords(rand.New(rand.NewSource(5)), 1200)
	put := func(off, at, n int) pendOp { return pendOp{put: true, off: off, data: stage[at : at+n]} }
	get := func(off, n, localOff, gc int) pendOp { return pendOp{off: off, n: n, localOff: localOff, gc: gc} }
	for _, tc := range []struct {
		name string
		ops  []pendOp
	}{
		{"no ops", nil},
		{"one word", []pendOp{put(0, 0, 1)}},
		{"empty runs", []pendOp{put(5, 0, 0), put(300, 3, 2), put(1<<20, 9, 0)}},
		{"offsets of every uvarint width", []pendOp{put(1, 1, 3), put(127, 4, 1), put(128, 5, 7), put(16383, 12, 2), put(1<<20, 14, 5)}},
		{"gets only", []pendOp{get(0, 4, -1, 0), get(200, 1, 7, 300), get(1<<18, 64, 1<<17, 1<<21)}},
		{"interleaved, above the flatten threshold", []pendOp{
			get(3, 2, -1, 9), put(129, 1, 400), get(70000, 1, 0, 10), put(7, 401, 0), put(2<<20, 402, 797), get(1, 1, 2, 11),
		}},
	} {
		nd := &Node{rank: 3, inc: 2}
		for _, phase := range []int{0, 200} {
			want := encBatchRef(nd, phase, tc.ops)
			if _, err := client.CallVec(fBatch, nd.encBatch(phase, tc.ops)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if p := <-got; !bytes.Equal(p, want) {
				t.Errorf("%s, phase %d: the gathered batch is %d bytes %x…, the reference %d bytes %x…", tc.name, phase, len(p), p[:min(len(p), 24)], len(want), want[:min(len(want), 24)])
			}
		}
	}
}

// heldSetup closes phase 0 on four ranks in two groups, starts phase 1 on
// every rank but one member of group 0 that hosts nothing, and returns once
// the other three folds wait on their hosts' held lists: group 1's host holds
// its two members' folds, group 0's host the fold of group 1's host. The
// channel carries the three Syncs' results.
func heldSetup(t *testing.T, f *testFabric) (host1, withheld int, errs chan error) {
	t.Helper()
	const n = 4
	errs = make(chan error, n)
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- runPhase(tn.Node, 0) }()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	hs := f.nodes[0].Hostings()
	host1 = hs[1].Host
	withheld = 2 - host1 // group 0 is {0, 2}; group 1's host is one of them
	if hs[0].Host%2 == 0 || host1%2 != 0 {
		t.Fatalf("hostings %v: a group is hosted by its own member", hs)
	}
	for r, tn := range f.nodes {
		if r != withheld {
			tn := tn
			go func() { errs <- runPhase(tn.Node, 1) }()
		}
	}
	await(t, "three folds to wait on the held lists", func() bool {
		k := 0
		for _, tn := range f.nodes {
			_, _, w := tn.holdCounts()
			k += w
		}
		return k == n-1
	})
	return host1, withheld, errs
}

// TestHeldFoldsWaitWithoutGoroutines: while three ranks' folds wait for the
// fourth rank's, they wait on their hosts' held lists and no goroutine sits
// in a fold handler (each held fold parked one while the hold was a
// goroutine's wait for the release). The fourth fold answers all three.
func TestHeldFoldsWaitWithoutGoroutines(t *testing.T) {
	const n = 4
	f := startTestFabric(t, newPipeNet(), n, 2, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: 4 * time.Second})
	_, withheld, errs := heldSetup(t, f)
	if got := foldGoroutines(); got != 0 {
		t.Errorf("%d goroutines hold a fold, want 0", got)
	}
	select {
	case err := <-errs:
		t.Fatalf("a rank passed the barrier without rank %d's fold: %v", withheld, err)
	default:
	}
	go func() { errs <- runPhase(f.nodes[withheld].Node, 1) }()
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r, tn := range f.nodes {
		if holds, answers, waiting := tn.holdCounts(); holds != answers || waiting != 0 {
			t.Errorf("rank %d held %d folds, answered %d, and holds %d still", r, holds, answers, waiting)
		}
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the release")
}

// TestHeldFoldsAnsweredOnClose: a parity host that closes while it holds
// folds answers each one errClosing before its connections go down, and the
// Syncs parked behind the holds return ErrClosed within one lease when the
// fabric is torn down. The other nodes drain first (fShutdown), so closing
// them one by one is the end of the run, not a second death that fails the
// crisis the host's close began.
func TestHeldFoldsAnsweredOnClose(t *testing.T) {
	const n = 4
	tun := Tuning{LeaseInterval: 50 * time.Millisecond, LeaseMiss: 10, GossipInterval: 4 * time.Second}
	lease := tun.LeaseInterval * time.Duration(tun.LeaseMiss)
	pn := newPipeNet()
	var (
		closing atomic.Pointer[Node] // the host, once it closes
		early   atomic.Int32         // its errClosing replies written before its connections closed
	)
	pn.onReply = func(to string, rt byte, payload []byte) bool {
		if nd := closing.Load(); nd != nil && to == nd.addr && rt == 0xFF {
			if d := wire.NewDec(payload); d.B() == wire.CodeCrisis && nd.inboundLen() > 0 {
				early.Add(1)
			}
		}
		return false
	}
	f := startTestFabric(t, pn, n, 2, tun)
	host1, withheld, errs := heldSetup(t, f)
	host := f.nodes[host1]
	if _, _, waiting := host.holdCounts(); waiting != 2 {
		t.Fatalf("group 1's host holds %d folds, want its 2 members'", waiting)
	}
	t0 := time.Now()
	closing.Store(host.Node)
	host.closeWithin(t, 50*time.Millisecond)
	if holds, answers, waiting := host.holdCounts(); holds != answers || waiting != 0 {
		t.Errorf("the closed host held %d folds, answered %d, and holds %d still", holds, answers, waiting)
	}
	if got := early.Load(); got != 2 {
		t.Errorf("the closing host answered %d folds errClosing before its connections closed, want one per held fold (2)", got)
	}
	for r, tn := range f.nodes {
		if r != host1 {
			NotifyShutdown(pn.dialer("test"), tn.addr)
			tn.AwaitShutdown()
		}
	}
	for r, tn := range f.nodes {
		if r != host1 && r != withheld {
			tn.closeWithin(t, 0)
		}
	}
	for i := 0; i < n-1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("a Sync behind a held fold returned %v, want ErrClosed", err)
			}
		case <-time.After(lease - time.Since(t0)):
			t.Fatalf("%d of %d Syncs behind held folds still parked a lease after the host closed", n-1-i, n-1)
		}
	}
}

// stackHas reports whether the calling goroutine's stack names fn.
func stackHas(fn string) bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte(fn))
}

// crisisGoroutines counts the goroutines of this process running an
// arbiter's crisis.
func crisisGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Node).maybeArbiter.func"))
}

// drain tells the nodes the run is over (fShutdown) and waits until each
// has taken it: a draining node reads its peers leaving as the end of the
// run and condemns nobody.
func drain(pn *pipeNet, nodes ...*testNode) {
	for _, tn := range nodes {
		NotifyShutdown(pn.dialer("test"), tn.addr)
		tn.AwaitShutdown()
	}
}

// TestArbiterCloseFailsNoCrisis: an arbiter closed while its crisis waits
// for a replacement does not report its own Close to the world as an
// unrecoverable crisis. Close answers the folds it holds before its
// connections go down; the test holds it there, wakes the parked crisis as
// any table change would, and lets Close go on once the crisis has
// returned. No fCrisisFail leaves the arbiter — it carried "crisis failed
// at arbiter: fabric: node closed" while the crisis broadcast whatever
// error it ended on — and the survivors, drained so that the arbiter's
// leaving is the end of the run, see their Syncs end in ErrClosed.
func TestArbiterCloseFailsNoCrisis(t *testing.T) {
	const n = 4
	pn := newPipeNet()
	var (
		closing  atomic.Pointer[Node] // the arbiter, once it closes
		failSent atomic.Int32         // fCrisisFail frames it wrote
		held     atomic.Bool          // Close was held with its connections up
		once     sync.Once
	)
	pn.onFrame = func(from, _ string, ft byte, _ []byte) {
		if nd := closing.Load(); nd != nil && from == nd.addr && ft == fCrisisFail {
			failSent.Add(1)
		}
	}
	pn.onReply = func(to string, rt byte, _ []byte) bool {
		nd := closing.Load()
		if nd == nil || to != nd.addr || rt != 0xFF || !stackHas("(*Node).Close(") {
			return false
		}
		once.Do(func() {
			held.Store(nd.inboundLen() > 0)
			nd.mmu.Lock()
			nd.mcond.Broadcast()
			nd.mmu.Unlock()
			for deadline := time.Now().Add(10 * time.Second); failSent.Load() == 0 && crisisGoroutines() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("the arbiter's crisis did not return while its Close was held")
					return
				}
			}
		})
		return false
	}
	f := startTestFabric(t, pn, n, 2, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: 4 * time.Second})
	host1, victim, errs := heldSetup(t, f)
	arbiter := f.nodes[0]
	if host1 != 0 {
		t.Fatalf("group 1 is hosted at rank %d, want the arbiter, rank 0", host1)
	}
	f.nodes[victim].closeWithin(t, 0)
	await(t, "the arbiter to park the install", func() bool {
		arbiter.mmu.Lock()
		defer arbiter.mmu.Unlock()
		return arbiter.pending != nil
	})
	await(t, "group 1's folds to wait on the arbiter again", func() bool {
		_, _, waiting := arbiter.holdCounts()
		return waiting == 2
	})
	drain(pn, f.nodes[1], f.nodes[3])
	closing.Store(arbiter.Node)
	arbiter.closeWithin(t, 0)
	if !held.Load() {
		t.Fatal("the arbiter's Close was not held with its connections up: the test exercised nothing")
	}
	if got := failSent.Load(); got != 0 {
		t.Errorf("the closing arbiter sent fCrisisFail %d times: its own Close reported as a failed crisis", got)
	}
	f.nodes[1].closeWithin(t, 0)
	f.nodes[3].closeWithin(t, 0)
	for i := 0; i < n-1; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("a Sync behind a held fold returned %v, want ErrClosed", err)
		}
	}
}

// TestHeldFoldsAnsweredOnce: over 200 phases of random puts and gets, with
// random delays before each Sync and one rank killed and replaced at a
// random phase, every fold a host put on its held list is answered exactly
// once — the killed host's with errClosing — and none is left waiting; the
// windows end as the writes say, and every base and parity agree.
func TestHeldFoldsAnsweredOnce(t *testing.T) {
	const n, phases = 4, 200
	rng := rand.New(rand.NewSource(40))
	victim, killAt := rng.Intn(n), 20+rng.Intn(phases-40)
	f := startTestFabricWords(t, newPipeNet(), n, 2, n*phases, Tuning{LeaseInterval: time.Second, LeaseMiss: 60, GossipInterval: 4 * time.Second})
	// plan[p][r] lists the ranks r writes its word of phase p to, and the
	// nanoseconds it waits before its Sync; gets of phase p-1 ride along.
	type step struct {
		to    []int
		delay time.Duration
		get   int
	}
	plan := make([][]step, phases)
	for p := range plan {
		plan[p] = make([]step, n)
		for r := range plan[p] {
			st := step{delay: time.Duration(rng.Intn(300)) * time.Microsecond, get: -1}
			for q := 0; q < n; q++ {
				if q != r && rng.Intn(2) == 0 {
					st.to = append(st.to, q)
				}
			}
			if p > 0 && rng.Intn(2) == 0 {
				st.get = (r + 1 + rng.Intn(n-1)) % n
			}
			plan[p][r] = st
		}
	}
	phase := func(nd *Node, p int) error {
		st := plan[p][nd.rank]
		val := []uint64{testVal(nd.rank, p)}
		nd.WriteAt(nd.rank*phases+p, val)
		for _, q := range st.to {
			nd.Put(q, nd.rank*phases+p, val)
		}
		if st.get >= 0 {
			nd.Get(st.get, st.get*phases+p-1, 1)
		}
		time.Sleep(st.delay)
		return nd.Sync()
	}
	errs := make(chan error, n)
	run := func(p int, nodes []*testNode) {
		for _, tn := range nodes {
			tn := tn
			go func() { errs <- phase(tn.Node, p) }()
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
	for p := 0; p < phases; p++ {
		if p != killAt {
			run(p, f.nodes)
			wait(n)
			continue
		}
		run(p, append(append([]*testNode(nil), f.nodes[:victim]...), f.nodes[victim+1:]...))
		repl := f.replace(t, victim)
		run(p, []*testNode{repl})
		wait(n)
	}
	var total uint64
	for _, tn := range f.all {
		holds, answers, waiting := tn.holdCounts()
		total += holds
		if holds != answers || waiting != 0 {
			t.Errorf("rank %d (inc %d) held %d folds, answered %d, and holds %d still", tn.rank, tn.inc, holds, answers, waiting)
		}
	}
	if total == 0 {
		t.Fatal("no fold was ever held: the test exercised nothing")
	}
	t.Logf("victim %d killed at phase %d; %d folds held and answered", victim, killAt, total)
	for r, tn := range f.nodes {
		for src := 0; src < n; src++ {
			for p := 0; p < phases; p++ {
				want := uint64(0)
				if src == r || slices.Contains(plan[p][src].to, r) {
					want = testVal(src, p)
				}
				if got := tn.ReadAt(src*phases+p, 1)[0]; got != want {
					t.Fatalf("rank %d word (%d, %d) = %#x, want %#x", r, src, p, got, want)
				}
			}
		}
	}
	syncAll(t, f)
	checkCommitted(t, f, "after the run")
}
