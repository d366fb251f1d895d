package fabric

// In-package tests of the node's connection bookkeeping and lifecycle,
// over an in-memory network (net.Pipe behind a transport.DialerFunc) that
// records every connection it hands out. The end-to-end behaviour — bit
// identity with the oracle through kills — is the conformance suite's job
// (internal/transport, cmd/rankd, internal/soak); these
// pin the rules that keep it from wedging: one connection per (rank,
// incarnation), no verdicts from a joining node, a bounded peer table,
// and a Close that leaves nothing running.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ---- The in-memory network --------------------------------------------------

type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

type pipeListener struct {
	addr     string
	ch       chan net.Conn
	done     chan struct{}
	accepted atomic.Int32

	mu     sync.Mutex // orders deliver against Close
	closed bool
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		l.accepted.Add(1)
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// deliver queues a dialed connection unless the listener is closed. A
// closed listener must refuse: a connection left in its backlog is one
// nobody reads, and the dialer's calls on it would wait until its lease ran
// out.
func (l *pipeListener) deliver(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.ch <- c // the backlog outsizes the dials any test has in flight
	return true
}

func (l *pipeListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
		// Close what is left in the backlog, accepted by nobody any more. An
		// Accept already under way may still take one, so the drain must not
		// wait for the connection it saw.
		for {
			select {
			case c := <-l.ch:
				c.Close()
			default:
				return nil
			}
		}
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr(l.addr) }

// bufConn is one end of a net.Pipe behind a send queue, as a socket is
// behind its send buffer: a small Write returns once it is queued, and a pump
// goroutine hands the queue to the pipe in order. The node serves the frames
// of a steady phase on the connection's reader, which writes their replies;
// over a bare net.Pipe, which buffers nothing, two readers could each wait
// for the other to read. A Write above sendBuffer waits for the queue to
// drain and then for its reader, as one that overflows a socket's buffer
// would, so a window-sized frame is not copied. Close fails local reads at
// once and lets the queue drain, for a grace period, before the pipe closes:
// a reply written just before a Close still arrives, as over TCP.
type bufConn struct {
	net.Conn
	mu     sync.Mutex
	cond   *sync.Cond // the queue or busy changed
	q      [][]byte
	busy   bool // a write is on the pipe
	closed bool
	failed error // a write's error; later writes return it
}

const (
	sendBuffer = 64 << 10
	// closeGrace bounds how long a closed bufConn's queue may take to drain.
	closeGrace = 100 * time.Millisecond
)

func newBufConn(c net.Conn) *bufConn {
	b := &bufConn{Conn: c}
	b.cond = sync.NewCond(&b.mu)
	go b.pump()
	return b
}

func (b *bufConn) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(p) <= sendBuffer {
		if b.closed || b.failed != nil {
			return 0, b.writeErr()
		}
		b.q = append(b.q, append([]byte(nil), p...))
		b.cond.Broadcast()
		return len(p), nil
	}
	for len(b.q) > 0 || b.busy {
		b.cond.Wait()
	}
	if b.closed || b.failed != nil {
		return 0, b.writeErr()
	}
	return b.write(p)
}

// write puts p on the pipe with mu released, marked busy. Caller holds mu.
func (b *bufConn) write(p []byte) (int, error) {
	b.busy = true
	b.mu.Unlock()
	n, err := b.Conn.Write(p)
	b.mu.Lock()
	b.busy = false
	if err != nil {
		b.failed, b.q = err, nil
	}
	b.cond.Broadcast()
	return n, err
}

func (b *bufConn) writeErr() error {
	if b.failed != nil {
		return b.failed
	}
	return net.ErrClosed
}

func (b *bufConn) pump() {
	defer b.Conn.Close()
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for (len(b.q) == 0 || b.busy) && !b.closed {
			b.cond.Wait()
		}
		for b.busy {
			b.cond.Wait()
		}
		if len(b.q) == 0 || b.failed != nil {
			return // closed and drained, or the pipe is gone
		}
		p := b.q[0]
		b.q[0], b.q = nil, b.q[1:]
		if _, err := b.write(p); err != nil {
			return
		}
	}
}

func (b *bufConn) Read(p []byte) (int, error) {
	n, err := b.Conn.Read(p)
	if err != nil {
		b.mu.Lock()
		if b.closed {
			err = net.ErrClosed
		}
		b.mu.Unlock()
	}
	return n, err
}

// SetReadDeadline passes the reader's deadlines through until Close, whose
// deadline in the past is the one that stays.
func (b *bufConn) SetReadDeadline(t time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return net.ErrClosed
	}
	return b.Conn.SetReadDeadline(t)
}

func (b *bufConn) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		b.Conn.SetReadDeadline(time.Unix(1, 0))
		b.Conn.SetWriteDeadline(time.Now().Add(closeGrace))
		b.cond.Broadcast()
	}
	return nil
}

// pipeDial is the record of one dialed connection.
type pipeDial struct {
	from, to string
	helloed  atomic.Bool // first frame written by the dialer was fHello
	closed   atomic.Bool // the dialer's end was closed (by either side's doing)
}

// recConn is the dialer's end of a pipe; it keeps its pipeDial current.
type recConn struct {
	net.Conn
	rec     *pipeDial
	wrote   bool // dialer-side writes are serialized by wire.Conn
	onFrame func(from, to string, t byte, payload []byte)
}

func (c *recConn) Write(b []byte) (int, error) {
	if !c.wrote {
		c.wrote = true
		c.rec.helloed.Store(len(b) > 4 && b[4] == fHello)
	}
	if c.onFrame != nil && len(b) >= 9 {
		c.onFrame(c.rec.from, c.rec.to, b[4], b[9:])
	}
	return c.Conn.Write(b)
}

func (c *recConn) Close() error {
	c.rec.closed.Store(true)
	return c.Conn.Close()
}

// farConn is the accepting end of a pipe. What a node writes there, its
// heartbeats aside, are replies — and the requests it sends the dialer on
// the dialer's connection — one Write each.
type farConn struct {
	net.Conn
	from, to string
	onFrame  func(from, to string, t byte, payload []byte)
	onReply  func(to string, t byte, payload []byte) (lost bool)
}

func (c *farConn) Write(b []byte) (int, error) {
	const replyBit = 0x80 // wire's; set on error replies (0xFF) too
	if c.onFrame != nil && len(b) >= 9 && b[4]&replyBit == 0 && b[4] != wire.TypeHeartbeat {
		c.onFrame(c.to, c.from, b[4], b[9:])
	}
	if c.onReply != nil && len(b) >= 9 && b[4]&replyBit != 0 && c.onReply(c.to, b[4], b[9:]) {
		// The ack is lost. The caller reads what a lost ack looks like on a
		// fabric connection: the refusal of a node on its way down.
		var e wire.Enc
		e.B(wire.CodeCrisis)
		e.I(0)
		e.Str("pipe: the reply was lost")
		lost := binary.BigEndian.AppendUint32(nil, uint32(5+len(e.Bytes())))
		lost = append(append(append(lost, 0xFF), b[5:9]...), e.Bytes()...)
		if _, err := c.Conn.Write(lost); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return c.Conn.Write(b)
}

type pipeNet struct {
	dialDelay time.Duration // widens the window concurrent dialers race in
	// onFrame, when set before the dial, sees every request frame either end
	// of a dialed connection writes (frames under wire's 2 KiB flatten
	// threshold: one Write each) on the writing goroutine, before it
	// reaches the pipe.
	onFrame func(from, to string, t byte, payload []byte)
	// onReply, when set before the dial, sees every reply the accepting side
	// at address `to` writes — t is the frame's type byte, the request's
	// with the reply bit set or 0xFF for an error reply — on the writing
	// goroutine. Returning true loses the reply: the handler has run, and
	// the caller is told the node is closing instead.
	onReply func(to string, t byte, payload []byte) (lost bool)

	mu    sync.Mutex
	lns   map[string]*pipeListener
	dials []*pipeDial
}

func newPipeNet() *pipeNet { return &pipeNet{lns: map[string]*pipeListener{}} }

func (pn *pipeNet) listen() *pipeListener {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	l := &pipeListener{
		addr: fmt.Sprintf("pipe-%d", len(pn.lns)),
		// A dial completes without waiting for the Accept, like a TCP
		// backlog; 64 exceeds the dials any test has in flight at once.
		ch: make(chan net.Conn, 64), done: make(chan struct{}),
	}
	pn.lns[l.addr] = l
	return l
}

func (pn *pipeNet) dialer(from string) transport.Dialer {
	return transport.DialerFunc(func(addr string) (net.Conn, error) {
		time.Sleep(pn.dialDelay)
		pn.mu.Lock()
		l := pn.lns[addr]
		pn.mu.Unlock()
		if l == nil {
			return nil, fmt.Errorf("pipe: no listener at %q", addr)
		}
		np, fp := net.Pipe()
		near, far := newBufConn(np), newBufConn(fp)
		if !l.deliver(&farConn{Conn: far, from: from, to: addr, onFrame: pn.onFrame, onReply: pn.onReply}) {
			near.Close()
			far.Close()
			return nil, fmt.Errorf("pipe: %s refused the connection", addr)
		}
		rec := &pipeDial{from: from, to: addr}
		pn.mu.Lock()
		pn.dials = append(pn.dials, rec)
		pn.mu.Unlock()
		return &recConn{Conn: near, rec: rec, onFrame: pn.onFrame}, nil
	})
}

func (pn *pipeNet) dialed() []*pipeDial {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	return append([]*pipeDial(nil), pn.dials...)
}

// ---- Harness ----------------------------------------------------------------

// fastTuning detects quickly; benchTuning is what bench/ and the soak run.
var (
	fastTuning  = Tuning{LeaseInterval: 50 * time.Millisecond, LeaseMiss: 10, GossipInterval: 10 * time.Millisecond}
	benchTuning = Tuning{LeaseInterval: 500 * time.Millisecond, LeaseMiss: 20, GossipInterval: 250 * time.Millisecond}
)

// testNode is a node with its own Logf: a line after Close fails the test.
type testNode struct {
	*Node
	log *leakcheck.Log
}

// closeWithin closes the node, demands promptness, and arms its log gate.
func (tn *testNode) closeWithin(t *testing.T, limit time.Duration) {
	t.Helper()
	t0 := time.Now()
	tn.Close()
	el := time.Since(t0)
	tn.log.Close()
	if limit > 0 && el > limit {
		t.Errorf("Close of rank %d took %v, want < %v", tn.rank, el, limit)
	}
}

type testFabric struct {
	t     *testing.T
	pn    *pipeNet
	base  int // goroutines before the fabric existed
	nodes []*testNode
	all   []*testNode // replacements and closed victims included

	// onlyKilledCondemned makes the teardown fail the test for every
	// verdict against a rank it did not kill (replace). condemned counts the
	// verdicts against each rank, killed the ranks replace killed; cmu
	// guards both.
	onlyKilledCondemned bool
	cmu                 sync.Mutex
	condemned           map[int]int
	killed              map[int]bool
}

const testPhases = 6

func testWords(n int) int           { return n * testPhases }
func testVal(src, phase int) uint64 { return uint64(src+1)<<32 | uint64(phase+1) }

// join enters the fabric through addr on a fresh listener. The node's
// verdicts are counted against the ranks they condemn.
func (f *testFabric) join(addr string) (*testNode, error) {
	ln := f.pn.listen()
	log := leakcheck.NewLog(f.t, true)
	logf := func(format string, args ...any) {
		if format == condemnLine {
			f.cmu.Lock()
			if f.condemned == nil {
				f.condemned = map[int]int{}
			}
			f.condemned[args[1].(int)]++
			f.cmu.Unlock()
		}
		log.Logf(format, args...)
	}
	nd, err := Join(JoinConfig{Join: addr, Addr: ln.addr, Listener: ln, Dialer: f.pn.dialer(ln.addr), Logf: logf})
	if err != nil {
		return nil, err
	}
	return &testNode{Node: nd, log: log}, nil
}

// startTestFabric bootstraps n ranks with the miniature workload's window.
func startTestFabric(t *testing.T, pn *pipeNet, n, groups int, tun Tuning) *testFabric {
	t.Helper()
	return startTestFabricWords(t, pn, n, groups, testWords(n), tun)
}

// startTestFabricWords bootstraps n ranks over a fresh pipeNet. Its cleanup
// closes what the test left open and then holds the node to its Close
// contract: no goroutine left, no log line after Close returned.
func startTestFabricWords(t *testing.T, pn *pipeNet, n, groups, words int, tun Tuning) *testFabric {
	t.Helper()
	f := &testFabric{t: t, pn: pn, base: runtime.NumGoroutine(), nodes: make([]*testNode, n)}
	t.Cleanup(f.teardown)
	seedLn := pn.listen()
	seed, err := NewSeed(SeedConfig{N: n, WindowWords: words, Groups: groups, Tuning: tun, Listener: seedLn})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	type joined struct {
		tn  *testNode
		err error
	}
	ch := make(chan joined, n)
	for i := 0; i < n; i++ {
		go func() {
			tn, err := f.join(seedLn.addr)
			ch <- joined{tn, err}
		}()
	}
	for i := 0; i < n; i++ {
		j := <-ch
		if j.err != nil {
			t.Fatalf("join: %v", j.err)
		}
		f.nodes[j.tn.rank] = j.tn
		f.all = append(f.all, j.tn)
	}
	return f
}

// drainWait bounds how long the teardown waits for the nodes to drain; a
// node that missed its fShutdown is closed live after it.
const drainWait = 2 * time.Second

// teardown ends the run as the soak does: every node still open is told the
// run is over (fShutdown) and, once all have drained, closed — a draining
// node reads its peers' connections going down as the end of the run, so
// the teardown condemns nobody. It then holds every node to its Close
// contract, and a fabric that asked for it (onlyKilledCondemned) to verdicts
// against the ranks it killed alone.
func (f *testFabric) teardown() {
	var live []*testNode // a node still joining has nothing to drain
	for _, tn := range f.all {
		if tn.state.Load() == stLive {
			live = append(live, tn)
		}
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for _, tn := range live {
			NotifyShutdown(f.pn.dialer("teardown"), tn.addr)
		}
		for _, tn := range live {
			tn.AwaitShutdown()
		}
	}()
	select {
	case <-drained:
	case <-time.After(drainWait):
	}
	for _, tn := range f.all {
		tn.closeWithin(f.t, 0)
	}
	<-drained
	leakcheck.Goroutines(f.t, f.base)
	for _, tn := range f.all {
		tn.log.Check(fmt.Sprintf("rank %d", tn.rank))
	}
	if f.onlyKilledCondemned {
		f.cmu.Lock()
		defer f.cmu.Unlock()
		for r, n := range f.condemned {
			if !f.killed[r] {
				f.t.Errorf("rank %d, which the test did not kill, was condemned %d times", r, n)
			}
		}
	}
}

// putPhase is the miniature causal workload over a run of `phases` phases:
// one write-once word to every peer at (rank, p), then the gsync.
func putPhase(nd *Node, p, phases int) error {
	for q := 0; q < nd.n; q++ {
		if q != nd.rank {
			nd.Put(q, nd.rank*phases+p, []uint64{testVal(nd.rank, p)})
		}
	}
	return nd.Sync()
}

// runPhase is putPhase on the window startTestFabric sizes.
func runPhase(nd *Node, p int) error { return putPhase(nd, p, testPhases) }

func drivePhases(nd *Node, from, to int) error {
	for p := from; p < to; p++ {
		if err := runPhase(nd, p); err != nil {
			return fmt.Errorf("rank %d phase %d: %w", nd.rank, p, err)
		}
	}
	return nil
}

// await polls cond (10 s).
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out awaiting %s", what)
		}
	}
}

func (nd *Node) inboundLen() int {
	nd.cmu.Lock()
	defer nd.cmu.Unlock()
	return len(nd.inbound)
}

func (nd *Node) sees(rank int) Member {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	return nd.members[rank]
}

// ---- Tests ------------------------------------------------------------------

// TestPeerSingleFlight: 32 goroutines that need the same peer at once get
// one connection between them, and the peer's listener accepts exactly one.
func TestPeerSingleFlight(t *testing.T) {
	pn := newPipeNet()
	pn.dialDelay = 2 * time.Millisecond
	// Seconds between gossip rounds: nothing but the test dials.
	f := startTestFabric(t, pn, 2, 1, Tuning{GossipInterval: 4 * time.Second})
	nd, target := f.nodes[0].Node, f.nodes[1].sees(1)
	ln := pn.lns[target.Addr]
	if got := ln.accepted.Load(); got != 0 {
		t.Fatalf("rank 1 accepted %d connections before anyone needed it", got)
	}
	const callers = 32
	got := make(chan *peerConn, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		go func() {
			<-start
			pc, err := nd.peer(target)
			if err != nil {
				t.Errorf("peer: %v", err)
			}
			got <- pc
		}()
	}
	close(start)
	first := <-got
	for i := 1; i < callers; i++ {
		if pc := <-got; pc != first {
			t.Errorf("caller %d got connection %p, the first got %p", i, pc, first)
		}
	}
	dials := 0
	for _, d := range pn.dialed() {
		if d.to == target.Addr {
			dials++
		}
	}
	await(t, "the accept", func() bool { return int(ln.accepted.Load()) >= dials })
	if dials != 1 || ln.accepted.Load() != 1 {
		t.Fatalf("%d concurrent callers dialed rank 1 %d times and its listener accepted %d connections, want 1 and 1",
			callers, dials, ln.accepted.Load())
	}
}

// TestCondemnWhileJoining: a node that has not applied its world ignores
// death reports. Its peers learn its address from the arbiter before it
// has a membership table, so a helloed connection can go down that early;
// the parent commit indexed the nil table (index out of range [0], on the
// wire reader goroutine, killing the process).
func TestCondemnWhileJoining(t *testing.T) {
	base := runtime.NumGoroutine()
	pn := newPipeNet()
	ln := pn.listen()
	log := leakcheck.NewLog(t, true)
	nd, err := newNode(JoinConfig{Addr: ln.addr, Listener: ln, Dialer: pn.dialer(ln.addr), Logf: log.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNode{Node: nd, log: log}
	f := &testFabric{t: t, pn: pn, base: base, all: []*testNode{tn}}
	t.Cleanup(f.teardown)

	nc, err := pn.dialer("peer").Dial(ln.addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.New(nc, wire.Config{})
	var e wire.Enc
	e.I(1) // rank 1 (0 would pass for the unassigned node's own rank) …
	e.I(0) // … incarnation 0 says hello
	wc.Notify(fHello, e.Bytes())
	await(t, "the hello", func() bool {
		nd.cmu.Lock()
		defer nd.cmu.Unlock()
		for st := range nd.inbound {
			if st.helloed {
				return true
			}
		}
		return false
	})
	wc.Close()
	await(t, "the down callback", func() bool { return nd.inboundLen() == 0 })
	if got := nd.om.condemned.Load(); got != 0 {
		t.Fatalf("a joining node passed %d verdicts", got)
	}
	// Direct reports are ignored as well, whatever they name.
	nd.condemn(3, 7, errors.New("test"))
}

// TestProbesLeaveNoTrace: anonymous one-shot connections (FetchMembers
// probes, joiners) leave the peer table when they go down; 1000 of them
// leave it at its steady-state size.
func TestProbesLeaveNoTrace(t *testing.T) {
	pn := newPipeNet()
	f := startTestFabric(t, pn, 2, 1, fastTuning)
	errs := make(chan error, 2)
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- drivePhases(tn.Node, 0, 1) }()
	}
	for range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	nd := f.nodes[0].Node
	await(t, "the joiners' connections to drain", func() bool { return nd.inboundLen() == 1 })
	probe := pn.dialer("probe")
	for i := 0; i < 1000; i++ {
		ms, _, err := FetchMembers(probe, nd.addr)
		if err != nil || len(ms) != 2 {
			t.Fatalf("probe %d: %d members, err %v", i, len(ms), err)
		}
	}
	await(t, "1000 probe connections to leave the table", func() bool { return nd.inboundLen() == 1 })
	if got := pn.lns[nd.addr].accepted.Load(); got < 1000 {
		t.Fatalf("listener accepted %d connections, the probes alone were 1000", got)
	}
}

// TestReplaceKeepsLiveConnections: a rank is killed and replaced mid-run.
// Afterwards every pair of live nodes is joined by exactly one helloed
// connection per direction and none was ever closed — so nobody mistook a
// bookkeeping close for a death — and the victim is the only one condemned.
func TestReplaceKeepsLiveConnections(t *testing.T) {
	const n, victim, stopAt = 4, 1, 2
	pn := newPipeNet()
	f := startTestFabric(t, pn, n, 2, fastTuning)
	errs := make(chan error, n)
	for r, tn := range f.nodes {
		tn, to := tn, testPhases
		if r == victim {
			to = stopAt
		}
		go func() { errs <- drivePhases(tn.Node, 0, to) }()
	}
	if err := <-errs; err != nil { // the victim's driver returns first
		t.Fatal(err)
	}
	f.nodes[victim].closeWithin(t, 0)
	for r, tn := range f.nodes {
		if r != victim {
			await(t, "the verdict", func() bool { return !tn.sees(victim).Alive })
		}
	}
	// Through a non-arbiter survivor, so the join is redirected once.
	repl, err := f.join(f.nodes[3].addr)
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	f.all = append(f.all, repl)
	f.nodes[victim] = repl
	if repl.rank != victim || repl.inc != 1 || repl.Phase() != stopAt {
		t.Fatalf("replacement is rank %d inc %d at phase %d, want rank %d inc 1 at phase %d",
			repl.rank, repl.inc, repl.Phase(), victim, stopAt)
	}
	go func() { errs <- drivePhases(repl.Node, stopAt, testPhases) }()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	live := map[string]int{}
	for r, tn := range f.nodes {
		live[tn.addr] = r
		for src := 0; src < n; src++ {
			for p := 0; p < testPhases && src != r; p++ {
				if got := tn.ReadAt(src*testPhases+p, 1)[0]; got != testVal(src, p) {
					t.Errorf("rank %d word (%d, %d) = %#x, want %#x", r, src, p, got, testVal(src, p))
				}
			}
		}
		// One verdict at most (a survivor may have heard of the death by
		// gossip first), none from the replacement, everybody alive.
		if got := tn.om.condemned.Load(); got > 1 || r == victim && got > 0 {
			t.Errorf("rank %d passed %d verdicts", r, got)
		}
		for q := 0; q < n; q++ {
			inc := 0
			if q == victim {
				inc = 1
			}
			if m := tn.sees(q); !m.Alive || m.Incarnation != inc {
				t.Errorf("rank %d ends up seeing %+v", r, m)
			}
		}
	}
	links := map[[2]int]int{}
	for _, d := range pn.dialed() {
		from, ok1 := live[d.from]
		to, ok2 := live[d.to]
		if !ok1 || !ok2 || !d.helloed.Load() {
			continue // to or from the dead incarnation, a joiner, or a probe
		}
		links[[2]int{from, to}]++
		if d.closed.Load() {
			t.Errorf("the connection rank %d → rank %d was closed while both were live", from, to)
		}
	}
	for link, k := range links {
		if k != 1 {
			t.Errorf("rank %d dialed rank %d %d times, want once", link[0], link[1], k)
		}
	}
}

// TestClosePromptAndFinal: under the benchmark's tuning Close of a node
// with a parked redelivery, of an arbiter holding a reconstruction for a
// replacement that never comes, and of one holding a join open, returns in
// under 50 ms; the parked call fails with ErrClosed; a second Close is a
// no-op. The teardown then finds no goroutine and no late log line.
func TestClosePromptAndFinal(t *testing.T) {
	const n, victim = 3, 2
	pn := newPipeNet()
	f := startTestFabric(t, pn, n, 1, benchTuning)
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
	arbiter, parked := f.nodes[0], f.nodes[1]
	f.nodes[victim].closeWithin(t, 50*time.Millisecond)
	await(t, "the arbiter to park the install", func() bool {
		arbiter.mmu.Lock()
		defer arbiter.mmu.Unlock()
		return arbiter.pending != nil
	})
	await(t, "the verdict", func() bool { return !parked.sees(victim).Alive })
	go func() { errs <- runPhase(parked.Node, 1) }() // parks delivering to the victim
	// No event marks "parked"; the sleep only makes that interleaving the
	// likely one — every assertion below holds in the other order too.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatalf("the redelivery did not park: %v", err)
	default:
	}
	parked.closeWithin(t, 50*time.Millisecond)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Sync returned %v, want ErrClosed", err)
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("Close left the parked Sync parked")
	}
	arbiter.closeWithin(t, 50*time.Millisecond)
	arbiter.closeWithin(t, time.Millisecond) // second Close: a no-op
	if err := arbiter.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on a closed node returned %v, want ErrClosed", err)
	}

	// An arbiter holding a join open for a death that has not happened
	// closes as promptly, and the join fails.
	pn = newPipeNet()
	arbiter = startTestFabric(t, pn, 2, 1, benchTuning).nodes[0]
	_, gone := ghostJoin(t, pn, arbiter.addr)
	arbiter.closeWithin(t, 50*time.Millisecond)
	select {
	case err := <-gone:
		if err == nil {
			t.Fatal("a closed arbiter answered the join it held")
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("Close left the held join held")
	}
}

// TestLongLeaseJoins: a lease interval past 4.295 s (2^32 ns, where Dec.I
// stops) still crosses the world frame; the fabric joins and closes a phase.
func TestLongLeaseJoins(t *testing.T) {
	f := startTestFabric(t, newPipeNet(), 4, 2, Tuning{LeaseInterval: 5 * time.Second, LeaseMiss: 3, GossipInterval: 10 * time.Millisecond})
	errs := make(chan error, len(f.nodes))
	for _, tn := range f.nodes {
		tn := tn
		go func() { errs <- drivePhases(tn.Node, 0, 1) }()
	}
	for _, tn := range f.nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if got := tn.tun().LeaseInterval; got != 5*time.Second {
			t.Fatalf("rank %d runs a %v lease, the seed distributed 5s", tn.rank, got)
		}
	}
}

// TestSeedCloseReleasesParkedJoins: a seed closed before all N ranks arrived
// fails the joins parked at its rendezvous instead of holding them (and the
// goroutines serving them) forever, and its accept loop is gone when Close
// returns.
func TestSeedCloseReleasesParkedJoins(t *testing.T) {
	pn := newPipeNet()
	f := &testFabric{t: t, pn: pn, base: runtime.NumGoroutine()}
	t.Cleanup(f.teardown)
	ln := pn.listen()
	seed, err := NewSeed(SeedConfig{N: 4, WindowWords: 8, Groups: 1, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		var e wire.Enc
		e.Str(fmt.Sprintf("joiner-%d", i))
		go func() {
			_, _, err := seed.handle(fJoin, e.Bytes())
			errs <- err
		}()
	}
	// A third joiner is still connecting: Close takes its connection down too.
	nc, err := pn.dialer("joiner-2").Dial(ln.addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.New(nc, wire.Config{})
	defer wc.Close()
	await(t, "two of four ranks to join", func() bool { return seed.Joined() == 2 && ln.accepted.Load() == 1 })
	seed.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || err.Error() != "fabric: seed closed before rendezvous completed" {
				t.Fatalf("a parked join returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a join parked at the rendezvous")
		}
	}
	var e wire.Enc
	e.Str("latecomer")
	if _, _, err := seed.handle(fJoin, e.Bytes()); err == nil {
		t.Fatal("a closed seed accepted a join")
	}
	seed.Close() // a second Close is a no-op
}
