package wire

// Tests of how a Conn serves and reads: the requests served on the reader
// itself (Config.Inline) and the replies a handler answers later (Reply),
// the warm handler goroutine that takes back-to-back requests without one
// goroutine each, and the read-ahead buffer that takes a small frame — or
// many — in one read.

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
	"unsafe"

	"repro/internal/leakcheck"
)

const (
	typeEcho  = 0x21
	typeBlock = 0x22
)

// echo answers a request with its own payload.
func echo(ty byte, p []byte) (byte, []byte, error) { return ty, append([]byte(nil), p...), nil }

// rawFrame encodes one frame as readLoop expects it on the wire.
func rawFrame(t byte, id uint32, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(5+len(payload)))
	b = append(b, t)
	b = binary.BigEndian.AppendUint32(b, id)
	return append(b, payload...)
}

// seqPayload is n ≥ 4 bytes: seq, then a pattern only seq produces.
func seqPayload(seq, n int) []byte {
	p := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(seq))
	for i := 4; i < n; i++ {
		p = append(p, byte(seq*7+i))
	}
	return p
}

// seqSink is a Handler that checks seqPayload notifications and counts them
// by seq.
type seqSink struct {
	mu   sync.Mutex
	seen map[int]int
	bad  []string
}

func (s *seqSink) handle(_ byte, p []byte) (byte, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(p) < 4 {
		s.bad = append(s.bad, fmt.Sprintf("a %d-byte payload", len(p)))
		return 0, nil, nil
	}
	seq := int(binary.BigEndian.Uint32(p))
	if want := seqPayload(seq, len(p)); string(want) != string(p) {
		s.bad = append(s.bad, fmt.Sprintf("frame %d (%d bytes) arrived corrupted", seq, len(p)))
	}
	s.seen[seq]++
	return 0, nil, nil
}

// await waits for all k frames and checks each arrived once, intact.
func (s *seqSink) await(t *testing.T, k int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.seen)
		s.mu.Unlock()
		if n >= k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived", n, k)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.bad {
		t.Error(b)
	}
	for seq := 0; seq < k; seq++ {
		if s.seen[seq] != 1 {
			t.Errorf("frame %d arrived %d times", seq, s.seen[seq])
		}
	}
}

// countingConn counts the Reads that returned data; oneByte, when set,
// hands out at most one byte per Read.
type countingConn struct {
	net.Conn
	oneByte bool
	reads   atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	if c.oneByte && len(b) > 1 {
		b = b[:1]
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestInlineRequestsStayOnReader: the request types Inline names are served
// on the reader, whatever their number, and the others are handed to a
// handler goroutine, one handoff each.
func TestInlineRequestsStayOnReader(t *testing.T) {
	const calls = 50
	cn, sn := net.Pipe()
	reader := make(chan uint64, 2*calls) // goroutine ids the handler ran on
	server := New(sn, Config{
		Handler: func(ty byte, p []byte) (byte, []byte, error) {
			buf := make([]byte, 64)
			var id uint64
			fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %d", &id)
			reader <- id
			return echo(ty, p)
		},
		Inline: func(ty byte) bool { return ty == typeEcho },
	})
	defer server.Close()
	client := New(cn, Config{})
	defer client.Close()
	ids := map[uint64]bool{}
	for i := 0; i < calls; i++ {
		if _, err := client.Call(typeEcho, seqPayload(i, 8)); err != nil {
			t.Fatal(err)
		}
		ids[<-reader] = true
	}
	if got := server.Handoffs(); got != 0 || server.spawned.Load() != 0 || len(ids) != 1 {
		t.Fatalf("%d inline calls: %d handoffs, %d goroutines started, served on %d goroutines; want 0, 0, 1",
			calls, got, server.spawned.Load(), len(ids))
	}
	for i := 0; i < calls; i++ {
		if _, err := client.Call(typeEcho+1, seqPayload(i, 8)); err != nil {
			t.Fatal(err)
		}
		if id := <-reader; ids[id] {
			t.Fatal("a request Inline does not name ran on the reader")
		}
	}
	if got := server.Handoffs(); got != calls {
		t.Fatalf("%d calls Inline does not name: %d handoffs, want %d", calls, got, calls)
	}
}

// TestReplyLater: an inline handler that returns ErrLater keeps its request's
// Reply while the reader goes on serving — later requests are answered
// before it — and the answer it sends from another goroutine, a payload or
// an error, reaches the caller. A notification's Reply writes nothing.
func TestReplyLater(t *testing.T) {
	const typeHold = 0x23
	cn, sn := net.Pipe()
	held := make(chan Reply, 4)
	server := New(sn, Config{
		VecHandler: func(ty byte, p []byte, r Reply) (byte, *Vec, error) {
			if ty == typeHold {
				held <- r
				return ty, nil, ErrLater
			}
			v := NewVec()
			v.Raw(p)
			return ty, v, nil
		},
		Inline: func(byte) bool { return true },
	})
	defer server.Close()
	client := New(cn, Config{})
	defer client.Close()
	type result struct {
		reply []byte
		err   error
	}
	call := func() <-chan result {
		ch := make(chan result, 1)
		go func() {
			reply, err := client.Call(typeHold, nil)
			ch <- result{reply, err}
		}()
		return ch
	}
	first, second := call(), call()
	r1, r2 := <-held, <-held
	if reply, err := client.Call(typeEcho, []byte("behind")); err != nil || string(reply) != "behind" {
		t.Fatalf("a call behind two held ones: %q, %v", reply, err)
	}
	v := NewVec()
	v.B(7)
	r1.Send(typeHold, v, nil)
	r2.Send(typeHold, nil, RemoteFail{Code: CodeCrisis, Msg: "closing"})
	var got []result
	for _, ch := range []<-chan result{first, second} {
		select {
		case res := <-ch:
			got = append(got, res)
		case <-time.After(5 * time.Second):
			t.Fatal("a held call was never answered")
		}
	}
	var ok, failed int
	for _, res := range got {
		var rf RemoteFail
		switch {
		case res.err == nil && len(res.reply) == 1 && res.reply[0] == 7:
			ok++
		case errors.As(res.err, &rf) && rf.Code == CodeCrisis:
			failed++
		default:
			t.Errorf("a held call returned %v, %v", res.reply, res.err)
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("held calls: %d answered, %d failed; want 1 and 1", ok, failed)
	}
	// The client counts a frame before it hands it on, so once the call
	// returns, anything the notification's Reply wrote before it is counted.
	recv := client.Received()
	if err := client.Notify(typeHold, nil); err != nil {
		t.Fatal(err)
	}
	(<-held).Send(typeHold, nil, nil)
	if _, err := client.Call(typeEcho, nil); err != nil {
		t.Fatal(err)
	}
	if got := client.Received() - recv; got != 1 {
		t.Fatalf("a notification's Reply and a call's reply sent %d frames, want 1", got)
	}
}

// TestWarmHandlerServesSequentialCalls: back-to-back calls on one Conn are
// served by one handler goroutine, not one each.
func TestWarmHandlerServesSequentialCalls(t *testing.T) {
	const calls = 200
	cn, sn := net.Pipe()
	server := New(sn, Config{Handler: echo})
	defer server.Close()
	client := New(cn, Config{})
	defer client.Close()
	for i := 0; i < calls; i++ {
		p := seqPayload(i, 4+i%32)
		reply, err := client.Call(typeEcho, p)
		if err != nil || string(reply) != string(p) {
			t.Fatalf("call %d: %q, %v", i, reply, err)
		}
	}
	if got := server.spawned.Load(); got != 1 {
		t.Fatalf("%d sequential calls started %d handler goroutines, want 1", calls, got)
	}
}

// TestParkedHandlersCapped: with maxParked handlers parked in the process,
// a connection parks none of its own: every request gets a goroutine, which
// ends with it.
func TestParkedHandlersCapped(t *testing.T) {
	const calls = 20
	base := runtime.NumGoroutine()
	parked.Add(maxParked)
	defer parked.Add(-maxParked)
	cn, sn := net.Pipe()
	server := New(sn, Config{Handler: echo})
	client := New(cn, Config{})
	for i := 0; i < calls; i++ {
		if _, err := client.Call(typeEcho, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := server.spawned.Load(); got != calls {
		t.Fatalf("%d calls past the process's cap started %d handler goroutines, want %d", calls, got, calls)
	}
	if server.spare.Load() != nil {
		t.Fatal("a handler parked past the process's cap")
	}
	client.Close()
	server.Close()
	leakcheck.Goroutines(t, base)
}

// TestBlockedHandlerStallsNothing: a handler blocked for good leaves the
// connection serving — a second request is answered, heartbeats flow both
// ways and no lease expires — and, once released and closed, the
// connections leave no goroutine behind.
func TestBlockedHandlerStallsNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	release, entered := make(chan struct{}), make(chan struct{})
	cn, sn := net.Pipe()
	lease := Config{Heartbeat: 5 * time.Millisecond, ReadTimeout: 100 * time.Millisecond}
	scfg := lease
	scfg.Handler = func(ty byte, p []byte) (byte, []byte, error) {
		if ty == typeBlock {
			close(entered)
			<-release
		}
		return echo(ty, p)
	}
	server := New(sn, scfg)
	client := New(cn, lease)

	blocked := make(chan error, 1)
	go func() {
		_, err := client.Call(typeBlock, []byte("stuck"))
		blocked <- err
	}()
	<-entered
	t0 := time.Now()
	if reply, err := client.Call(typeEcho, []byte("next")); err != nil || string(reply) != "next" {
		t.Fatalf("a call behind a blocked handler: %q, %v", reply, err)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("a call behind a blocked handler took %v", el)
	}
	// Three leases long: only heartbeats read on both sides keep them up.
	sin, cin := server.Received(), client.Received()
	time.Sleep(300 * time.Millisecond)
	if server.Received()-sin < 10 || client.Received()-cin < 10 {
		t.Fatalf("in 300 ms of 5 ms heartbeats the server read %d frames and the client %d",
			server.Received()-sin, client.Received()-cin)
	}
	if _, err := client.Call(typeEcho, []byte("alive")); err != nil {
		t.Fatalf("the connection went down with a handler blocked: %v", err)
	}
	select {
	case err := <-blocked:
		t.Fatalf("the blocked call returned early: %v", err)
	default:
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("the released call: %v", err)
	}
	client.Close()
	server.Close()
	leakcheck.Goroutines(t, base)
}

// TestCloseEndsParkedHandlers: the handler parked on each connection exits
// when the connection goes down, closed from either end.
func TestCloseEndsParkedHandlers(t *testing.T) {
	base := runtime.NumGoroutine()
	var conns []*Conn
	for i := 0; i < 8; i++ {
		cn, sn := net.Pipe()
		server := New(sn, Config{Handler: echo})
		client := New(cn, Config{Handler: echo})
		for j := 0; j < 3; j++ {
			if _, err := client.Call(typeEcho, []byte{byte(j)}); err != nil {
				t.Fatal(err)
			}
			if _, err := server.Call(typeEcho, []byte{byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
		if server.spare.Load() == nil || client.spare.Load() == nil {
			t.Fatal("no handler parked after serving a call")
		}
		if i%2 == 0 {
			conns = append(conns, client) // the server reads the close as EOF
		} else {
			conns = append(conns, server)
		}
	}
	for _, c := range conns {
		c.Close()
	}
	leakcheck.Goroutines(t, base)
}

// TestCallReusesReplyChannels: a steady-state call allocates nothing —
// reply channel, frame bodies and the handler goroutine are all reused —
// and a channel that Close closed under a pending call is not reused.
func TestCallReusesReplyChannels(t *testing.T) {
	release := make(chan struct{})
	cn, sn := net.Pipe()
	server := New(sn, Config{Handler: func(ty byte, _ []byte) (byte, []byte, error) {
		if ty == typeBlock {
			<-release
		}
		return ty, nil, nil
	}})
	defer server.Close()
	defer close(release)
	client := New(cn, Config{})
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	call := func() {
		if _, err := client.Call(typeEcho, payload); err != nil {
			t.Fatal(err)
		}
	}
	call()
	call()
	if !raceEnabled { // the race detector makes sync.Pool drop a quarter of its Puts
		if avg := testing.AllocsPerRun(200, call); avg != 0 {
			t.Fatalf("a steady-state call allocates %.1f times, want 0", avg)
		}
	}
	if n := len(client.replies); n != 1 {
		t.Fatalf("%d idle reply channels after sequential calls, want 1", n)
	}
	failed := make(chan error, 1)
	go func() {
		_, err := client.Call(typeBlock, nil)
		failed <- err
	}()
	for {
		client.pmu.Lock()
		n := len(client.pending)
		client.pmu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	client.Close()
	if err := <-failed; err == nil {
		t.Fatal("a call pending at Close succeeded")
	}
	client.pmu.Lock()
	defer client.pmu.Unlock()
	if n := len(client.replies); n != 0 {
		t.Fatalf("%d reply channels kept after Close closed the pending call's, want 0", n)
	}
}

// TestReadAheadStraddlesTheBuffer: one write of frames whose sizes put
// every kind of boundary — in a header, in a payload, between frames — at
// the read-ahead buffer's edge, with payloads larger than the buffer among
// them, arrives frame for frame.
func TestReadAheadStraddlesTheBuffer(t *testing.T) {
	cn, sn := net.Pipe()
	sink := &seqSink{seen: map[int]int{}}
	server := New(sn, Config{Handler: sink.handle})
	defer server.Close()
	var stream []byte
	k := 0
	for ; len(stream) < 24*readAheadSize; k++ {
		n := 4 + (k*37)%301
		if k%29 == 28 {
			n = readAheadSize + k // past the buffer: read around it
		}
		stream = append(stream, rawFrame(typeEcho, 0, seqPayload(k, n))...)
	}
	if _, err := cn.Write(stream); err != nil {
		t.Fatal(err)
	}
	sink.await(t, k)
	cn.Close()
}

// TestReadAheadFewReadsForManyFrames: 100 small frames written as one
// segment take as many Reads as buffers they fill, not one per header and
// one per payload.
func TestReadAheadFewReadsForManyFrames(t *testing.T) {
	const frames, frameLen = 100, 9 + 4
	cn, sn := net.Pipe()
	rc := &countingConn{Conn: sn}
	sink := &seqSink{seen: map[int]int{}}
	server := New(rc, Config{Handler: sink.handle})
	defer server.Close()
	var segment []byte
	for k := 0; k < frames; k++ {
		segment = append(segment, rawFrame(typeEcho, 0, seqPayload(k, frameLen-9))...)
	}
	if _, err := cn.Write(segment); err != nil {
		t.Fatal(err)
	}
	sink.await(t, frames)
	// A Read after the first may share the buffer with a frame's head: it
	// takes at least readAheadSize-frameLen+1 new bytes.
	want := (len(segment) + readAheadSize - frameLen) / (readAheadSize - frameLen + 1)
	if got := rc.reads.Load(); got > int64(want) {
		t.Fatalf("%d frames in one %d-byte segment took %d reads, want %d", frames, len(segment), got, want)
	}
	cn.Close()
}

// TestReadAheadOneBytePerRead: a connection that hands out one byte per
// Read still delivers every frame, small or past the buffer, whole.
func TestReadAheadOneBytePerRead(t *testing.T) {
	cn, sn := net.Pipe()
	server := New(&countingConn{Conn: sn, oneByte: true}, Config{Handler: echo})
	defer server.Close()
	client := New(&countingConn{Conn: cn, oneByte: true}, Config{})
	defer client.Close()
	for _, n := range []int{1, 8, readAheadSize - 9, readAheadSize - 8, readAheadSize, 2*readAheadSize + 3} {
		p := seqPayload(n, 4+n)
		reply, err := client.Call(typeEcho, p)
		if err != nil || string(reply) != string(p) {
			t.Fatalf("%d-byte echo one byte at a time: %d bytes back, %v", len(p), len(reply), err)
		}
	}
}

// TestReadAheadLargeWordsAliased: a 4 MiB word vector goes around the
// read-ahead buffer into a frame body of its own, where WordsView aliases it
// in place instead of decoding it into the scratch it is offered.
func TestReadAheadLargeWordsAliased(t *testing.T) {
	const words = 512 << 10
	if !hostLittle {
		t.Skip("WordsView aliases on little-endian hosts only")
	}
	cn, sn := net.Pipe()
	server := New(sn, Config{Handler: func(ty byte, p []byte) (byte, []byte, error) {
		d := NewDec(p)
		d.B()
		view := d.WordsView(make([]uint64, words))
		if d.Failed() || len(view) == 0 {
			return 0, nil, fmt.Errorf("undecodable words")
		}
		start, end := uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&p[len(p)-1]))
		if at := uintptr(unsafe.Pointer(&view[0])); at < start || at > end {
			return 0, nil, fmt.Errorf("the words were copied out, not viewed in the frame body")
		}
		var sum uint64
		for i, w := range view {
			sum += w * uint64(i+1)
		}
		var e Enc
		e.W64(sum)
		e.I(len(view))
		return ty, e.Bytes(), nil
	}})
	defer server.Close()
	client := New(cn, Config{})
	defer client.Close()
	w := make([]uint64, words)
	var want uint64
	for i := range w {
		w[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		want += w[i] * uint64(i+1)
	}
	v := NewVec()
	v.B(3) // an odd offset ahead of the vector
	v.Words(w)
	reply, err := client.CallVec(typeEcho, v)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDec(reply)
	if sum, n := d.W64(), d.I(); d.Failed() || sum != want || n != words {
		t.Fatalf("the server saw %d words summing to %#x, want %d and %#x", n, sum, words, want)
	}
}
