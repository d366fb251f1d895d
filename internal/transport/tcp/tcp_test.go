package tcp

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// stubHandler is a minimal window: a word array behind a mutex.
type stubHandler struct {
	mu  sync.Mutex
	mem []uint64
}

func newStub(words int) *stubHandler { return &stubHandler{mem: make([]uint64, words)} }

func (s *stubHandler) Flush(src, target int, ops []transport.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case transport.KindPut:
			copy(s.mem[op.Off:], op.Data)
		case transport.KindAcc:
			for j, w := range op.Data {
				s.mem[op.Off+j] += w
			}
		case transport.KindGet:
			copy(op.Dest, s.mem[op.Off:])
		}
	}
	return nil
}

func (s *stubHandler) CompareAndSwap(src, target, off int, old, new uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.mem[off]
	if prev == old {
		s.mem[off] = new
	}
	return prev, nil
}

func (s *stubHandler) FetchAndOp(src, target, off int, operand uint64, red uint8) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.mem[off]
	s.mem[off] += operand
	return prev, nil
}

func (s *stubHandler) GetAccumulate(src, target, off int, data []uint64, red uint8) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := make([]uint64, len(data))
	copy(prev, s.mem[off:])
	for j, w := range data {
		s.mem[off+j] += w
	}
	return prev, nil
}

func (s *stubHandler) Lock(src, target, str int, now, latency float64) (float64, error) {
	return now + latency, nil
}

func (s *stubHandler) Unlock(src, target, str int, now, latency float64) error { return nil }

// newPeer builds one rank of an n-world on a fresh localhost listener,
// heartbeats off. addrs is shared across the world's peers.
func newPeer(t testing.TB, self, n int, addrs map[int]string, lns map[int]net.Listener) *Peer {
	t.Helper()
	p, err := New(Config{
		Self: self, N: n, Listener: lns[self], Peers: addrs,
		Local:             newStub(4096),
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatalf("tcp.New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// bindWorld binds n localhost listeners. Its cleanup runs after every
// peer's Close (cleanups run last in, first out) and holds the world to
// the Close contract: no goroutine outlives it.
func bindWorld(t testing.TB, n int) (map[int]string, map[int]net.Listener) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { leakcheck.Goroutines(t, base) })
	addrs := make(map[int]string, n)
	lns := make(map[int]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	return addrs, lns
}

// dialRaw opens a bare framed connection to p — the adversarial stand-in
// for a peer that does not follow the client protocol.
func dialRaw(t *testing.T, p *Peer) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := wire.New(nc, wire.Config{})
	t.Cleanup(func() { c.Close() })
	return c
}

func helloPayload(rank int) []byte {
	var e wire.Enc
	e.I(rank)
	return e.Bytes()
}

// TestInboundPruned is the regression for the accept-side leak: inbound
// connections must leave the peer's bookkeeping when they die, however
// many come and go.
func TestInboundPruned(t *testing.T) {
	addrs, lns := bindWorld(t, 2)
	p := newPeer(t, 0, 2, addrs, lns)

	const churn = 8
	for i := 0; i < churn; i++ {
		c := dialRaw(t, p)
		if _, err := c.Call(tHello, helloPayload(1)); err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
		if p.InboundCount() == 0 {
			t.Fatalf("round %d: inbound conn not registered", i)
		}
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for p.InboundCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: InboundCount = %d after close, leak", i, p.InboundCount())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHelloValidation is the regression for the unchecked hello rank: a
// rank outside the world, a garbage payload, and a second hello on the
// same connection are all rejected.
func TestHelloValidation(t *testing.T) {
	addrs, lns := bindWorld(t, 2)
	p := newPeer(t, 0, 2, addrs, lns)

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"rank beyond world", helloPayload(99)},
		{"empty payload", nil},
		{"poisoned rank", []byte{0x80}}, // dangling uvarint
	} {
		c := dialRaw(t, p)
		_, err := c.Call(tHello, tc.payload)
		if err == nil || !strings.Contains(err.Error(), "malformed hello") {
			t.Fatalf("%s: err = %v, want malformed hello", tc.name, err)
		}
		c.Close()
	}

	c := dialRaw(t, p)
	if _, err := c.Call(tHello, helloPayload(1)); err != nil {
		t.Fatalf("first hello: %v", err)
	}
	_, err := c.Call(tHello, helloPayload(1))
	if err == nil || !strings.Contains(err.Error(), "duplicate hello") {
		t.Fatalf("second hello: err = %v, want duplicate hello", err)
	}
}

// benchOps builds the canonical mixed batch: puts followed by gets.
func benchOps(putOps, getOps, wordsPerOp int) []transport.Op {
	payload := make([]uint64, wordsPerOp)
	for i := range payload {
		payload[i] = uint64(i) * 7
	}
	var ops []transport.Op
	for j := 0; j < putOps; j++ {
		ops = append(ops, transport.Op{Kind: transport.KindPut, Off: j * wordsPerOp, Data: payload})
	}
	for j := 0; j < getOps; j++ {
		ops = append(ops, transport.Op{Kind: transport.KindGet, Off: j * wordsPerOp, Dest: make([]uint64, wordsPerOp)})
	}
	return ops
}

// TestFlushRoundTrip drives a mixed batch across real sockets and checks
// the words that land (scatter) and come back (gather).
func TestFlushRoundTrip(t *testing.T) {
	addrs, lns := bindWorld(t, 2)
	p0 := newPeer(t, 0, 2, addrs, lns)
	newPeer(t, 1, 2, addrs, lns)

	ops := benchOps(4, 4, 64)
	if err := p0.Flush(0, 1, ops); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, op := range ops[4:] {
		for i, w := range op.Dest {
			if want := uint64(i) * 7; w != want {
				t.Fatalf("get word %d = %d, want %d", i, w, want)
			}
		}
	}
}

// TestDecodeOpsRoundTrip pins encodeOps (the staging twin of the gather
// encoder, same production) against decodeOps.
func TestDecodeOpsRoundTrip(t *testing.T) {
	in := []transport.Op{
		{Kind: transport.KindPut, Off: 3, Data: []uint64{1, 2, 3}},
		{Kind: transport.KindGet, Off: 9, Dest: make([]uint64, 5)},
		{Kind: transport.KindAcc, Red: transport.RedSum, Off: 0, Data: []uint64{42}},
		{Kind: transport.KindGet, Off: 0, Dest: nil},
		{Kind: transport.KindPut, Off: 1, Data: nil},
	}
	var e wire.Enc
	e.I(0)
	e.I(1)
	encodeOps(&e, in)

	d := wire.NewDec(e.Bytes())
	d.I()
	d.I()
	s := &flushScratch{}
	out, err := decodeOps(d, s)
	if err != nil {
		t.Fatalf("decodeOps: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d ops, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || out[i].Off != in[i].Off || out[i].Red != in[i].Red {
			t.Fatalf("op %d header = %+v, want %+v", i, out[i], in[i])
		}
		if len(out[i].Data) != len(in[i].Data) || len(out[i].Dest) != len(in[i].Dest) {
			t.Fatalf("op %d sizes = %+v, want %+v", i, out[i], in[i])
		}
		for j := range in[i].Data {
			if out[i].Data[j] != in[i].Data[j] {
				t.Fatalf("op %d data[%d] = %d", i, j, out[i].Data[j])
			}
		}
	}
}

// TestDecodeOpsRejects pins the adversarial-payload policy: trailing
// bytes, truncations, oversold counts, and unknown kinds are errors, not
// panics and not silently tolerated.
func TestDecodeOpsRejects(t *testing.T) {
	valid := func() []byte {
		var e wire.Enc
		encodeOps(&e, []transport.Op{
			{Kind: transport.KindPut, Off: 0, Data: []uint64{1, 2}},
			{Kind: transport.KindGet, Off: 2, Dest: make([]uint64, 2)},
		})
		return e.Bytes()
	}

	decode := func(b []byte) error {
		_, err := decodeOps(wire.NewDec(b), &flushScratch{})
		return err
	}

	if err := decode(valid()); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := decode(append(valid(), 0x00)); err == nil ||
		!strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("trailing byte: err = %v, want trailing-bytes rejection", err)
	}
	full := valid()
	for cut := 0; cut < len(full); cut++ {
		if err := decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	var e wire.Enc
	e.I(1)
	e.B(transport.KindGet)
	e.I(0)
	e.U(1 << 31) // one get claiming 16 GiB of reply
	if err := decode(e.Bytes()); err == nil {
		t.Fatal("oversold get length accepted")
	}
	e = wire.Enc{}
	e.I(1)
	e.B(0x7F) // unknown kind
	if err := decode(e.Bytes()); err == nil || !strings.Contains(err.Error(), "unknown op kind") {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

// FuzzDecodeOps feeds arbitrary flush payloads through the exact decode
// the server runs. Property: never panic, and any batch that decodes
// cleanly has internally consistent ops.
func FuzzDecodeOps(f *testing.F) {
	seed := func(ops []transport.Op, tail ...byte) []byte {
		var e wire.Enc
		e.I(0)
		e.I(1)
		encodeOps(&e, ops)
		return append(e.Bytes(), tail...)
	}
	f.Add(seed(nil))
	f.Add(seed(benchOps(2, 2, 8)))
	f.Add(seed(benchOps(1, 0, 4), 0xAB))        // trailing garbage
	f.Add(seed(benchOps(0, 1, 4))[:5])          // truncated mid-op
	f.Add([]byte{0, 1, 0xFF, 0xFF, 0xFF, 0x1F}) // huge op count
	f.Add([]byte{0, 1, 1, transport.KindGet, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, b []byte) {
		d := wire.NewDec(b)
		d.I()
		d.I()
		s := &flushScratch{}
		ops, err := decodeOps(d, s)
		if err != nil {
			return
		}
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case transport.KindPut, transport.KindAcc:
				if op.Dest != nil || !transport.ValidRed(op.Red) {
					t.Fatalf("op %d inconsistent: %+v", i, op)
				}
			case transport.KindGet:
				if op.Data != nil {
					t.Fatalf("get op %d carries data: %+v", i, op)
				}
			default:
				t.Fatalf("op %d has invalid kind %d", i, op.Kind)
			}
		}
		if d.Rem() != 0 {
			t.Fatalf("decodeOps accepted %d trailing bytes", d.Rem())
		}
	})
}
