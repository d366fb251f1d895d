package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// mixedPayload writes one of every primitive at awkward offsets so the
// word-vector alignment padding is actually exercised.
func mixedPayload(e *Enc) {
	e.B(0x7)
	e.U(300)
	e.I(42)
	e.Str("hello")
	e.Words([]uint64{1, 2, 3})
	e.F(3.5)
	e.W64(0xdeadbeef)
	e.B(9) // odd offset before the next vector
	e.Words([]uint64{^uint64(0)})
	e.Words(nil)
}

func decodeMixed(t *testing.T, d *Dec) {
	t.Helper()
	if got := d.B(); got != 0x7 {
		t.Fatalf("B = %#x", got)
	}
	if got := d.U(); got != 300 {
		t.Fatalf("U = %d", got)
	}
	if got := d.I(); got != 42 {
		t.Fatalf("I = %d", got)
	}
	if got := d.Str(); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Words(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Words = %v", got)
	}
	if got := d.F(); got != 3.5 {
		t.Fatalf("F = %v", got)
	}
	if got := d.W64(); got != 0xdeadbeef {
		t.Fatalf("W64 = %#x", got)
	}
	if got := d.B(); got != 9 {
		t.Fatalf("B = %d", got)
	}
	if got := d.Words(); len(got) != 1 || got[0] != ^uint64(0) {
		t.Fatalf("Words = %v", got)
	}
	if got := d.Words(); len(got) != 0 {
		t.Fatalf("empty Words = %v", got)
	}
	if d.Failed() {
		t.Fatal("decoder poisoned on valid payload")
	}
	if d.Rem() != 0 {
		t.Fatalf("Rem = %d after full decode", d.Rem())
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	mixedPayload(&e)
	decodeMixed(t, NewDec(e.Bytes()))
}

// TestVecMatchesEnc pins that the gather builder produces the exact same
// bytes as the staging encoder, both flattened (appendTo, the small-frame
// path) and chunked (buffers, the vectored path).
func TestVecMatchesEnc(t *testing.T) {
	var e Enc
	mixedPayload(&e)
	want := e.Bytes()

	v := NewVec()
	v.B(0x7)
	v.U(300)
	v.I(42)
	v.Str("hello")
	v.Words([]uint64{1, 2, 3})
	v.F(3.5)
	v.W64(0xdeadbeef)
	v.B(9)
	v.Words([]uint64{^uint64(0)})
	v.Words(nil)

	if v.Len() != len(want) {
		t.Fatalf("Vec.Len = %d, want %d", v.Len(), len(want))
	}
	flat := v.appendTo(nil)
	if !bytes.Equal(flat, want) {
		t.Fatalf("appendTo mismatch:\n got %x\nwant %x", flat, want)
	}
	hdr := []byte{0xAA}
	var chunked []byte
	for i, ch := range v.buffers(nil, hdr) {
		if i == 0 {
			if &ch[0] != &hdr[0] {
				t.Fatal("buffers: first chunk is not the frame header")
			}
			continue
		}
		chunked = append(chunked, ch...)
	}
	if !bytes.Equal(chunked, want) {
		t.Fatalf("buffers mismatch:\n got %x\nwant %x", chunked, want)
	}
	v.Release()
}

// TestVecWordsParts: a word vector gathered from parts (WordsStart, then
// WordsPart per part, empty ones included) is the production Words makes
// of the parts' concatenation, flattened and as a chunk list.
func TestVecWordsParts(t *testing.T) {
	parts := [][]uint64{{1, 2, 3}, nil, {4}, {5, 6, 7, 8, 9}}
	var all []uint64
	for _, p := range parts {
		all = append(all, p...)
	}
	var e Enc
	e.B(1)
	e.Words(all)
	e.B(2)
	want := e.Bytes()
	v := NewVec()
	defer v.Release()
	v.B(1)
	v.WordsStart(len(all))
	for _, p := range parts {
		v.WordsPart(p)
	}
	v.B(2)
	if got := v.appendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendTo:\n got %x\nwant %x", got, want)
	}
	var chunked []byte
	for _, ch := range v.buffers(nil, nil)[1:] {
		chunked = append(chunked, ch...)
	}
	if !bytes.Equal(chunked, want) {
		t.Fatalf("buffers:\n got %x\nwant %x", chunked, want)
	}
}

// TestWordsAlignment pins the wire rule: a word run starts at an 8-byte
// multiple of the payload offset, with zero padding in between.
func TestWordsAlignment(t *testing.T) {
	for pre := 0; pre < 9; pre++ {
		var e Enc
		for i := 0; i < pre; i++ {
			e.B(0xFF)
		}
		e.Words([]uint64{0x0101010101010101})
		b := e.Bytes()
		run := len(b) - 8
		if run&7 != 0 {
			t.Fatalf("prefix %d: word run at offset %d, not 8-aligned", pre, run)
		}
		for i := pre + 1; i < run; i++ { // count byte, then padding
			if b[i] != 0 {
				t.Fatalf("prefix %d: padding byte %d = %#x, want 0", pre, i, b[i])
			}
		}
		d := NewDec(b)
		for i := 0; i < pre; i++ {
			d.B()
		}
		if got := d.Words(); len(got) != 1 || got[0] != 0x0101010101010101 {
			t.Fatalf("prefix %d: decode = %v, failed=%v", pre, got, d.Failed())
		}
	}
}

// TestWordsView pins the zero-copy receive contract: an aligned payload
// yields an alias of the frame bytes; an undersized scratch poisons.
func TestWordsView(t *testing.T) {
	var e Enc
	e.B(1)
	e.Words([]uint64{10, 20, 30})
	payload := e.Bytes()

	d := NewDec(payload)
	d.B()
	scratch := make([]uint64, 8)
	view := d.WordsView(scratch)
	if len(view) != 3 || view[0] != 10 || view[2] != 30 {
		t.Fatalf("view = %v", view)
	}
	if hostLittle && uintptr(unsafe.Pointer(&payload[0]))&7 == 0 {
		// Mutating the payload must show through the view: it aliases.
		payload[len(payload)-8] = 0x63
		if view[2] != 0x63 {
			t.Fatalf("aligned WordsView did not alias the payload: %v", view)
		}
	}

	d = NewDec(payload)
	d.B()
	if got := d.WordsView(make([]uint64, 2)); got != nil || !d.Failed() {
		t.Fatalf("undersized scratch: got %v, failed=%v, want poison", got, d.Failed())
	}
}

// TestWordsAlias pins the keep-a-view decode of a payload the caller owns:
// an aligned run comes back as a view of the payload, an unaligned one as a
// copy of it, and a run the payload is too short for poisons the decoder.
func TestWordsAlias(t *testing.T) {
	if !hostLittle {
		t.Skip("WordsAlias views little-endian payloads only")
	}
	var e Enc
	e.B(1)
	e.Words([]uint64{10, 20, 30})
	payload := e.Bytes()
	decode := func(p []byte) ([]uint64, bool) {
		d := NewDec(p)
		d.B()
		w := d.WordsAlias()
		return w, d.Failed()
	}

	w, failed := decode(payload)
	if failed || len(w) != 3 || cap(w) != 3 || w[0] != 10 || w[2] != 30 {
		t.Fatalf("aligned: %v (cap %d), failed=%v", w, cap(w), failed)
	}
	w[1] = 21
	if got := binary.LittleEndian.Uint64(payload[16:]); got != 21 {
		t.Fatalf("aligned: a write through the slice left the payload at %d: it is a copy", got)
	}

	// The same payload one byte into a buffer: the run is misaligned in
	// memory, so it is decoded into a slice of its own.
	odd := append([]byte{0}, payload...)[1:]
	w, failed = decode(odd)
	if failed || len(w) != 3 || w[0] != 10 || w[1] != 21 || w[2] != 30 {
		t.Fatalf("unaligned: %v, failed=%v", w, failed)
	}
	w[1] = 22
	if got := binary.LittleEndian.Uint64(odd[16:]); got != 21 {
		t.Fatalf("unaligned: a write through the slice reached the payload (%d): it is a view", got)
	}

	if w, failed = decode(payload[:len(payload)-1]); w != nil || !failed {
		t.Fatalf("short: got %v, failed=%v, want poison", w, failed)
	}
}

func TestWordsIntoPrefixAndSkip(t *testing.T) {
	var e Enc
	e.Words([]uint64{5, 6})
	e.Words([]uint64{7})
	b := e.Bytes()

	d := NewDec(b)
	if n := d.SkipWords(); n != 2 || d.Failed() {
		t.Fatalf("SkipWords = %d, failed=%v", n, d.Failed())
	}
	buf := make([]uint64, 4)
	if n := d.WordsIntoPrefix(buf); n != 1 || buf[0] != 7 {
		t.Fatalf("WordsIntoPrefix = %d, buf=%v", n, buf)
	}

	d = NewDec(b)
	dst := make([]uint64, 2)
	if !d.WordsInto(dst) || dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("WordsInto = %v, failed=%v", dst, d.Failed())
	}
	if d.WordsInto(make([]uint64, 3)) { // length mismatch must poison
		t.Fatal("WordsInto accepted a length mismatch")
	}
}

// TestDecIntBounds is the regression for the unchecked int(uvarint)
// conversion: values at or above 2^32 must poison the decoder rather than
// flow into handlers (where they would wrap negative on 32-bit GOARCH).
func TestDecIntBounds(t *testing.T) {
	var e Enc
	e.U(1 << 32)
	d := NewDec(e.Bytes())
	if got := d.I(); got != 0 || !d.Failed() {
		t.Fatalf("I on 2^32 = %d, failed=%v, want poison", got, d.Failed())
	}

	// Boundary: 2^32-1 passes the protocol cap (on 64-bit hosts).
	if v, ok := intFromWire(1<<32-1, maxWireInt); !ok || v != 1<<32-1 {
		t.Fatalf("intFromWire(2^32-1) = %d, %v", v, ok)
	}
	// Simulated 32-bit platform: MaxInt32 is the platform cap; one past
	// it is exactly the value the old cast wrapped negative.
	if _, ok := intFromWire(uint64(math.MaxInt32)+1, math.MaxInt32); ok {
		t.Fatal("intFromWire accepted a value above the platform cap")
	}
	if v, ok := intFromWire(math.MaxInt32, math.MaxInt32); !ok || v != math.MaxInt32 {
		t.Fatalf("intFromWire(MaxInt32) = %d, %v", v, ok)
	}
}

// TestEncINegativePanics pins the audit outcome: negative ints have no
// wire representation; encoding one is a caller bug, caught loudly.
func TestEncINegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Enc.I(-1) did not panic")
		}
	}()
	var e Enc
	e.I(-1)
}

// TestDecTruncationPoisons walks every reader over short payloads.
func TestDecTruncationPoisons(t *testing.T) {
	var e Enc
	e.Words([]uint64{1, 2, 3, 4})
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		d.Words()
		if !d.Failed() {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
	d := NewDec([]byte{0x05}) // claims 5 words, carries none
	if got := d.Words(); got != nil || !d.Failed() {
		t.Fatalf("oversized count: got %v, failed=%v", got, d.Failed())
	}
	d = NewDec([]byte{0x10}) // string length past the end
	if got := d.Str(); got != "" || !d.Failed() {
		t.Fatalf("oversized string: got %q, failed=%v", got, d.Failed())
	}
}

// TestConnCallVec round-trips small and large frames through the gather
// write path and the pooled read path over an in-memory pipe.
func TestConnCallVec(t *testing.T) {
	cn, sn := net.Pipe()
	const typeEcho = 0x21
	server := New(sn, Config{VecHandler: func(ty byte, payload []byte, _ Reply) (byte, *Vec, error) {
		d := NewDec(payload)
		w := d.Words()
		if d.Failed() {
			t.Error("server: malformed echo payload")
		}
		v := NewVec()
		v.Words(w)
		return ty, v, nil
	}})
	defer server.Close()
	client := New(cn, Config{})
	defer client.Close()

	// Small (flattened) and large (vectored, beyond smallFrame) frames.
	for _, n := range []int{1, 16, smallFrame / 4, smallFrame} {
		w := make([]uint64, n)
		for i := range w {
			w[i] = uint64(i) * 3
		}
		v := NewVec()
		v.Words(w)
		reply, err := client.CallVec(typeEcho, v)
		if err != nil {
			t.Fatalf("n=%d: CallVec: %v", n, err)
		}
		d := NewDec(reply)
		got := d.Words()
		if d.Failed() || len(got) != n {
			t.Fatalf("n=%d: bad echo reply (failed=%v len=%d)", n, d.Failed(), len(got))
		}
		for i := range got {
			if got[i] != uint64(i)*3 {
				t.Fatalf("n=%d: word %d = %d", n, i, got[i])
			}
		}
		Recycle(reply)
	}
}

// TestConnVecHandlerError maps a handler error onto a RemoteFail at the
// caller.
func TestConnVecHandlerError(t *testing.T) {
	cn, sn := net.Pipe()
	server := New(sn, Config{VecHandler: func(byte, []byte, Reply) (byte, *Vec, error) {
		return 0, nil, RemoteFail{Code: CodeGeneric, Msg: "nope"}
	}})
	defer server.Close()
	client := New(cn, Config{})
	defer client.Close()

	_, err := client.Call(0x21, []byte{1})
	rf, ok := err.(RemoteFail)
	if !ok || rf.Msg != "nope" {
		t.Fatalf("err = %v, want RemoteFail{nope}", err)
	}
}

// TestConnDownFreesVec pins that a CallVec against a dead conn still
// releases the Vec (its OnRelease must run so pooled scratch returns).
func TestConnDownFreesVec(t *testing.T) {
	cn, sn := net.Pipe()
	client := New(cn, Config{})
	client.Close()
	sn.Close()

	released := make(chan struct{})
	v := NewVec()
	v.W64(1)
	v.OnRelease(func() { close(released) })
	if _, err := client.CallVec(0x21, v); err == nil {
		t.Fatal("CallVec on a closed conn succeeded")
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Vec not released after failed CallVec")
	}
}

// TestVecReplyReleasedOnce: a VecHandler reply is released — its OnRelease
// run — exactly once whatever becomes of it: written, dropped for the error
// reply the handler also returned, dropped because the request was a
// notification, or failed on a connection that died under the handler. The
// fabric's base and parity fetch replies hold a lock until then.
func TestVecReplyReleasedOnce(t *testing.T) {
	var released atomic.Int32
	unblock := make(chan struct{})
	serving := make(chan struct{}, 1)
	handler := func(ty byte, _ []byte, _ Reply) (byte, *Vec, error) {
		v := NewVec()
		v.W64(7)
		v.Words(make([]uint64, smallFrame)) // gathered: above the flatten threshold
		v.OnRelease(func() { released.Add(1) })
		switch ty {
		case 0x22: // the error path
			return ty, v, RemoteFail{Code: CodeGeneric, Msg: "nope"}
		case 0x23: // the dead connection path
			serving <- struct{}{}
			<-unblock
		}
		return ty, v, nil
	}
	awaitReleased := func(what string, want int32) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); released.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the reply was not released", what)
			}
		}
		time.Sleep(10 * time.Millisecond) // room for a second release to show
		if got := released.Load(); got != want {
			t.Fatalf("%s: %d releases in all, want %d", what, got, want)
		}
	}
	cn, sn := net.Pipe()
	server := New(sn, Config{VecHandler: handler})
	client := New(cn, Config{})
	defer client.Close()

	if reply, err := client.Call(0x21, nil); err != nil || len(reply) != 16+8*smallFrame {
		t.Fatalf("written: %d bytes, %v", len(reply), err)
	}
	awaitReleased("written", 1)
	if _, err := client.Call(0x22, nil); err == nil {
		t.Fatal("error path: the call succeeded")
	}
	awaitReleased("error reply", 2)
	if err := client.Notify(0x21, nil); err != nil {
		t.Fatal(err)
	}
	awaitReleased("notification", 3)
	go client.Call(0x23, nil)
	<-serving
	server.Close()
	close(unblock)
	awaitReleased("dead connection", 4)
}

// TestNearMissDetection pins the lease near-miss accounting: frames that
// arrive after ReadTimeout-Heartbeat of silence count as near misses
// (without taking the connection down), punctual frames do not.
func TestNearMissDetection(t *testing.T) {
	cn, sn := net.Pipe()
	var gaps []time.Duration
	gapc := make(chan time.Duration, 16)
	receiver := New(sn, Config{
		Heartbeat:   150 * time.Millisecond,
		ReadTimeout: 600 * time.Millisecond, // near-miss threshold: 450ms
		OnDown:      func(err error) { t.Logf("receiver down: %v", err) },
		OnNearMiss:  func(gap time.Duration) { gapc <- gap },
	})
	defer receiver.Close()
	sender := New(cn, Config{}) // no auto-heartbeat: the test times every frame
	defer sender.Close()

	// Punctual traffic: well inside the window, no near misses.
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := sender.Notify(TypeHeartbeat, nil); err != nil {
			t.Fatalf("punctual notify %d: %v", i, err)
		}
	}
	if n := receiver.NearMisses(); n != 0 {
		t.Fatalf("punctual frames produced %d near misses", n)
	}

	// Tardy traffic: inside the last slice of the window, but inside it —
	// the connection must survive with the near misses counted.
	for i := 0; i < 2; i++ {
		time.Sleep(500 * time.Millisecond)
		if err := sender.Notify(TypeHeartbeat, nil); err != nil {
			t.Fatalf("tardy notify %d: %v (lease expired?)", i, err)
		}
	}
	deadline := time.After(2 * time.Second)
	for len(gaps) < 2 {
		select {
		case g := <-gapc:
			gaps = append(gaps, g)
		case <-deadline:
			t.Fatalf("saw %d near misses, want 2 (counter=%d)", len(gaps), receiver.NearMisses())
		}
	}
	for _, g := range gaps {
		if g < 450*time.Millisecond {
			t.Fatalf("near-miss gap %v below threshold", g)
		}
	}
	if n := receiver.NearMisses(); n < 2 {
		t.Fatalf("NearMisses = %d, want >= 2", n)
	}
	// The tardy frames arrived before lease expiry: still up.
	if err := sender.Notify(TypeHeartbeat, nil); err != nil {
		t.Fatalf("connection died despite frames inside the lease: %v", err)
	}
}
