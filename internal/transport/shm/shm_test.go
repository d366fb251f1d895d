package shm

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func newTestFabric(t *testing.T, n, ringBytes int) *Fabric {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { leakcheck.Goroutines(t, base) }) // runs after f.Close
	f, err := NewFabric(n, FabricConfig{RingBytes: ringBytes})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// dialPair returns both endpoints of one rank-0 -> rank-1 connection.
func dialPair(t *testing.T, f *Fabric) (dialer, acceptor net.Conn) {
	t.Helper()
	d, err := f.dial(0, 1)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	a, err := f.listener(1).Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return d, a
}

func TestRingTransferAndWrap(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	d, a := dialPair(t, f)

	// Stream several ring-capacities of patterned data one way while the
	// other side drains: the cursors wrap many times and every byte must
	// land in order.
	const total = 10 * minRingBytes
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 31)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := d.Write(src)
		errc <- err
	}()
	got := make([]byte, 0, total)
	buf := make([]byte, 1500) // deliberately not a divisor of the ring size
	for len(got) < total {
		n, err := a.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("bytes corrupted across the ring")
	}
}

func TestRingDuplex(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	d, a := dialPair(t, f)
	go func() {
		buf := make([]byte, 16)
		n, _ := a.Read(buf)
		a.Write(bytes.ToUpper(buf[:n]))
	}()
	if _, err := d.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := d.Read(buf)
	if err != nil || string(buf[:n]) != "PING" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
}

func TestReadDeadline(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	d, _ := dialPair(t, f)
	d.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := d.Read(make([]byte, 8))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline ignored for seconds")
	}
}

// TestReadDeadlineDuringSpin: a deadline that passes while the reader is
// still spinning ends the read at the park after the spin. The poll
// interval is longer than the test, so a reader that parked without
// reading the deadline would not return in time.
func TestReadDeadlineDuringSpin(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() { leakcheck.Goroutines(t, base) })
	f, err := NewFabric(2, FabricConfig{RingBytes: minRingBytes, SpinYield: 100000, PollInterval: time.Minute})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	d, _ := dialPair(t, f)
	d.SetReadDeadline(time.Now().Add(time.Millisecond))
	start := time.Now()
	_, err = d.Read(make([]byte, 8))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("the read returned %v after a 1 ms deadline", el)
	}
}

func TestCloseUnblocksPeerWithEOF(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	d, a := dialPair(t, f)
	if _, err := d.Write([]byte("tail")); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Close()
	// The peer drains buffered bytes first, then sees EOF.
	buf := make([]byte, 16)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain = %q, %v", buf[:n], err)
	}
	if _, err := a.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed ring succeeded")
	}
}

// TestFabricCloseUnderBlockedReader is the regression for the unmap
// race: tearing the fabric down while a reader is parked inside
// ring.read must fence the reader out cleanly (EOF), not fault on
// unmapped pages.
func TestFabricCloseUnderBlockedReader(t *testing.T) {
	f, err := NewFabric(2, FabricConfig{RingBytes: minRingBytes})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	d, err := f.dial(0, 1)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := d.Read(make([]byte, 8))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader park
	if err := f.Close(); err != nil {
		t.Fatalf("fabric close: %v", err)
	}
	select {
	case err := <-readErr:
		if err != io.EOF {
			t.Fatalf("reader err = %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after fabric close")
	}
}

func TestListenerCloseFailsDial(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	f.listener(1).Close()
	if _, err := f.dial(0, 1); err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(0, FabricConfig{}); err == nil {
		t.Fatal("world of 0 ranks accepted")
	}
	if _, err := NewFabric(2, FabricConfig{RingBytes: 3000}); err == nil {
		t.Fatal("non-power-of-two ring accepted")
	}
	if _, err := NewFabric(2, FabricConfig{RingBytes: 2048}); err == nil {
		t.Fatal("undersized ring accepted")
	}
	f := newTestFabric(t, 2, 0) // defaults
	if f.cfg.RingBytes != defaultRingKB<<10 {
		t.Fatalf("default ring = %d", f.cfg.RingBytes)
	}
	if _, err := f.dial(0, 7); err == nil {
		t.Fatal("dial outside the world accepted")
	}
}

// TestRegionFileBacked pins that rings really live in the mapped file
// (the cross-process story): bytes written through one endpoint are
// visible in the region file on mmap-capable platforms.
func TestRegionFileBacked(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	d, _ := dialPair(t, f)
	f.mu.Lock()
	reg := f.regions[0]
	f.mu.Unlock()
	if reg.heap {
		t.Skip("no mmap on this platform: rings are heap-backed")
	}
	if _, err := d.Write([]byte{0x5A}); err != nil {
		t.Fatalf("write: %v", err)
	}
	blob, err := os.ReadFile(reg.path)
	if err != nil {
		t.Fatalf("read region file: %v", err)
	}
	if blob[ringHdrBytes] != 0x5A {
		t.Fatalf("region file byte = %#x, want 0x5A", blob[ringHdrBytes])
	}
}

// TestRingRestartProperty streams seeded writes of 1 B to three ring
// capacities through one ring pair while the consumer reads random sizes
// and lags at random; the producer closes its end after its last write,
// with bytes still buffered. The consumer drains the byte-identical stream,
// then sees EOF, and each run both restarts at
// data[0] (a read that jumped head) and wraps (a read split at the ring's
// end). Only the consumer stores head, so its loads around a Read are
// exact.
func TestRingRestartProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f := newTestFabric(t, 2, minRingBytes)
		d, a := dialPair(t, f)
		r := a.(*conn).rcv
		rng := rand.New(rand.NewSource(seed))

		// The writes: mostly under a frame's worth, some streaming through.
		var sizes []int
		for total := 0; total < 64*minRingBytes; {
			n := 1 + rng.Intn(minRingBytes/4)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(3*minRingBytes)
			}
			sizes = append(sizes, n)
			total += n
		}
		src := make([]byte, 0, 70*minRingBytes)
		for _, n := range sizes {
			for i := 0; i < n; i++ {
				src = append(src, byte(rng.Uint32()))
			}
		}
		lag := rand.New(rand.NewSource(seed + 100))
		errc := make(chan error, 1)
		go func() {
			p := src
			for _, n := range sizes {
				if _, err := d.Write(p[:n]); err != nil {
					errc <- err
					return
				}
				p = p[n:]
			}
			errc <- d.Close()
		}()

		var got []byte
		restarts, wraps := 0, 0
		buf := make([]byte, 2*minRingBytes)
		for {
			for i := lag.Intn(3) * lag.Intn(40); i > 0; i-- {
				runtime.Gosched()
			}
			before := r.head.Load()
			n, err := a.Read(buf[:1+lag.Intn(len(buf))])
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: read after %d bytes: %v", seed, len(got), err)
			}
			got = append(got, buf[:n]...)
			start := r.head.Load() - uint64(n)
			if start != before {
				restarts++
				if start&r.mask != 0 || start <= before {
					t.Fatalf("seed %d: head jumped %d -> %d, not to a ring start", seed, before, start)
				}
			}
			if start&r.mask+uint64(n) > uint64(len(r.data)) {
				wraps++
			}
		}
		if err := <-errc; err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("seed %d: %d bytes received, %d sent, or corrupted", seed, len(got), len(src))
		}
		if restarts == 0 || wraps == 0 {
			t.Fatalf("seed %d: %d restarts and %d wrapped reads, want both", seed, restarts, wraps)
		}
		if _, err := a.Read(buf); err != io.EOF {
			t.Fatalf("seed %d: read after the drain: %v, want EOF", seed, err)
		}
	}
}

// TestReadDeadlineAcrossSkip: a reader whose ring is empty past data[0]
// times out on its deadline, is woken by a write that restarts the ring,
// reads exactly that write from data[0], and then times out again: the
// gap the restart skipped is never read.
func TestReadDeadlineAcrossSkip(t *testing.T) {
	f := newTestFabric(t, 2, minRingBytes)
	d, a := dialPair(t, f)
	r := a.(*conn).rcv
	buf := make([]byte, 256)
	if _, err := d.Write(bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if n, err := io.ReadFull(a, buf[:100]); err != nil {
		t.Fatalf("read %d: %v", n, err)
	}
	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := a.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read of an empty ring: %v, want deadline exceeded", err)
	}

	a.SetReadDeadline(time.Now().Add(5 * time.Second))
	type result struct {
		b   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Read(buf)
		done <- result{buf[:n], err}
	}()
	time.Sleep(5 * time.Millisecond) // let the reader park
	want := []byte("after the skip")
	if _, err := d.Write(want); err != nil {
		t.Fatalf("write: %v", err)
	}
	res := <-done
	if res.err != nil || !bytes.Equal(res.b, want) {
		t.Fatalf("read across the skip = %q, %v", res.b, res.err)
	}
	if h := r.head.Load(); h != uint64(minRingBytes+len(want)) || !bytes.Equal(r.data[:len(want)], want) {
		t.Fatalf("head %d: the write did not restart at data[0]", h)
	}

	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := a.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after the skip = %d bytes, %v; want deadline exceeded", n, err)
	}
}

// TestRingResidency: request/reply traffic that never queues a second
// frame keeps each ring's writes inside the first frame's span. The ring
// data is filled with a sentinel after the dial; after 1000 32 KiB
// exchanges every byte past 32 KiB of both 1 MiB rings still holds it, so
// those pages were never written.
func TestRingResidency(t *testing.T) {
	f := newTestFabric(t, 2, 0)
	d, a := dialPair(t, f)
	const frame, sentinel = 32 << 10, 0xA5
	rings := []*ring{d.(*conn).snd, d.(*conn).rcv}
	for _, r := range rings {
		for i := range r.data {
			r.data[i] = sentinel
		}
	}
	errc := make(chan error, 1)
	go func() {
		req := make([]byte, frame)
		for {
			if _, err := io.ReadFull(a, req); err != nil {
				errc <- nil // the dialer closed
				return
			}
			req[0]++
			if _, err := a.Write(req); err != nil {
				errc <- err
				return
			}
		}
	}()
	req, rep := make([]byte, frame), make([]byte, frame)
	for i := 0; i < 1000; i++ {
		req[0] = byte(i)
		if _, err := d.Write(req); err != nil {
			t.Fatalf("exchange %d: write: %v", i, err)
		}
		if _, err := io.ReadFull(d, rep); err != nil || rep[0] != byte(i+1) {
			t.Fatalf("exchange %d: reply %d, %v", i, rep[0], err)
		}
	}
	d.Close()
	if err := <-errc; err != nil {
		t.Fatalf("replier: %v", err)
	}
	for k, r := range rings {
		for i, c := range r.data[frame:] {
			if c != sentinel {
				t.Fatalf("ring %d: byte %d past the first frame was written", k, frame+i)
			}
		}
	}
}
