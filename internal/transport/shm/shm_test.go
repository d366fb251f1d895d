package shm

import (
	"bytes"
	"errors"
	"io"
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
