package shm

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Ring layout inside a region (one ring per direction, two per region):
//
//	offset   0  head     (atomic uint64, consumer cursor, free-running)
//	offset  64  tail     (atomic uint64, producer cursor, free-running)
//	offset  72  skipFrom (atomic uint64, producer: the cursor a restart left)
//	offset  80  skipTo   (atomic uint64, producer: the cursor it restarted at)
//	offset 128  closed   (atomic uint32; either side sets it)
//	offset 192  data     (ringBytes, power of two)
//
// head and tail sit on their own cache lines so the producer and the
// consumer never write the same line. Cursors count stream positions (they
// are never wrapped); fill = tail-head, and the byte at stream position p
// lives at data[p & (ringBytes-1)]. The producer writes payload bytes first
// and publishes them with an atomic tail store; the consumer's atomic tail
// load acquires them — the pair is the happens-before edge, in-process
// (where the race detector checks it) and cross-process alike.
//
// A producer that finds the ring empty (head == tail) with tail past the
// ring's first byte restarts there: it skips tail to the next multiple of
// ringBytes and writes from data[0], so a run of frames that never queue
// keeps only the first frame's pages in use instead of sweeping the whole
// ring. It records the jump (skipFrom = the old tail, skipTo = the new one)
// before the tail store that publishes the bytes behind it. Only the
// consumer stores head: once tail != head, a head equal to skipFrom moves to
// skipTo before the read. The producer keeps a copy of its last skip and
// counts a gap the consumer has not jumped yet as free space.
const (
	ringHdrBytes  = 192
	offHead       = 0
	offTail       = 64
	offSkipFrom   = 72
	offSkipTo     = 80
	offClosed     = 128
	minRingBytes  = 4096
	defaultSpin   = 64
	defaultPoll   = 200 * time.Microsecond
	defaultRingKB = 1024
)

// ring is one process's view of one SPSC byte ring. The cursors and data
// live in the (potentially shared) mapped region; the doorbells are
// process-local channels — a peer in another process misses the bell and
// the waiter falls back to its timed poll.
type ring struct {
	reg      *region // fences accesses against the region's unmap
	head     *atomic.Uint64
	tail     *atomic.Uint64
	skipFrom *atomic.Uint64
	skipTo   *atomic.Uint64
	closed   *atomic.Uint32
	data     []byte
	mask     uint64

	// lastFrom, lastTo is the producer's copy of the last skip it
	// published; only write touches it.
	lastFrom, lastTo uint64

	spin int
	poll time.Duration

	// bellData is rung by the producer after publishing bytes; bellSpace
	// by the consumer after freeing space. Buffered(1): a bell is a level,
	// not a count.
	bellData  chan struct{}
	bellSpace chan struct{}

	// Each side of an SPSC ring has exactly one waiter, so one parked
	// timer per role suffices.
	readTimer  *time.Timer
	writeTimer *time.Timer
}

// ringAt builds the process-local view of the ring at reg.mem[off:]. The
// memory is 8-byte aligned (mmap regions are page aligned; the heap
// fallback is size-class aligned) and off a multiple of 64.
func ringAt(reg *region, off, size, spin int, poll time.Duration) *ring {
	if size&(size-1) != 0 {
		panic(fmt.Sprintf("shm: ring size %d not a power of two", size))
	}
	mem := reg.mem
	return &ring{
		reg:       reg,
		head:      (*atomic.Uint64)(unsafe.Pointer(&mem[off+offHead])),
		tail:      (*atomic.Uint64)(unsafe.Pointer(&mem[off+offTail])),
		skipFrom:  (*atomic.Uint64)(unsafe.Pointer(&mem[off+offSkipFrom])),
		skipTo:    (*atomic.Uint64)(unsafe.Pointer(&mem[off+offSkipTo])),
		closed:    (*atomic.Uint32)(unsafe.Pointer(&mem[off+offClosed])),
		data:      mem[off+ringHdrBytes : off+ringHdrBytes+size],
		mask:      uint64(size - 1),
		spin:      spin,
		poll:      poll,
		bellData:  make(chan struct{}, 1),
		bellSpace: make(chan struct{}, 1),
		readTimer: time.NewTimer(time.Hour), writeTimer: time.NewTimer(time.Hour),
	}
}

func ringBell(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// park blocks until the bell rings or the poll interval elapses; the
// caller rechecks its condition either way.
func park(bell chan struct{}, timer *time.Timer, poll time.Duration) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(poll)
	select {
	case <-bell:
	case <-timer.C:
	}
}

// markClosed sets the shared closed flag and wakes both sides.
func (r *ring) markClosed() {
	if r.reg.acquire() {
		r.closed.Store(1)
		r.reg.release()
	}
	ringBell(r.bellData)
	ringBell(r.bellSpace)
}

// read copies up to len(p) available bytes, blocking until at least one
// byte, the ring closes (io.EOF once drained), or the deadline passes.
func (r *ring) read(p []byte, deadline time.Time) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	spun := 0
	for {
		if !r.reg.acquire() {
			return 0, io.EOF // fabric torn down under us
		}
		head := r.head.Load()
		tail := r.tail.Load() // acquire: bytes below tail, and their skip, are visible
		if tail != head {
			if r.skipFrom.Load() == head {
				head = r.skipTo.Load() // the producer restarted at data[0]
			}
			n := min(uint64(len(p)), tail-head)
			r.copyOut(p[:n], head)
			r.head.Store(head + n)
			r.reg.release()
			ringBell(r.bellSpace)
			return int(n), nil
		}
		closed := r.closed.Load() != 0
		r.reg.release()
		if closed {
			return 0, io.EOF
		}
		if spun < r.spin {
			spun++
			runtime.Gosched()
			continue
		}
		// The deadline is read once per park, not per spin: a deadline
		// that passes during the spin ends the read at the park after it.
		poll := r.poll
		if !deadline.IsZero() {
			until := time.Until(deadline)
			if until <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			poll = min(poll, until)
		}
		park(r.bellData, r.readTimer, poll)
	}
}

// write publishes all of p, blocking as the consumer frees space.
func (r *ring) write(p []byte) (int, error) {
	written := 0
	spun := 0
	for len(p) > 0 {
		if !r.reg.acquire() {
			return written, io.ErrClosedPipe
		}
		if r.closed.Load() != 0 {
			r.reg.release()
			return written, io.ErrClosedPipe
		}
		head := r.head.Load()
		tail := r.tail.Load() // own cursor: only this side stores it
		if head == r.lastFrom {
			head = r.lastTo // the consumer has not jumped the gap yet
		}
		if head == tail && tail&r.mask != 0 {
			r.lastFrom, r.lastTo = tail, (tail+r.mask)&^r.mask
			r.skipFrom.Store(r.lastFrom)
			r.skipTo.Store(r.lastTo) // published by the tail store below
			head, tail = r.lastTo, r.lastTo
		}
		if space := uint64(len(r.data)) - (tail - head); space > 0 {
			n := uint64(len(p))
			if n > space {
				n = space
			}
			r.copyIn(p[:n], tail)
			r.tail.Store(tail + n) // release: publish the bytes
			r.reg.release()
			ringBell(r.bellData)
			p = p[n:]
			written += int(n)
			spun = 0
			continue
		}
		r.reg.release()
		if spun < r.spin {
			spun++
			runtime.Gosched()
			continue
		}
		park(r.bellSpace, r.writeTimer, r.poll)
	}
	return written, nil
}

// copyOut copies n bytes of the stream starting at cursor pos into p,
// splitting at the ring's wrap point.
func (r *ring) copyOut(p []byte, pos uint64) {
	start := pos & r.mask
	first := copy(p, r.data[start:])
	if first < len(p) {
		copy(p[first:], r.data)
	}
}

func (r *ring) copyIn(p []byte, pos uint64) {
	start := pos & r.mask
	first := copy(r.data[start:], p)
	if first < len(p) {
		copy(r.data, p[first:])
	}
}

// ---- net.Conn over a ring pair ----------------------------------------------

// conn is one endpoint's duplex view: it writes into snd and reads from
// rcv (the peer endpoint holds them swapped).
type conn struct {
	snd, rcv *ring
	local    shmAddr
	remote   shmAddr

	mu       sync.Mutex
	deadline time.Time // read deadline; zero = none
	closed   bool
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	deadline := c.deadline
	c.mu.Unlock()
	return c.rcv.read(p, deadline)
}

func (c *conn) Write(p []byte) (int, error) {
	return c.snd.write(p)
}

// Close marks both directions closed: the peer's reader drains and hits
// EOF, our own blocked reader/writer wakes immediately.
func (c *conn) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if already {
		return nil
	}
	c.snd.markClosed()
	c.rcv.markClosed()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline is accepted and ignored: a full ring with a live peer
// drains in microseconds, and a dead peer is caught by the read deadline
// (the wire layer's failure detector only arms read deadlines).
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

// shmAddr names a ring endpoint.
type shmAddr struct{ s string }

func (a shmAddr) Network() string { return "shm" }
func (a shmAddr) String() string  { return a.s }
