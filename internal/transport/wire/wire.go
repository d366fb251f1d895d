// Package wire is the framing layer of the tcp transport and the fabric
// runtime: length-prefixed binary frames over a net.Conn, matched
// request/response calls, dispatch of incoming requests (on the reader or
// a handler goroutine, answered at once or later), and heartbeat-based
// liveness.
//
// Frame layout:
//
//	uint32  length (big endian, of everything after itself)
//	uint8   type   (high bit set = reply; 0xFF = error reply; 0x01 = heartbeat)
//	uint32  id     (big endian; matches replies to calls, 0 = notification)
//	payload
//
// Payloads are encoded with Enc/Dec: uvarints for counts and offsets,
// fixed little-endian 64-bit for window words, IEEE bits for the virtual-
// time floats of the lock protocol. Word vectors (Words and friends) are
// 8-byte aligned relative to the payload start: after the uvarint count,
// zero padding advances the stream to the next multiple of 8, so a
// receiver that places the payload on an aligned boundary can hand out
// zero-copy []uint64 views of put payloads (WordsView) instead of
// decoding word by word. docs/WIRE.md is the normative spec.
//
// # Zero-copy paths
//
// The flush hot path avoids staging copies in both directions:
//
//   - Send: a Vec assembles a frame from encoded header bytes interleaved
//     with externally owned word slices; writeFrameVec writes it with one
//     vectored write (net.Buffers/writev on TCP), so put payloads travel
//     from the caller's buffers to the socket without an intermediate
//     copy. Small frames flatten into a pooled staging buffer instead —
//     one syscall, no per-frame allocation. The tcp peer's flush, the
//     fabric's batch (from its per-target put stage) and parity fold, and
//     the fabric's recovery frames (base and parity replies and the join
//     reply) gather this way.
//   - Receive: the reader takes whatever the socket holds, up to a small
//     read-ahead buffer, in one read — a small frame's header and payload,
//     and the frames queued behind it — and copies each payload into a
//     frame body from a pool; a payload larger than the buffer is read
//     straight into its body. Request bodies are handed to the handler and
//     recycled when it returns — the handler must not retain the payload.
//     Word vectors can be viewed in place via Dec.WordsView. A Call reply
//     belongs to the caller, which may keep views of its word vectors
//     (Dec.WordsAlias) instead of copies: the fabric's recovery receives
//     each window once.
//   - Pool: frame bodies and staging buffers are pooled by power-of-two
//     size class, so a recycled body serves any frame of its class; bodies
//     above 1 MiB (base, parity and window fetches) are allocated to size
//     and never pooled.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Reserved frame types. User protocols must use types >= 0x10 with the
// high bit clear.
const (
	TypeHeartbeat byte = 0x01
	typeErr       byte = 0xFF
	replyBit      byte = 0x80
)

// MaxFrame bounds a frame's encoded size; a peer announcing more is
// corrupt (or hostile) and the connection is dropped.
const MaxFrame = 64 << 20

// hostLittle reports whether this machine stores words little-endian —
// i.e. whether a []uint64 viewed as bytes IS the wire representation of
// its words. On the (rare) big-endian hosts every bulk word path falls
// back to per-word conversion.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordBytes views a word slice as its little-endian wire bytes without
// copying. Only valid when hostLittle; callers must check.
func wordBytes(w []uint64) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w))
}

// RemoteFail is an error reply decoded from the wire. Code distinguishes
// protocol-level failure classes (the tcp transport maps CodePeerDead to
// transport.PeerDeadError); Msg travels verbatim.
type RemoteFail struct {
	Code byte
	Rank int
	Msg  string
}

// Error codes of RemoteFail.
const (
	CodeGeneric  byte = 0
	CodePeerDead byte = 1
	CodeCrisis   byte = 2 // fabric: the node is closing; treat it as the connection going down
)

func (e RemoteFail) Error() string {
	return fmt.Sprintf("wire: remote failure (code %d, rank %d): %s", e.Code, e.Rank, e.Msg)
}

// ErrDown reports a connection that died (closed, reset, or heartbeat
// timeout); the underlying cause is wrapped.
var ErrDown = errors.New("wire: connection down")

// Handler serves one incoming request frame and returns the reply type and
// payload, or an error (sent as an error reply). A request whose type
// Config.Inline names runs on the connection's reader, which reads nothing
// else until the handler returns: such a handler must not wait on another
// peer. Every other request runs on a handler goroutine: one that has served
// its frame parks for the connection's next one (at most one per connection,
// and maxParked per process), and a frame that finds none parked gets a new
// goroutine. So those handlers may block (structure locks, barriers) without
// stalling the connection, its replies or its heartbeats, and back-to-back
// requests reuse one warm goroutine.
//
// The payload is only valid until the handler returns: request bodies are
// pooled and recycled. A handler that keeps data must copy it (Dec's
// Words/Str already do).
type Handler func(t byte, payload []byte) (byte, []byte, error)

// VecHandler is the zero-copy variant of Handler: it may return a
// vectored reply (a *Vec) whose chunks alias handler-owned memory. The
// connection writes the frame and then releases the Vec — its OnRelease
// hook is where pooled reply scratch goes back to its pool, or where a lock
// that keeps the aliased memory still is released: it runs exactly once,
// whether the reply is written, dropped for an error reply or a
// notification, or fails on a dead connection. Returning a nil Vec means an
// empty reply payload. The same payload-lifetime and placement rules as
// Handler apply.
//
// r is the request's reply handle. A handler that cannot answer yet — and
// must not wait, as on the reader — returns ErrLater instead, keeps r, and
// answers through r.Send later, from any goroutine.
type VecHandler func(t byte, payload []byte, r Reply) (byte, *Vec, error)

// ErrLater, returned by a VecHandler, says the handler kept its Reply and
// answers through it: the connection writes nothing for the request.
var ErrLater = errors.New("wire: answered later")

// Reply is the reply handle of one request (see VecHandler). Send answers
// the request as the handler's return values would: a reply of type t with
// payload v (nil: empty), or err as an error reply. It must be called
// exactly once, and v is consumed as a VecHandler's reply is. A Reply of a
// notification, or of a connection that has gone down since, writes
// nothing.
type Reply struct {
	c  *Conn
	id uint32
}

// Send answers the request (see Reply).
func (r Reply) Send(t byte, v *Vec, err error) { r.c.reply(r.id, t, nil, v, err) }

// Config tunes a Conn.
type Config struct {
	// Handler serves incoming requests; nil rejects them (unless
	// VecHandler is set).
	Handler Handler
	// VecHandler, when set, serves incoming requests instead of Handler
	// and may reply with a vectored frame (see VecHandler's doc). The tcp
	// transport uses it so flush get-replies gather straight from the
	// ops' destination buffers, and the fabric so a recovery's base and
	// parity replies gather straight from the node's state.
	VecHandler VecHandler
	// Inline, when set, reports whether a request of type t runs on the
	// reader itself rather than on a handler goroutine (see Handler): a
	// request that is served without waiting on another peer saves the
	// handoff. Nil serves every request on a handler goroutine. Inline
	// handlers write their replies from the reader, so the transport must
	// buffer a few small frames (TCP and shm rings do; an unbuffered
	// net.Pipe can leave two readers each waiting for the other to read).
	Inline func(t byte) bool
	// Heartbeat is the interval of outgoing heartbeat frames; 0 disables.
	Heartbeat time.Duration
	// ReadTimeout is the rolling per-frame read deadline — the failure
	// detector's patience. 0 disables. It must comfortably exceed the
	// peer's heartbeat interval.
	ReadTimeout time.Duration
	// OnDown is called exactly once when the connection dies, with the
	// cause. It runs on the reader goroutine; it must not block.
	OnDown func(error)
	// OnNearMiss is called when a frame arrives inside the last slice of
	// the lease window — after ReadTimeout-Heartbeat of silence (the last
	// quarter of ReadTimeout when Heartbeat is unset or no smaller than
	// ReadTimeout). The connection survived, but only just: a scheduler
	// hiccup would have condemned the peer, so chaos runs count these to
	// catch lease tunings that pass by luck. Runs on the reader
	// goroutine; it must not block. NearMisses counts regardless.
	OnNearMiss func(gap time.Duration)
	// BytesOut and BytesIn, when set, receive one Add per data frame with
	// the frame's full on-wire size (header included, heartbeats excluded)
	// so a host with many connections can aggregate bytes-on-wire into one
	// cumulative counter (obs.Counter satisfies ByteSink). The per-Conn
	// BytesSent/BytesReceived accessors count regardless.
	BytesOut, BytesIn ByteSink
}

// ByteSink accumulates on-wire byte counts; obs.Counter satisfies it.
type ByteSink interface{ Add(n uint64) }

// nearMissThreshold resolves the silence gap beyond which a surviving
// frame counts as a lease near miss.
func nearMissThreshold(cfg Config) time.Duration {
	if cfg.ReadTimeout <= 0 {
		return 0
	}
	if cfg.Heartbeat > 0 && cfg.Heartbeat < cfg.ReadTimeout {
		return cfg.ReadTimeout - cfg.Heartbeat
	}
	return cfg.ReadTimeout * 3 / 4
}

// Conn is a framed, multiplexed connection.
type Conn struct {
	nc  net.Conn
	cfg Config

	wmu    sync.Mutex
	whdr   [9]byte     // a vectored frame's header, guarded by wmu
	wbufs  net.Buffers // scratch chunk list, guarded by wmu
	nextID atomic.Uint32

	pmu     sync.Mutex
	pending map[uint32]chan frame
	replies []chan frame // reply channels of answered calls, for the next ones
	downErr error        // set under pmu once down

	// spare is the handler goroutine parked for the next request, if any;
	// spawned counts the handler goroutines started, handoffs the requests
	// the reader passed to a handler goroutine, parked or new.
	spare    atomic.Pointer[handler]
	spawned  atomic.Uint64
	handoffs atomic.Uint64

	downOnce  sync.Once
	done      chan struct{} // closed once down; stops the heartbeat loop
	sent      atomic.Uint64
	received  atomic.Uint64
	sentBytes atomic.Uint64
	recvBytes atomic.Uint64
	nearMiss  atomic.Uint64
}

type frame struct {
	t       byte
	id      uint32
	payload []byte
}

// New wraps nc and starts the reader (and heartbeat sender, if configured).
func New(nc net.Conn, cfg Config) *Conn {
	c := &Conn{nc: nc, cfg: cfg, pending: make(map[uint32]chan frame), done: make(chan struct{})}
	go c.readLoop()
	if cfg.Heartbeat > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// Sent returns the number of data frames written (requests, replies, and
// notifications; heartbeats excluded). The frame-count assertions of the
// conformance suite read it.
func (c *Conn) Sent() uint64 { return c.sent.Load() }

// Received returns the number of frames read.
func (c *Conn) Received() uint64 { return c.received.Load() }

// Handoffs returns the number of requests the reader handed to a handler
// goroutine instead of serving them inline (Config.Inline).
func (c *Conn) Handoffs() uint64 { return c.handoffs.Load() }

// BytesSent returns the on-wire bytes of every data frame written
// (9-byte header included; heartbeats excluded, like Sent).
func (c *Conn) BytesSent() uint64 { return c.sentBytes.Load() }

// BytesReceived returns the on-wire bytes of every data frame read
// (header included, heartbeats excluded).
func (c *Conn) BytesReceived() uint64 { return c.recvBytes.Load() }

// countSent records one outgoing data frame of on-wire size n.
func (c *Conn) countSent(n int) {
	c.sent.Add(1)
	c.sentBytes.Add(uint64(n))
	if c.cfg.BytesOut != nil {
		c.cfg.BytesOut.Add(uint64(n))
	}
}

// NearMisses returns how many frames arrived in the last slice of the
// lease window (see Config.OnNearMiss).
func (c *Conn) NearMisses() uint64 { return c.nearMiss.Load() }

// Close tears the connection down.
func (c *Conn) Close() error {
	c.markDown(ErrDown)
	return nil
}

func (c *Conn) markDown(err error) {
	first := false
	c.downOnce.Do(func() {
		first = true
		c.pmu.Lock()
		c.downErr = err
		waiters := c.pending
		c.pending = nil
		c.pmu.Unlock()
		close(c.done)
		c.nc.Close()
		for _, ch := range waiters {
			close(ch)
		}
	})
	// OnDown runs outside the Once body: callbacks close other
	// connections (a condemnation drops the peer's conn, whose own
	// OnDown condemns back), and two connections tearing each other
	// down from inside their Once bodies deadlock on the Once mutexes.
	// The first marker still fires the callback exactly once.
	if first && c.cfg.OnDown != nil {
		c.cfg.OnDown(err)
	}
}

// ErrFrameTooLarge reports a payload exceeding MaxFrame. The connection
// stays up — the frame was never sent — so the caller can surface a
// diagnostic instead of the receiver dropping the link as corrupt.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Frame bodies and small-frame staging buffers are pooled by size class:
// class c holds buffers whose capacity is at least 1<<c, and getBuf(n)
// takes from the smallest class that fits n. So a recycled body serves
// any later frame of its class, and a connection whose frames alternate
// between 100 bytes and 100 KiB never hands the small buffer to the large
// frame. Bodies above maxPooled — base, parity and window fetches of a
// large window — are allocated to size and left to the GC, so one
// recovery's 4 MiB frames are not held for the rest of the run. A buffer
// is pooled in a *[]byte box, because a slice put into an interface is
// boxed on the heap; boxPool keeps the emptied boxes for the next Recycle,
// so neither direction allocates.
const (
	minClass  = 6  // 64 B: room for any small frame, a header-only reply included
	maxClass  = 20 // 1 MiB
	maxPooled = 1 << maxClass
)

var (
	bodyPools [maxClass - minClass + 1]sync.Pool
	boxPool   sync.Pool
)

// sizeClass returns the smallest class whose buffers hold n bytes.
func sizeClass(n int) int {
	if n <= 1<<minClass {
		return minClass
	}
	return bits.Len(uint(n - 1))
}

func getBuf(n int) []byte {
	c := sizeClass(n)
	if c > maxClass {
		return make([]byte, n)
	}
	if v := bodyPools[c-minClass].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxPool.Put(box)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// Recycle returns a payload obtained from a Call (or a handler) to the
// frame-body pool. Strictly optional — callers that skip it just leave
// the buffer to the GC — and only legal once every value decoded from
// the payload has been copied out: the buffer will be overwritten by a
// future frame. A buffer is filed under the largest class its capacity
// covers; one smaller than the smallest class or larger than the largest
// is not kept.
func Recycle(b []byte) {
	if cap(b) < 1<<minClass || cap(b) > maxPooled {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:cap(b)]
	bodyPools[c-minClass].Put(box)
}

// smallFrame is the flatten threshold of the vectored write path: frames
// up to this size are assembled in one pooled staging buffer (a single
// Write, no per-frame allocation); larger frames go out as one vectored
// write whose chunks alias the caller's payload slices.
const smallFrame = 2048

func (c *Conn) writeFrame(t byte, id uint32, payload []byte) error {
	if len(payload)+5 > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := getBuf(9 + len(payload))
	binary.BigEndian.PutUint32(buf, uint32(5+len(payload)))
	buf[4] = t
	binary.BigEndian.PutUint32(buf[5:], id)
	copy(buf[9:], payload)
	c.wmu.Lock()
	_, err := c.nc.Write(buf)
	c.wmu.Unlock()
	Recycle(buf)
	if err != nil {
		c.markDown(fmt.Errorf("%w: write: %v", ErrDown, err))
		return c.down()
	}
	if t != TypeHeartbeat {
		c.countSent(9 + len(payload))
	}
	return nil
}

// writeFrameVec writes one frame assembled from v's chunks, then releases
// v (pool return + OnRelease hook), whatever the outcome. A nil v is an
// empty payload.
func (c *Conn) writeFrameVec(t byte, id uint32, v *Vec) error {
	if v == nil {
		return c.writeFrame(t, id, nil)
	}
	defer v.free()
	n := v.Len()
	if n+5 > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	var err error
	if n+9 <= smallFrame {
		// Small frame: flatten into one pooled buffer, one Write.
		buf := getBuf(9 + n)
		binary.BigEndian.PutUint32(buf, uint32(5+n))
		buf[4] = t
		binary.BigEndian.PutUint32(buf[5:], id)
		v.appendTo(buf[9:9])
		c.wmu.Lock()
		_, err = c.nc.Write(buf)
		c.wmu.Unlock()
		Recycle(buf)
	} else {
		c.wmu.Lock()
		binary.BigEndian.PutUint32(c.whdr[:], uint32(5+n))
		c.whdr[4] = t
		binary.BigEndian.PutUint32(c.whdr[5:], id)
		// One vectored write: writev on *net.TCPConn, sequential writes on
		// anything else (still one frame — wmu holds across the chunks).
		// The header and the chunk list live in the Conn, so the write
		// allocates nothing; WriteTo consumes c.wbufs, full keeps the list.
		full := v.buffers(c.wbufs[:0], c.whdr[:])
		c.wbufs = full
		_, err = c.wbufs.WriteTo(c.nc)
		clear(full) // drop chunk refs so the scratch pins nothing
		c.wbufs = full[:0]
		c.wmu.Unlock()
	}
	if err != nil {
		c.markDown(fmt.Errorf("%w: write: %v", ErrDown, err))
		return c.down()
	}
	if t != TypeHeartbeat {
		c.countSent(9 + n)
	}
	return nil
}

func (c *Conn) down() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.downErr != nil {
		return c.downErr
	}
	return ErrDown
}

// Call sends a request and blocks for its reply payload. A RemoteFail from
// the peer is returned as the error; a dead connection returns ErrDown
// (wrapped).
func (c *Conn) Call(t byte, payload []byte) ([]byte, error) {
	return c.call(t, payload, nil)
}

// CallVec is Call with a vectored request: the frame is assembled from
// v's chunks without staging the payload slices through a copy (for
// frames above the flatten threshold). v is consumed — the connection
// releases it after the write, whatever the outcome.
func (c *Conn) CallVec(t byte, v *Vec) ([]byte, error) {
	return c.call(t, nil, v)
}

func (c *Conn) call(t byte, payload []byte, v *Vec) ([]byte, error) {
	id := c.nextID.Add(1)
	if id == 0 {
		id = c.nextID.Add(1)
	}
	c.pmu.Lock()
	if c.downErr != nil {
		err := c.downErr
		c.pmu.Unlock()
		if v != nil {
			v.free()
		}
		return nil, err
	}
	var ch chan frame
	if k := len(c.replies) - 1; k >= 0 {
		ch, c.replies = c.replies[k], c.replies[:k]
	} else {
		ch = make(chan frame, 1)
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	var err error
	if v != nil {
		err = c.writeFrameVec(t, id, v)
	} else {
		err = c.writeFrame(t, id, payload)
	}
	if err != nil {
		c.pmu.Lock()
		if c.pending != nil {
			delete(c.pending, id)
		}
		c.pmu.Unlock()
		return nil, err
	}
	f, ok := <-ch
	if !ok {
		return nil, c.down() // closed by markDown: never reused
	}
	// readLoop took ch out of pending before it sent: nobody else holds it.
	c.pmu.Lock()
	c.replies = append(c.replies, ch)
	c.pmu.Unlock()
	if f.t == typeErr {
		return nil, decodeFail(f.payload)
	}
	return f.payload, nil
}

// Notify sends a fire-and-forget frame (id 0, no reply expected).
func (c *Conn) Notify(t byte, payload []byte) error {
	return c.writeFrame(t, 0, payload)
}

func (c *Conn) heartbeatLoop() {
	tick := time.NewTicker(c.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		if c.Notify(TypeHeartbeat, nil) != nil {
			return
		}
	}
}

// readAheadSize is the read-ahead buffer of each connection: room for the
// small frames of an epoch close (a halo batch, its reply, a fold ack, a
// ready) several times over. Every connection pays it, idle or not — the
// in-process 64-rank soak has 8064 of them — so it stays small.
const readAheadSize = 512

// readAhead is readLoop's buffered reader. One Read takes whatever the
// socket holds, up to the buffer, so a small frame's header and payload —
// and the frames queued behind it — cost one system call, not two each.
// The read deadline runs per frame, from the first Read the frame needs; a
// frame already buffered needs none and arms nothing.
type readAhead struct {
	nc      net.Conn
	timeout time.Duration // Config.ReadTimeout
	armed   bool          // the current frame's deadline is running
	buf     []byte
	r, w    int // buf[r:w] is read and not yet consumed
}

// arm starts the current frame's read deadline unless it is running, and
// returns when it started (zero if it was running or there is none).
func (ra *readAhead) arm() (now time.Time) {
	if ra.timeout > 0 && !ra.armed {
		now = time.Now()
		ra.nc.SetReadDeadline(now.Add(ra.timeout))
		ra.armed = true
	}
	return now
}

// fill reads until at least need ≤ len(buf) bytes are buffered.
func (ra *readAhead) fill(need int) error {
	if ra.w-ra.r >= need {
		return nil
	}
	ra.arm()
	ra.w = copy(ra.buf, ra.buf[ra.r:ra.w])
	ra.r = 0
	for ra.w < need {
		k, err := ra.nc.Read(ra.buf[ra.w:])
		ra.w += k
		if err != nil && ra.w < need {
			return err
		}
	}
	return nil
}

// readFull fills dst from the buffer, then from the connection. A remainder
// the size of the buffer or more is read straight into dst: a large payload
// is not copied twice.
func (ra *readAhead) readFull(dst []byte) error {
	k := copy(dst, ra.buf[ra.r:ra.w])
	ra.r += k
	rest := dst[k:]
	switch {
	case len(rest) == 0:
		return nil
	case len(rest) >= len(ra.buf):
		ra.arm()
		_, err := io.ReadFull(ra.nc, rest)
		return err
	}
	if err := ra.fill(len(rest)); err != nil {
		return err
	}
	ra.r += copy(rest, ra.buf[ra.r:ra.w])
	return nil
}

func (c *Conn) readLoop() {
	ra := &readAhead{nc: c.nc, timeout: c.cfg.ReadTimeout, buf: make([]byte, readAheadSize)}
	nearThresh := nearMissThreshold(c.cfg)
	for {
		ra.armed = false
		if ra.w-ra.r < 9 {
			// The silence before a frame is the wait for its header; one
			// that arrived with the previous read broke none.
			waitStart := ra.arm()
			if err := ra.fill(9); err != nil {
				c.markDown(fmt.Errorf("%w: read: %v", ErrDown, err))
				return
			}
			if nearThresh > 0 {
				if gap := time.Since(waitStart); gap >= nearThresh {
					c.nearMiss.Add(1)
					if c.cfg.OnNearMiss != nil {
						c.cfg.OnNearMiss(gap)
					}
				}
			}
		}
		hdr := ra.buf[ra.r : ra.r+9]
		ra.r += 9
		n := binary.BigEndian.Uint32(hdr)
		if n < 5 || n > MaxFrame {
			c.markDown(fmt.Errorf("%w: bad frame length %d", ErrDown, n))
			return
		}
		f := frame{t: hdr[4], id: binary.BigEndian.Uint32(hdr[5:9])}
		pn := int(n) - 5
		// The payload is copied into a buffer that starts at its allocation,
		// so the aligned word vectors of the encoding land 8-byte aligned in
		// memory and WordsView can alias them. Request bodies come from the
		// pool and are recycled when the handler returns; reply payloads
		// escape to the caller of Call, which may Recycle them once decoded.
		if pn > 0 {
			f.payload = getBuf(pn)
			if err := ra.readFull(f.payload); err != nil {
				c.markDown(fmt.Errorf("%w: read: %v", ErrDown, err))
				return
			}
		}
		c.received.Add(1)
		if f.t != TypeHeartbeat {
			c.recvBytes.Add(uint64(4 + n))
			if c.cfg.BytesIn != nil {
				c.cfg.BytesIn.Add(uint64(4 + n))
			}
		}
		switch {
		case f.t == TypeHeartbeat:
			// Liveness only; the read itself reset the deadline.
			if f.payload != nil {
				Recycle(f.payload)
			}
		case f.t&replyBit != 0 || f.t == typeErr:
			c.pmu.Lock()
			ch := c.pending[f.id]
			delete(c.pending, f.id)
			c.pmu.Unlock()
			if ch != nil {
				ch <- f
			}
		case c.cfg.Inline != nil && c.cfg.Inline(f.t):
			c.serve(f, nil)
		default:
			c.handoffs.Add(1)
			if h := c.spare.Swap(nil); h != nil {
				parked.Add(-1)
				h.next <- f // never blocks: h claimed the slot with next empty
			} else {
				c.spawned.Add(1)
				go c.serveLoop(f)
			}
		}
	}
}

// maxParked bounds the handler goroutines parked across all the process's
// connections. Past it a connection serves as if it had none parked — a new
// goroutine per request — so a process with thousands of connections (the
// in-process 64-rank soak accepts 4032) keeps a few hundred idle goroutines,
// not one per connection.
const maxParked = 256

// parked counts the handlers holding a connection's spare slot.
var parked atomic.Int32

// handler is a request-serving goroutine's mailbox. readLoop puts one frame
// in it per claim of Conn.spare, and the goroutine claims again only once
// it has taken that frame out.
type handler struct{ next chan frame }

// serveLoop is a handler goroutine: it serves f and then, while it is the
// connection's spare handler, each request readLoop hands it. It ends when
// it finds no slot to claim, or when the connection goes down.
func (c *Conn) serveLoop(f frame) {
	h := &handler{next: make(chan frame, 1)}
	for c.serve(f, h) {
		select {
		case f = <-h.next:
		case <-c.done:
			if c.spare.CompareAndSwap(h, nil) {
				parked.Add(-1)
				return
			}
			// readLoop took h out of the slot: a request it read before the
			// end is on its way, and is still served.
			f = <-h.next
		}
	}
}

// claim makes h the connection's spare handler, unless one is parked here
// already or maxParked are parked process-wide.
func (c *Conn) claim(h *handler) bool {
	if c.spare.Load() != nil {
		return false
	}
	if parked.Add(1) > maxParked || !c.spare.CompareAndSwap(nil, h) {
		parked.Add(-1)
		return false
	}
	return true
}

// serve runs the handler on f and writes its reply. A handler goroutine h
// claims the spare slot in between: before the reply leaves, so that the
// caller's next request finds h parked. It reports whether h claimed the
// slot; the reader serves inline requests with h nil.
func (c *Conn) serve(f frame, h *handler) (claimed bool) {
	rt, b, v, err := c.run(f)
	if h != nil {
		claimed = c.claim(h)
	}
	if err != ErrLater {
		c.reply(f.id, rt, b, v, err)
	}
	if f.payload != nil {
		Recycle(f.payload)
	}
	return claimed
}

// reply writes the answer to request id: a Handler's payload b, a
// VecHandler's v, or err as an error reply. A notification (id 0) gets none.
func (c *Conn) reply(id uint32, rt byte, b []byte, v *Vec, err error) {
	switch {
	case id == 0:
		if v != nil {
			v.free()
		}
	case err != nil:
		if v != nil {
			v.free()
		}
		c.writeFrame(typeErr, id, encodeFail(toRemoteFail(err)))
	case c.cfg.VecHandler != nil:
		c.writeFrameVec(rt|replyBit, id, v)
	default:
		c.writeFrame(rt|replyBit, id, b)
	}
}

// run calls the configured handler on f — a VecHandler answers in v, a
// Handler in b — and turns a panic into an error reply.
func (c *Conn) run(f frame) (rt byte, b []byte, v *Vec, err error) {
	defer func() {
		if e := recover(); e != nil {
			err = RemoteFail{Code: CodeGeneric, Msg: fmt.Sprint(e)}
		}
	}()
	switch {
	case c.cfg.VecHandler != nil:
		rt, v, err = c.cfg.VecHandler(f.t, f.payload, Reply{c: c, id: f.id})
	case c.cfg.Handler != nil:
		rt, b, err = c.cfg.Handler(f.t, f.payload)
	default:
		err = RemoteFail{Code: CodeGeneric, Msg: "no handler"}
	}
	return rt, b, v, err
}

func toRemoteFail(err error) RemoteFail {
	var rf RemoteFail
	if errors.As(err, &rf) {
		return rf
	}
	return RemoteFail{Code: CodeGeneric, Msg: err.Error()}
}

func encodeFail(f RemoteFail) []byte {
	var e Enc
	e.B(f.Code)
	e.I(f.Rank)
	e.Str(f.Msg)
	return e.Bytes()
}

func decodeFail(b []byte) error {
	d := NewDec(b)
	f := RemoteFail{Code: d.B(), Rank: d.I(), Msg: d.Str()}
	if d.Failed() {
		return RemoteFail{Code: CodeGeneric, Msg: "undecodable error reply"}
	}
	return f
}

// ---- Vectored payload assembly ----------------------------------------------

// Vec assembles a frame payload from encoded header bytes interleaved
// with externally owned word slices ("gather"). The external slices are
// aliased, not copied: they must stay unmodified until the Vec is written
// (writes are synchronous — by the time CallVec or a handler's reply
// write returns, the wire no longer references them).
//
// Vecs are pooled: obtain one with NewVec; passing it to CallVec or
// returning it from a VecHandler consumes it.
type Vec struct {
	hdr       Enc      // accumulated header/metadata bytes
	cuts      []int    // hdr offsets where an external chunk splices in
	exts      [][]byte // external chunks, parallel to cuts
	extLen    int      // total bytes across exts
	onRelease func()
}

var vecPool = sync.Pool{New: func() any { return new(Vec) }}

// NewVec returns an empty Vec from the pool.
func NewVec() *Vec {
	return vecPool.Get().(*Vec)
}

// Release resets the Vec and returns it to the pool, running the
// OnRelease hook first. Only for Vecs that were never handed to the
// connection — CallVec and VecHandler replies release automatically once
// the frame is written (or abandoned), and a second release corrupts the
// pool.
func (v *Vec) Release() { v.free() }

// free resets the Vec and returns it to the pool, running the OnRelease
// hook first. Called by the connection once the frame is written (or
// abandoned).
func (v *Vec) free() {
	if v.onRelease != nil {
		v.onRelease()
		v.onRelease = nil
	}
	v.hdr.b = v.hdr.b[:0]
	v.cuts = v.cuts[:0]
	for i := range v.exts {
		v.exts[i] = nil
	}
	v.exts = v.exts[:0]
	v.extLen = 0
	vecPool.Put(v)
}

// OnRelease registers f to run when the Vec is released after its frame
// is written — where pooled scratch that the chunks alias goes back to
// its pool.
func (v *Vec) OnRelease(f func()) { v.onRelease = f }

// Len returns the total payload length assembled so far.
func (v *Vec) Len() int { return len(v.hdr.b) + v.extLen }

// B appends one byte.
func (v *Vec) B(b byte) { v.hdr.B(b) }

// U appends a uvarint.
func (v *Vec) U(u uint64) { v.hdr.U(u) }

// I appends a non-negative int as a uvarint.
func (v *Vec) I(i int) { v.hdr.I(i) }

// F appends a float64 as its IEEE bits.
func (v *Vec) F(f float64) { v.hdr.F(f) }

// W64 appends one word, fixed width.
func (v *Vec) W64(w uint64) { v.hdr.W64(w) }

// Str appends a length-prefixed string.
func (v *Vec) Str(s string) { v.hdr.Str(s) }

// Raw appends bytes verbatim.
func (v *Vec) Raw(b []byte) { v.hdr.b = append(v.hdr.b, b...) }

// Words appends a length-prefixed, 8-aligned word vector — the same
// production as Enc.Words — aliasing w instead of copying it (on
// little-endian hosts; big-endian falls back to an in-header copy).
func (v *Vec) Words(w []uint64) {
	v.WordsStart(len(w))
	v.WordsPart(w)
}

// WordsStart opens a word vector of n words that is gathered from several
// slices: the WordsPart calls that follow it append them in order, and
// their lengths must add up to n. Together they are the production Words
// makes of the parts' concatenation.
func (v *Vec) WordsStart(n int) {
	v.hdr.I(n)
	v.pad8()
}

// WordsPart appends w to the word vector WordsStart opened, aliasing it as
// Words does.
func (v *Vec) WordsPart(w []uint64) {
	if len(w) == 0 {
		return
	}
	if !hostLittle {
		for _, x := range w {
			v.hdr.W64(x)
		}
		return
	}
	v.cuts = append(v.cuts, len(v.hdr.b))
	v.exts = append(v.exts, wordBytes(w))
	v.extLen += 8 * len(w)
}

// pad8 advances the payload to the next multiple of 8 with zero bytes.
func (v *Vec) pad8() {
	for (len(v.hdr.b)+v.extLen)&7 != 0 {
		v.hdr.B(0)
	}
}

// appendTo flattens the payload into buf (the small-frame path).
func (v *Vec) appendTo(buf []byte) []byte {
	prev := 0
	for i, cut := range v.cuts {
		buf = append(buf, v.hdr.b[prev:cut]...)
		buf = append(buf, v.exts[i]...)
		prev = cut
	}
	return append(buf, v.hdr.b[prev:]...)
}

// buffers appends the frame's chunk list (header first) to dst.
func (v *Vec) buffers(dst net.Buffers, hdr []byte) net.Buffers {
	dst = append(dst, hdr)
	prev := 0
	for i, cut := range v.cuts {
		if cut > prev {
			dst = append(dst, v.hdr.b[prev:cut])
		}
		dst = append(dst, v.exts[i])
		prev = cut
	}
	if len(v.hdr.b) > prev {
		dst = append(dst, v.hdr.b[prev:])
	}
	return dst
}

// ---- Payload encoding -------------------------------------------------------

// Enc builds a payload: uvarints, raw bytes, 64-bit words, floats, strings.
type Enc struct{ b []byte }

// B appends one byte.
func (e *Enc) B(v byte) { e.b = append(e.b, v) }

// U appends a uvarint.
func (e *Enc) U(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// I appends a non-negative int as a uvarint. Negative values have no
// representation in this protocol (counts, offsets, lengths): encoding
// one is a programming error and panics rather than framing a value the
// peer would decode as a huge count. Callers with -1 sentinels shift
// them non-negative first (the fabric encodes localOff+1).
func (e *Enc) I(v int) {
	if v < 0 {
		panic(fmt.Sprintf("wire: Enc.I(%d): negative values are not encodable", v))
	}
	e.U(uint64(v))
}

// F appends a float64 as its IEEE bits.
func (e *Enc) F(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// W64 appends one word, fixed width.
func (e *Enc) W64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Words appends a length-prefixed word vector: a uvarint count, zero
// padding up to the next 8-byte boundary of the payload, then the words
// as fixed little-endian 64-bit. The alignment lets decode sides alias
// or bulk-copy the run (see Dec.WordsView).
func (e *Enc) Words(w []uint64) {
	e.I(len(w))
	for len(e.b)&7 != 0 {
		e.b = append(e.b, 0)
	}
	if hostLittle {
		e.b = append(e.b, wordBytes(w)...)
		return
	}
	for _, v := range w {
		e.W64(v)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.I(len(s))
	e.b = append(e.b, s...)
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// Dec consumes a payload. A malformed payload poisons the decoder (Failed
// reports it) instead of panicking; zero values are returned after poison.
//
// Dec tracks its offset from the payload start so the word-vector
// alignment padding (see Enc.Words) is deterministic on both sides;
// construct it on a whole frame payload, not a sub-slice, or the
// alignment bookkeeping goes wrong.
type Dec struct {
	b    []byte
	n0   int // initial payload length; offset consumed = n0 - len(b)
	fail bool
}

// NewDec wraps a payload.
func NewDec(b []byte) *Dec { return &Dec{b: b, n0: len(b)} }

// Failed reports whether any read ran off the payload.
func (d *Dec) Failed() bool { return d.fail }

// Rem returns the number of unconsumed payload bytes. Protocols that pin
// "no trailing garbage" (the tcp flush batch does) check Rem() == 0
// after a full decode.
func (d *Dec) Rem() int { return len(d.b) }

func (d *Dec) off() int { return d.n0 - len(d.b) }

func (d *Dec) poison() {
	d.fail = true
	d.b = nil
}

// B reads one byte.
func (d *Dec) B() byte {
	if len(d.b) < 1 {
		d.poison()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// U reads a uvarint.
func (d *Dec) U() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.poison()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// maxWireInt bounds Dec.I: no legitimate count, offset, or length of this
// protocol reaches 2^32, and nothing above the platform's MaxInt can be
// represented as an int at all (on 32-bit GOARCH the int cast would wrap
// negative — rejecting here is what keeps "lengths are non-negative" an
// invariant handlers can rely on).
const maxWireInt = math.MaxInt

// intFromWire converts a decoded uvarint to an int, enforcing both the
// protocol cap (2^32) and the platform cap (maxInt — math.MaxInt in
// production; tests pass MaxInt32 to exercise the 32-bit rejection on a
// 64-bit host). Reports ok=false when the value is unrepresentable.
func intFromWire(v uint64, maxInt uint64) (int, bool) {
	if v >= 1<<32 || v > maxInt {
		return 0, false
	}
	return int(v), true
}

// I reads a uvarint as an int, rejecting values no legitimate count,
// offset, or length of this protocol can reach (they would otherwise
// wrap negative or drive pathological allocations in handlers).
func (d *Dec) I() int {
	v, ok := intFromWire(d.U(), maxWireInt)
	if !ok {
		d.poison()
		return 0
	}
	return v
}

// F reads a float64.
func (d *Dec) F() float64 { return math.Float64frombits(d.W64()) }

// W64 reads one fixed-width word.
func (d *Dec) W64() uint64 {
	if len(d.b) < 8 {
		d.poison()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// wordsHeader consumes a word vector's count and alignment padding and
// returns the count, verifying the padded words fit the remaining
// payload.
func (d *Dec) wordsHeader() int {
	n := d.I()
	if d.fail {
		return 0
	}
	for d.off()&7 != 0 {
		if len(d.b) == 0 {
			d.poison()
			return 0
		}
		d.b = d.b[1:]
	}
	if n > len(d.b)/8 {
		d.poison()
		return 0
	}
	return n
}

// Words reads a length-prefixed word vector into a fresh slice.
func (d *Dec) Words() []uint64 {
	n := d.wordsHeader()
	if d.fail {
		return nil
	}
	out := make([]uint64, n)
	d.wordsInto(out)
	return out
}

// WordsInto reads a length-prefixed word vector into dst; the vector's
// length must equal len(dst). This is the zero-allocation decode path the
// tcp client uses to move get replies straight into their destination
// buffers.
func (d *Dec) WordsInto(dst []uint64) bool {
	n := d.wordsHeader()
	if d.fail || n != len(dst) {
		d.poison()
		return false
	}
	d.wordsInto(dst)
	return !d.fail
}

func (d *Dec) wordsInto(dst []uint64) {
	if len(dst) == 0 {
		return
	}
	if hostLittle {
		copy(wordBytes(dst), d.b[:8*len(dst)])
	} else {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(d.b[8*i:])
		}
	}
	d.b = d.b[8*len(dst):]
}

// WordsIntoPrefix reads a length-prefixed word vector into the front of
// dst and returns its length (which must fit dst). Batch decoders carve
// consecutive vectors out of one shared backing buffer with it.
func (d *Dec) WordsIntoPrefix(dst []uint64) int {
	n := d.wordsHeader()
	if d.fail || n > len(dst) {
		d.poison()
		return 0
	}
	d.wordsInto(dst[:n])
	return n
}

// WordsView reads a length-prefixed word vector ZERO-COPY where
// possible: when the underlying bytes are 8-byte aligned in memory (the
// encoder's alignment padding makes that the common case for payloads
// starting on an aligned buffer) the returned slice aliases the payload;
// otherwise the words decode into the front of scratch, which must be at
// least as long as the vector (the decoder poisons if not — batch
// decoders size it in a validation pass). Either way the returned slice
// is valid only as long as the payload buffer is: callers hand it to
// sinks that copy (the window's ApplyPut/ApplyAccumulate), never retain
// it.
func (d *Dec) WordsView(scratch []uint64) []uint64 {
	n := d.wordsHeader()
	if d.fail || n > len(scratch) {
		d.poison()
		return nil
	}
	if n == 0 {
		return scratch[:0]
	}
	if view := d.alias(n); view != nil {
		return view
	}
	d.wordsInto(scratch[:n])
	return scratch[:n]
}

// WordsAlias reads a length-prefixed word vector for keeping: when the run
// lies 8-byte aligned in memory on a little-endian host — as in a payload
// read into a buffer of its own, which every Call reply is — the returned
// slice aliases the payload; otherwise the words decode into a fresh slice,
// as Words does. So the caller must own the payload for as long as it keeps
// the slice: a Call reply it never recycles. A handler may take such views
// of its request body only for as long as it runs: the connection recycles
// the body when it returns. Writes through the slice land in the payload.
func (d *Dec) WordsAlias() []uint64 {
	n := d.wordsHeader()
	if d.fail {
		return nil
	}
	if n > 0 {
		if view := d.alias(n); view != nil {
			return view
		}
	}
	out := make([]uint64, n)
	d.wordsInto(out)
	return out
}

// alias consumes the next n ≥ 1 words as a view of the payload, or returns
// nil and consumes nothing when they do not lie 8-byte aligned in memory on
// a little-endian host. The caller has checked that they fit.
func (d *Dec) alias(n int) []uint64 {
	if !hostLittle || uintptr(unsafe.Pointer(&d.b[0]))&7 != 0 {
		return nil
	}
	view := unsafe.Slice((*uint64)(unsafe.Pointer(&d.b[0])), n)
	d.b = d.b[8*n:]
	return view
}

// SkipWords advances past a length-prefixed word vector without decoding
// it, returning its length. Two-pass decoders use it to size one shared
// backing buffer before converting payloads.
func (d *Dec) SkipWords() int {
	n := d.wordsHeader()
	if d.fail {
		return 0
	}
	d.b = d.b[8*n:]
	return n
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.I()
	if d.fail || n > len(d.b) {
		d.poison()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
