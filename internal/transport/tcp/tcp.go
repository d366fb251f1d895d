// Package tcp is the out-of-process transport: the same delivery contract
// as the loopback, spoken between OS processes over a length-prefixed
// binary wire protocol (package wire).
//
// One epoch's buffered accesses towards a target travel as a single flush
// frame — closing an epoch costs one round trip however many puts, gets,
// and accumulates it carries. Blocking atomics and structure locks are
// request/response frames; a lock request may block server-side for as
// long as the structure is held (each incoming frame is served on its own
// goroutine, so a blocked lock never stalls the connection).
//
// The flush path is zero-copy in both directions. Sending, the frame is
// assembled as a wire.Vec whose put payloads alias the rma layer's
// epoch arenas and goes out as one vectored write — no staging copy.
// Receiving, the two-pass decode validates then hands out WordsView
// aliases of the frame buffer, which land in window memory under the
// window lock via the non-aliasing Endpoint write path; get replies
// gather straight from the ops' destination scratch, which returns to
// its pool once the reply frame is written.
//
// Liveness: every connection exchanges heartbeats; a peer that misses the
// read deadline (or whose connection resets — a kill -9 does both) is
// declared dead, OnPeerDown fires, and every subsequent operation towards
// it fails with transport.PeerDeadError, which the rma runtime maps onto
// its fail-stop TargetFailedError.
//
// The dialing side is a seam: Config.Dialer (a transport.Dialer)
// substitutes any net.Conn factory for the TCP socket, which is how the
// shm transport speaks this exact protocol over shared-memory rings and
// how the flaky package injects connection-level faults.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Frame types of the RMA wire protocol.
const (
	tHello  byte = 0x10
	tFlush  byte = 0x11
	tCAS    byte = 0x12
	tFAO    byte = 0x13
	tGetAcc byte = 0x14
	tLock   byte = 0x15
	tUnlock byte = 0x16
)

// Config describes one rank's tcp transport.
type Config struct {
	// Self is this rank's id.
	Self int
	// N is the world size; peer ranks are 0..N-1.
	N int
	// Listener accepts inbound peer connections. Alternatively set Listen
	// to an address ("127.0.0.1:0") and New binds it.
	Listener net.Listener
	Listen   string
	// Peers maps rank -> dial address for every other rank. The address
	// syntax belongs to the Dialer (host:port for the default TCP dialer).
	Peers map[int]string
	// Dialer establishes peer connections from the Peers addresses; nil
	// means transport.NetDialer (a TCP socket per peer, DialTimeout
	// bounded). The shm transport plugs its ring-pair dialer in here, and
	// the flaky package wraps any Dialer with fault injection — one
	// constructor, three media.
	Dialer transport.Dialer
	// Local handles operations that target Self (and is served to remote
	// peers). Typically the world's loopback over its window endpoints.
	Local transport.Handler
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
	// HeartbeatInterval is the liveness beacon period. Default 500ms;
	// negative disables heartbeats (and the read deadline).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many intervals of silence declare a peer dead.
	// Default 4.
	HeartbeatMiss int
	// OnPeerDown is called (once per rank, from a connection goroutine)
	// when a peer is declared dead.
	OnPeerDown func(rank int)
	// Metrics optionally mirrors the transport's activity into a per-rank
	// registry under tcp.* names (docs/OBSERVABILITY.md): flush latency,
	// atomic round trips, lease near misses. nil disables; the
	// instrumentation itself is alloc-free either way.
	Metrics *obs.Registry
	// Flight optionally records frame-level flight events. nil (or a
	// disabled recorder) costs one pointer check per flush.
	Flight *obs.Recorder
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatMiss == 0 {
		c.HeartbeatMiss = 4
	}
	return c
}

// Validate rejects nonsensical configurations with descriptive errors.
// Zero-valued tuning knobs mean "default" and pass.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.N < 1 {
		return fmt.Errorf("tcp: world size %d, need at least one rank", c.N)
	}
	if c.Self < 0 || c.Self >= c.N {
		return fmt.Errorf("tcp: self rank %d outside world of %d ranks", c.Self, c.N)
	}
	if c.Listener == nil && c.Listen == "" {
		return errors.New("tcp: need a Listener or a Listen address for inbound peer connections")
	}
	if c.Listener == nil {
		if _, _, err := net.SplitHostPort(c.Listen); err != nil {
			return fmt.Errorf("tcp: listen address %q: %v", c.Listen, err)
		}
	}
	if c.Local == nil {
		return errors.New("tcp: need a Local handler for operations targeting this rank")
	}
	if c.DialTimeout < 0 {
		return fmt.Errorf("tcp: negative dial timeout %v", c.DialTimeout)
	}
	if c.HeartbeatMiss < 0 {
		return fmt.Errorf("tcp: negative heartbeat miss count %d", c.HeartbeatMiss)
	}
	for r, addr := range c.Peers {
		if r < 0 || r >= c.N {
			return fmt.Errorf("tcp: peer rank %d outside world of %d ranks", r, c.N)
		}
		if c.Dialer == nil {
			if _, _, err := net.SplitHostPort(addr); err != nil {
				return fmt.Errorf("tcp: peer %d address %q: %v", r, addr, err)
			}
		}
	}
	return nil
}

// Peer is one rank's tcp transport: a server for its own window, dialed
// connections to its peers.
type Peer struct {
	cfg Config
	ln  net.Listener
	m   *peerMetrics
	fr  *obs.Recorder

	mu      sync.Mutex
	conns   map[int]*wire.Conn // outbound, by target rank
	inbound map[*wire.Conn]struct{}
	dead    map[int]bool
	closed  bool
}

// peerMetrics holds the transport's pre-resolved instruments so the hot
// paths pay a plain atomic add, never a name lookup.
type peerMetrics struct {
	flushes   *obs.Counter   // tcp.flush.calls
	flushOps  *obs.Counter   // tcp.flush.ops
	flushUs   *obs.Histogram // tcp.flush.us
	served    *obs.Counter   // tcp.flush.served
	atomicRtt *obs.Histogram // tcp.atomic.rtt.us
	nearMiss  *obs.Counter   // tcp.lease.close_calls
}

func newPeerMetrics(r *obs.Registry) *peerMetrics {
	if r == nil {
		return nil
	}
	return &peerMetrics{
		flushes:   r.Counter("tcp.flush.calls"),
		flushOps:  r.Counter("tcp.flush.ops"),
		flushUs:   r.Histogram("tcp.flush.us"),
		served:    r.Counter("tcp.flush.served"),
		atomicRtt: r.Histogram("tcp.atomic.rtt.us"),
		nearMiss:  r.Counter("tcp.lease.close_calls"),
	}
}

var _ transport.Transport = (*Peer)(nil)

// New validates cfg, binds the listener if needed, and starts accepting.
func New(cfg Config) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Peer{cfg: cfg, ln: cfg.Listener, m: newPeerMetrics(cfg.Metrics), fr: cfg.Flight, conns: make(map[int]*wire.Conn), inbound: make(map[*wire.Conn]struct{}), dead: make(map[int]bool)}
	if p.ln == nil {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Listen, err)
		}
		p.ln = ln
	}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the bound listen address (for :0 listeners).
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// Close shuts the listener and every connection down.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]*wire.Conn, 0, len(p.conns)+len(p.inbound))
	for _, c := range p.conns {
		conns = append(conns, c)
	}
	for c := range p.inbound {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// InboundCount reports the accepted connections currently tracked — a
// test hook for the churn regression: a connection whose peer died or
// reconnected must be pruned from the set, not accumulated for the
// lifetime of the process.
func (p *Peer) InboundCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inbound)
}

func (p *Peer) wireConfig(onDown func(error)) wire.Config {
	cfg := wire.Config{VecHandler: p.serve, OnDown: onDown}
	if p.cfg.HeartbeatInterval > 0 {
		cfg.Heartbeat = p.cfg.HeartbeatInterval
		cfg.ReadTimeout = time.Duration(p.cfg.HeartbeatMiss) * p.cfg.HeartbeatInterval
	}
	if p.m != nil {
		nm := p.m.nearMiss
		fr := p.fr
		cfg.OnNearMiss = func(gap time.Duration) {
			nm.Inc()
			fr.Record(obs.EvLeaseNearMiss, -1, int64(gap/time.Microsecond), int64(cfg.ReadTimeout/time.Microsecond))
		}
	}
	return cfg
}

func (p *Peer) acceptLoop() {
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		// src is learned from the connection's Hello frame; until then the
		// peer is anonymous and its death needs no bookkeeping. The hello
		// rank is wire input: it must name a rank of this world, exactly
		// once per connection — a corrupt frame must not drive declareDead
		// (and so OnPeerDown) with a rank that doesn't exist.
		var src atomic.Int32
		src.Store(-1)
		handler := func(t byte, payload []byte, r wire.Reply) (byte, *wire.Vec, error) {
			if t == tHello {
				d := wire.NewDec(payload)
				r := d.I()
				if d.Failed() || r < 0 || r >= p.cfg.N {
					return 0, nil, transport.RemoteError{Msg: "malformed hello"}
				}
				if !src.CompareAndSwap(-1, int32(r)) {
					return 0, nil, transport.RemoteError{Msg: "duplicate hello"}
				}
				return tHello, nil, nil
			}
			return p.serve(t, payload, r)
		}
		// The conn's death both declares the peer dead and prunes the conn
		// from the inbound set. wire.New starts the reader immediately, so
		// OnDown can fire before the conn is registered below — the slot
		// records the early death and registration then skips the set.
		slot := &struct {
			c    *wire.Conn
			dead bool
		}{}
		cfg := p.wireConfig(nil)
		cfg.VecHandler = handler
		cfg.OnDown = func(error) {
			if s := src.Load(); s >= 0 {
				p.declareDead(int(s))
			}
			p.mu.Lock()
			if slot.c != nil {
				delete(p.inbound, slot.c)
			} else {
				slot.dead = true
			}
			p.mu.Unlock()
		}
		wc := wire.New(nc, cfg)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			wc.Close()
			continue
		}
		slot.c = wc
		if !slot.dead {
			p.inbound[wc] = struct{}{}
		}
		p.mu.Unlock()
	}
}

func (p *Peer) declareDead(rank int) {
	if rank == p.cfg.Self {
		return
	}
	p.mu.Lock()
	already := p.dead[rank]
	p.dead[rank] = true
	closed := p.closed
	p.mu.Unlock()
	if !already && !closed && p.cfg.OnPeerDown != nil {
		p.cfg.OnPeerDown(rank)
	}
}

// conn returns (dialing lazily) the outbound connection to target.
func (p *Peer) conn(target int) (*wire.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, transport.PeerDeadError{Rank: target}
	}
	if p.dead[target] {
		p.mu.Unlock()
		return nil, transport.PeerDeadError{Rank: target}
	}
	if c := p.conns[target]; c != nil {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	addr, ok := p.cfg.Peers[target]
	if !ok {
		return nil, fmt.Errorf("tcp: no address for peer rank %d", target)
	}
	dialer := p.cfg.Dialer
	if dialer == nil {
		dialer = transport.NetDialer{Timeout: p.cfg.DialTimeout}
	}
	nc, err := dialer.Dial(addr)
	if err != nil {
		p.declareDead(target)
		return nil, transport.PeerDeadError{Rank: target}
	}
	c := wire.New(nc, p.wireConfig(func(error) { p.declareDead(target) }))
	var e wire.Enc
	e.I(p.cfg.Self)
	if _, err := c.Call(tHello, e.Bytes()); err != nil {
		c.Close()
		p.declareDead(target)
		return nil, transport.PeerDeadError{Rank: target}
	}
	p.mu.Lock()
	if prev := p.conns[target]; prev != nil {
		p.mu.Unlock()
		c.Close()
		return prev, nil
	}
	p.conns[target] = c
	p.mu.Unlock()
	return c, nil
}

// FramesTo returns the number of data frames sent so far on the outbound
// connection to target (0 if never dialed). The conformance suite asserts
// one flush frame per epoch close with it.
func (p *Peer) FramesTo(target int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.conns[target]; c != nil {
		return c.Sent()
	}
	return 0
}

// callVec performs one vectored request/response towards target, mapping
// wire-level failures onto transport errors. v is consumed.
func (p *Peer) callVec(target int, t byte, v *wire.Vec) ([]byte, error) {
	c, err := p.conn(target)
	if err != nil {
		v.Release()
		return nil, err
	}
	reply, err := c.CallVec(t, v)
	if err == nil {
		return reply, nil
	}
	return nil, p.callErr(target, err)
}

func (p *Peer) callErr(target int, err error) error {
	var rf wire.RemoteFail
	if errors.As(err, &rf) {
		if rf.Code == wire.CodePeerDead {
			return transport.PeerDeadError{Rank: rf.Rank}
		}
		return transport.RemoteError{Msg: rf.Msg}
	}
	if errors.Is(err, wire.ErrDown) {
		p.declareDead(target)
		return transport.PeerDeadError{Rank: target}
	}
	return err
}

// ---- Transport (client side) ------------------------------------------------

// Flush frames the epoch's whole batch as one vectored message — put
// payloads alias the caller's buffers until the write completes — sends
// it, and decodes the reply's get data into the ops' destination buffers.
func (p *Peer) Flush(src, target int, ops []transport.Op) error {
	if target == p.cfg.Self {
		return p.cfg.Local.Flush(src, target, ops)
	}
	var t0 time.Time
	if p.m != nil {
		t0 = time.Now()
	}
	p.fr.Record(obs.EvFrameSend, int64(tFlush), int64(target), int64(len(ops)))
	v := wire.NewVec()
	v.I(src)
	v.I(target)
	encodeOpsVec(v, ops)
	reply, err := p.callVec(target, tFlush, v)
	if err != nil {
		return err
	}
	if p.m != nil {
		p.m.flushes.Inc()
		p.m.flushOps.Add(uint64(len(ops)))
		p.m.flushUs.ObserveSince(t0)
	}
	d := wire.NewDec(reply)
	for i := range ops {
		if ops[i].Kind != transport.KindGet {
			continue
		}
		if !d.WordsInto(ops[i].Dest) {
			return transport.RemoteError{Msg: "malformed flush reply"}
		}
	}
	wire.Recycle(reply)
	return nil
}

func (p *Peer) CompareAndSwap(src, target, off int, old, new uint64) (uint64, error) {
	if target == p.cfg.Self {
		return p.cfg.Local.CompareAndSwap(src, target, off, old, new)
	}
	var t0 time.Time
	if p.m != nil {
		t0 = time.Now()
	}
	v := wire.NewVec()
	v.I(src)
	v.I(target)
	v.I(off)
	v.W64(old)
	v.W64(new)
	reply, err := p.callVec(target, tCAS, v)
	if err != nil {
		return 0, err
	}
	if p.m != nil {
		p.m.atomicRtt.ObserveSince(t0)
	}
	prev := wire.NewDec(reply).W64()
	wire.Recycle(reply)
	return prev, nil
}

func (p *Peer) FetchAndOp(src, target, off int, operand uint64, red uint8) (uint64, error) {
	if target == p.cfg.Self {
		return p.cfg.Local.FetchAndOp(src, target, off, operand, red)
	}
	var t0 time.Time
	if p.m != nil {
		t0 = time.Now()
	}
	v := wire.NewVec()
	v.I(src)
	v.I(target)
	v.I(off)
	v.W64(operand)
	v.B(red)
	reply, err := p.callVec(target, tFAO, v)
	if err != nil {
		return 0, err
	}
	if p.m != nil {
		p.m.atomicRtt.ObserveSince(t0)
	}
	prev := wire.NewDec(reply).W64()
	wire.Recycle(reply)
	return prev, nil
}

func (p *Peer) GetAccumulate(src, target, off int, data []uint64, red uint8) ([]uint64, error) {
	if target == p.cfg.Self {
		return p.cfg.Local.GetAccumulate(src, target, off, data, red)
	}
	v := wire.NewVec()
	v.I(src)
	v.I(target)
	v.I(off)
	v.B(red)
	v.Words(data)
	reply, err := p.callVec(target, tGetAcc, v)
	if err != nil {
		return nil, err
	}
	prev := make([]uint64, len(data))
	if !wire.NewDec(reply).WordsInto(prev) {
		return nil, transport.RemoteError{Msg: "malformed get-accumulate reply"}
	}
	wire.Recycle(reply)
	return prev, nil
}

func (p *Peer) Lock(src, target, str int, now, latency float64) (float64, error) {
	if target == p.cfg.Self {
		return p.cfg.Local.Lock(src, target, str, now, latency)
	}
	v := wire.NewVec()
	v.I(src)
	v.I(target)
	v.I(str)
	v.F(now)
	v.F(latency)
	reply, err := p.callVec(target, tLock, v)
	if err != nil {
		return 0, err
	}
	after := wire.NewDec(reply).F()
	wire.Recycle(reply)
	return after, nil
}

func (p *Peer) Unlock(src, target, str int, now, latency float64) error {
	if target == p.cfg.Self {
		return p.cfg.Local.Unlock(src, target, str, now, latency)
	}
	v := wire.NewVec()
	v.I(src)
	v.I(target)
	v.I(str)
	v.F(now)
	v.F(latency)
	_, err := p.callVec(target, tUnlock, v)
	return err
}

// ---- Server side ------------------------------------------------------------

// flushScratch is the pooled per-flush decode state: the op slice, plus
// one backing buffer for get destinations and unaligned put fallbacks.
// The reply frame gathers from the buffer, so the scratch returns to its
// pool only once the reply is written (the Vec's OnRelease hook).
type flushScratch struct {
	ops []transport.Op
	buf []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

func putScratch(s *flushScratch) {
	for i := range s.ops {
		s.ops[i] = transport.Op{} // drop frame-buffer aliases
	}
	s.ops = s.ops[:0]
	scratchPool.Put(s)
}

// serve handles one incoming request frame against the local handler.
func (p *Peer) serve(t byte, payload []byte, _ wire.Reply) (byte, *wire.Vec, error) {
	d := wire.NewDec(payload)
	switch t {
	case tFlush:
		src, target := d.I(), d.I()
		s := scratchPool.Get().(*flushScratch)
		ops, err := decodeOps(d, s)
		if err != nil {
			putScratch(s)
			return 0, nil, err
		}
		if p.m != nil {
			p.m.served.Inc()
		}
		p.fr.Record(obs.EvFrameRecv, int64(tFlush), int64(src), int64(len(ops)))
		if err := p.cfg.Local.Flush(src, target, ops); err != nil {
			putScratch(s)
			return 0, nil, failOf(err)
		}
		v := wire.NewVec()
		for i := range ops {
			if ops[i].Kind == transport.KindGet {
				v.Words(ops[i].Dest)
			}
		}
		v.OnRelease(func() { putScratch(s) })
		return t, v, nil
	case tCAS:
		src, target, off := d.I(), d.I(), d.I()
		old, new := d.W64(), d.W64()
		if d.Failed() {
			return 0, nil, transport.RemoteError{Msg: "malformed cas"}
		}
		prev, err := p.cfg.Local.CompareAndSwap(src, target, off, old, new)
		if err != nil {
			return 0, nil, failOf(err)
		}
		v := wire.NewVec()
		v.W64(prev)
		return t, v, nil
	case tFAO:
		src, target, off := d.I(), d.I(), d.I()
		operand, red := d.W64(), d.B()
		if d.Failed() || !transport.ValidRed(red) {
			return 0, nil, transport.RemoteError{Msg: "malformed fetch-and-op"}
		}
		prev, err := p.cfg.Local.FetchAndOp(src, target, off, operand, red)
		if err != nil {
			return 0, nil, failOf(err)
		}
		v := wire.NewVec()
		v.W64(prev)
		return t, v, nil
	case tGetAcc:
		src, target, off := d.I(), d.I(), d.I()
		red := d.B()
		data := d.Words()
		if d.Failed() || !transport.ValidRed(red) {
			return 0, nil, transport.RemoteError{Msg: "malformed get-accumulate"}
		}
		prev, err := p.cfg.Local.GetAccumulate(src, target, off, data, red)
		if err != nil {
			return 0, nil, failOf(err)
		}
		v := wire.NewVec()
		v.Words(prev)
		return t, v, nil
	case tLock:
		src, target, str := d.I(), d.I(), d.I()
		now, latency := d.F(), d.F()
		if d.Failed() {
			return 0, nil, transport.RemoteError{Msg: "malformed lock"}
		}
		after, err := p.cfg.Local.Lock(src, target, str, now, latency)
		if err != nil {
			return 0, nil, failOf(err)
		}
		v := wire.NewVec()
		v.F(after)
		return t, v, nil
	case tUnlock:
		src, target, str := d.I(), d.I(), d.I()
		now, latency := d.F(), d.F()
		if d.Failed() {
			return 0, nil, transport.RemoteError{Msg: "malformed unlock"}
		}
		if err := p.cfg.Local.Unlock(src, target, str, now, latency); err != nil {
			return 0, nil, failOf(err)
		}
		return t, nil, nil
	}
	return 0, nil, transport.RemoteError{Msg: fmt.Sprintf("unknown frame type %#x", t)}
}

// failOf maps a local handler error onto a wire error reply.
func failOf(err error) error {
	if pd, ok := err.(transport.PeerDeadError); ok {
		return wire.RemoteFail{Code: wire.CodePeerDead, Rank: pd.Rank, Msg: pd.Error()}
	}
	return err
}

// encodeOpsVec frames one epoch batch: kind, reduce op, offset, and for
// puts/accumulates the payload words — gathered by reference, not copied;
// gets carry only offset and length.
func encodeOpsVec(v *wire.Vec, ops []transport.Op) {
	v.I(len(ops))
	for i := range ops {
		op := &ops[i]
		v.B(op.Kind)
		switch op.Kind {
		case transport.KindGet:
			v.I(op.Off)
			v.I(len(op.Dest))
		default:
			v.B(op.Red)
			v.I(op.Off)
			v.Words(op.Data)
		}
	}
}

// encodeOps is the staging-copy equivalent of encodeOpsVec. The wire
// production is identical; fuzz and regression tests build adversarial
// baselines with it.
func encodeOps(e *wire.Enc, ops []transport.Op) {
	e.I(len(ops))
	for i := range ops {
		op := &ops[i]
		e.B(op.Kind)
		switch op.Kind {
		case transport.KindGet:
			e.I(op.Off)
			e.I(len(op.Dest))
		default:
			e.B(op.Red)
			e.I(op.Off)
			e.Words(op.Data)
		}
	}
}

// decodeOps is the server-side inverse, in two word-aligned passes over
// the frame: the first validates every op header and sums the payload and
// destination volumes (no allocation driven by unvalidated wire counts),
// the second hands out WordsView aliases of the frame buffer for put
// payloads (scatter: the window copies them under its lock) and carves
// get destinations out of the scratch buffer the reply will gather from.
// Steady state this allocates nothing — the scratch is pooled.
//
// Trailing bytes after a complete batch are rejected: a frame is exactly
// one batch, and silently ignoring a tail would let a corrupt (or
// desynchronized) peer go undetected until its next frame.
func decodeOps(d *wire.Dec, s *flushScratch) ([]transport.Op, error) {
	n := d.I()
	if d.Failed() || n > wire.MaxFrame/8 {
		return nil, transport.RemoteError{Msg: "malformed op batch"}
	}
	// Pass 1: walk a value copy of the decoder to validate and size.
	scan := *d
	totalWords, getWords := 0, 0
	for i := 0; i < n; i++ {
		kind := scan.B()
		switch kind {
		case transport.KindGet:
			scan.I()
			ln := scan.I()
			getWords += ln
			totalWords += ln
			// Get destinations are allocated before the reply proves the
			// peer honest, so the batch's total get volume is bounded by
			// what a single reply frame could legally carry.
			if scan.Failed() || ln > wire.MaxFrame/8 || getWords > wire.MaxFrame/8 {
				return nil, transport.RemoteError{Msg: "malformed get op"}
			}
		case transport.KindPut, transport.KindAcc:
			red := scan.B()
			scan.I()
			totalWords += scan.SkipWords()
			if scan.Failed() || !transport.ValidRed(red) {
				return nil, transport.RemoteError{Msg: "malformed put op"}
			}
		default:
			return nil, transport.RemoteError{Msg: fmt.Sprintf("unknown op kind %d", kind)}
		}
	}
	if scan.Rem() != 0 {
		return nil, transport.RemoteError{Msg: "trailing bytes after op batch"}
	}
	// Pass 2: get dests carve the scratch; put data views the frame (or
	// falls back into the scratch on an unaligned run).
	if cap(s.buf) < totalWords {
		s.buf = make([]uint64, totalWords)
	}
	buf := s.buf[:totalWords]
	if cap(s.ops) < n {
		s.ops = make([]transport.Op, 0, n)
	}
	ops := s.ops[:0]
	for i := 0; i < n; i++ {
		kind := d.B()
		switch kind {
		case transport.KindGet:
			off, ln := d.I(), d.I()
			dest := buf[:ln:ln]
			buf = buf[ln:]
			ops = append(ops, transport.Op{Kind: kind, Off: off, Dest: dest})
		default:
			red := d.B()
			off := d.I()
			data := d.WordsView(buf)
			buf = buf[len(data):]
			ops = append(ops, transport.Op{Kind: kind, Red: red, Off: off, Data: data})
		}
	}
	s.ops = ops // before the error check: putScratch clears what was appended
	if d.Failed() {
		return nil, transport.RemoteError{Msg: "malformed op batch payload"}
	}
	return ops, nil
}
