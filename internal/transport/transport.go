// Package transport is the delivery seam of the RMA runtime: the interface
// between a rank's communication engine (package rma buffers puts, gets and
// accumulates per target and releases them when the epoch towards that
// target closes) and the mechanism that moves those accesses into the
// target's window.
//
// The package defines three contracts:
//
//   - Endpoint is the target side: one rank's exposed window. It applies
//     puts/accumulates, serves reads, and executes the blocking atomics and
//     structure locks, all atomically with respect to each other.
//   - Handler is the source side of the wire: "deliver this epoch's batch
//     to target", plus the blocking request/response operations. Flush
//     receives the entire buffered epoch towards one target at once —
//     implementations are expected to move it as a single unit (the
//     loopback applies it in one critical pass, the tcp transport frames
//     it as one flush message), so closing an epoch costs one round trip
//     no matter how many accesses it carries.
//   - Transport is a closable Handler; rma.World plugs one in per rank.
//
// Implementations live in the subpackages: loopback (direct window access,
// the semantics the in-process World always had), tcp (a length-prefixed
// binary wire protocol between OS processes), and flaky (a fault-injecting
// wrapper for tests). The cluster subpackage builds a process-per-rank
// runtime on top of the same wire format.
//
// # Invariants
//
//   - One frame per epoch close: closing an epoch towards a target is
//     exactly one Flush call, and on the tcp and shm transports exactly
//     one framed flush message (and one reply) however many accesses the
//     epoch buffered. TestTCPFlushIsOneFrame asserts it on both.
//   - Observational equivalence: the conformance suite runs one scenario
//     table (intra-epoch ordering, epoch visibility, atomics, locks,
//     kill-mid-epoch) against every transport and demands bit-identical
//     window outcomes.
//   - Fail-stop surfacing: transports report an unreachable or condemned
//     peer as PeerDeadError, which package rma maps onto its fail-stop
//     TargetFailedError; failure detection is heartbeat + read-deadline
//     based (see the wire subpackage's rules, normative in docs/WIRE.md).
package transport

import (
	"fmt"
	"net"
	"time"
)

// Reduce-op codes carried on the wire. They mirror rma.ReduceOp value for
// value (package rma compile-checks the correspondence); transport cannot
// import rma, as rma imports transport.
const (
	RedReplace uint8 = iota
	RedSum
	RedMax
	RedMin
	RedXor
	numRed
)

// ValidRed reports whether a wire reduce-op code is in range (decoders
// reject frames with out-of-range codes instead of panicking later).
func ValidRed(r uint8) bool { return r < numRed }

// Op kinds of a flush batch.
const (
	// KindPut replaces target words at Off with Data.
	KindPut uint8 = iota
	// KindAcc combines Data into the target words at Off with Red.
	KindAcc
	// KindGet reads len(Dest) words from Off into Dest.
	KindGet
	numKinds
)

// Op is one buffered access of an epoch. Puts and accumulates carry their
// payload in Data; gets carry their destination buffer in Dest, which the
// transport fills before Flush returns (the caller handed out that buffer
// at issue time with "contents defined when the epoch closes" semantics).
type Op struct {
	Kind uint8
	Red  uint8 // reduce op for KindAcc
	Off  int   // target window word offset
	Data []uint64
	Dest []uint64
}

// Words returns the payload size of the op in 64-bit words.
func (o Op) Words() int {
	if o.Kind == KindGet {
		return len(o.Dest)
	}
	return len(o.Data)
}

// PeerDeadError reports that the target rank's process is unreachable or
// has been declared failed by the failure detector. Package rma maps it to
// its fail-stop TargetFailedError.
type PeerDeadError struct{ Rank int }

func (e PeerDeadError) Error() string {
	return fmt.Sprintf("transport: peer rank %d is dead", e.Rank)
}

// RemoteError carries a failure reported by the remote side of the wire
// (usage errors such as out-of-window accesses or mismatched unlocks that
// would panic in-process).
type RemoteError struct{ Msg string }

func (e RemoteError) Error() string { return "transport: remote: " + e.Msg }

// Endpoint is one rank's window as seen by a transport: the apply/read/
// atomic surface the delivery path needs, nothing more. rma adapts its
// windows to this interface; every method is atomic with respect to the
// others (the window lock).
//
// Lock and Unlock carry the virtual-time cost model of the runtime's
// structure locks: now is the requester's virtual clock, latency the
// modeled one-way lock-traffic latency, and Lock's return value is the
// requester's virtual time after acquisition. Transports forward these
// numbers opaquely.
type Endpoint interface {
	ApplyPut(off int, data []uint64)
	ApplyAccumulate(off int, data []uint64, red uint8)
	ReadInto(off int, dst []uint64)
	CompareAndSwap(off int, old, new uint64) uint64
	FetchAndOp(off int, operand uint64, red uint8) uint64
	GetAccumulate(off int, data []uint64, red uint8) []uint64
	Lock(str, src int, now, latency float64) float64
	Unlock(str, src int, now, latency float64)
}

// Handler is the source-side delivery contract. src identifies the calling
// rank, target the rank whose window is addressed. Every method is
// synchronous: when Flush returns, all puts are applied and all get
// destinations are filled.
type Handler interface {
	// Flush delivers one epoch's buffered accesses towards target as a
	// single unit, in order.
	Flush(src, target int, ops []Op) error
	CompareAndSwap(src, target, off int, old, new uint64) (uint64, error)
	FetchAndOp(src, target, off int, operand uint64, red uint8) (uint64, error)
	GetAccumulate(src, target, off int, data []uint64, red uint8) ([]uint64, error)
	Lock(src, target, str int, now, latency float64) (float64, error)
	Unlock(src, target, str int, now, latency float64) error
}

// Transport is a closable Handler — what rma.World owns per rank.
type Transport interface {
	Handler
	Close() error
}

// Dialer abstracts connection establishment between nodes: given an
// address, it opens a byte stream that the framed wire protocol is spoken
// over. The address syntax is dialer-specific — "host:port" for the TCP
// dialer, a ring id for the shared-memory fabric's dialer — which is what
// lets one constructor serve every medium: the tcp transport dials its
// peers through a Dialer, the shm transport plugs in a ring-pair Dialer,
// the flaky package wraps any Dialer with fault injection, and the
// symmetric fabric runtime dials the addresses its membership table
// gossips, never caring which medium carries the frames.
//
// Implementations must be safe for concurrent use.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(addr string) (net.Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(addr string) (net.Conn, error) { return f(addr) }

// NetDialer is the production Dialer: a TCP socket per address, with a
// bounded connect. The zero value uses a 5s timeout.
type NetDialer struct {
	// Timeout bounds connection establishment; 0 means 5s.
	Timeout time.Duration
}

// Dial implements Dialer over net.DialTimeout.
func (d NetDialer) Dial(addr string) (net.Conn, error) {
	to := d.Timeout
	if to == 0 {
		to = 5 * time.Second
	}
	return net.DialTimeout("tcp", addr, to)
}
