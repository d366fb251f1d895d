package tcp_test

// The flush allocation pin runs on both media of the framed protocol. It
// lives in the external test package because the shm leg needs package
// shm, which imports tcp.

import (
	"net"
	"testing"

	"repro/internal/rma"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/shm"
	"repro/internal/transport/tcp"
)

// tcpPair starts ranks 0 and 1 on localhost sockets, both serving local,
// and returns rank 0's peer.
func tcpPair(t *testing.T, local transport.Handler) *tcp.Peer {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make(map[int]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	peers := make([]*tcp.Peer, 2)
	for r := range peers {
		p, err := tcp.New(tcp.Config{Self: r, N: 2, Listener: lns[r], Peers: addrs, Local: local, HeartbeatInterval: -1})
		if err != nil {
			t.Fatalf("tcp.New: %v", err)
		}
		t.Cleanup(func() { p.Close() })
		peers[r] = p
	}
	return peers[0]
}

// shmPair is tcpPair over one shared-memory fabric's rings.
func shmPair(t *testing.T, local transport.Handler) *tcp.Peer {
	t.Helper()
	fab, err := shm.NewFabric(2, shm.FabricConfig{})
	if err != nil {
		t.Fatalf("shm fabric: %v", err)
	}
	t.Cleanup(func() { fab.Close() }) // after the peers: live conns map its regions
	peers := make([]*tcp.Peer, 2)
	for r := range peers {
		p, err := shm.New(shm.Config{Self: r, N: 2, Fabric: fab, Local: local, HeartbeatInterval: -1})
		if err != nil {
			t.Fatalf("shm.New: %v", err)
		}
		t.Cleanup(func() { p.Close() })
		peers[r] = p.Peer
	}
	return peers[0]
}

// TestFlushAllocsSteadyState pins the zero-copy promise end to end on tcp
// sockets and shm rings: after warm-up, one epoch close (16 puts + 4 gets,
// 10 KiB) — client encode, server scatter, reply gather, client decode —
// stays under a small constant allocation budget. The staging-copy wire
// path this replaced spent 60+ allocations per flush on the same batch.
func TestFlushAllocsSteadyState(t *testing.T) {
	const wordsPerOp = 64
	payload := make([]uint64, wordsPerOp)
	var ops []transport.Op
	for j := 0; j < 16; j++ {
		ops = append(ops, transport.Op{Kind: transport.KindPut, Off: j * wordsPerOp, Data: payload})
	}
	for j := 0; j < 4; j++ {
		ops = append(ops, transport.Op{Kind: transport.KindGet, Off: j * wordsPerOp, Dest: make([]uint64, wordsPerOp)})
	}
	for _, medium := range []struct {
		name string
		pair func(*testing.T, transport.Handler) *tcp.Peer
	}{{"tcp", tcpPair}, {"shm", shmPair}} {
		t.Run(medium.name, func(t *testing.T) {
			w := rma.NewWorld(rma.Config{N: 2, WindowWords: 4096})
			p0 := medium.pair(t, loopback.New(w.EndpointOf))
			flush := func() {
				if err := p0.Flush(0, 1, ops); err != nil {
					t.Fatalf("flush: %v", err)
				}
			}
			for i := 0; i < 100; i++ { // converge every pool
				flush()
			}
			avg := testing.AllocsPerRun(200, flush)
			// The steady-state budget: call bookkeeping (pending channel,
			// serve goroutine, a few interface boxes) but nothing
			// proportional to the batch — 20 ops would already exceed the
			// bound if any per-op copy or decode allocation crept back in.
			if avg > 20 {
				t.Fatalf("flush allocates %.1f/op steady state, want <= 20", avg)
			}
			t.Logf("flush steady state: %.1f allocs/op", avg)
		})
	}
}
