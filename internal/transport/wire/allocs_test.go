package wire_test

// The steady-state allocation pin of a vectored call runs on both media the
// fabric speaks. It lives in the external test package because the shm leg
// needs package shm, which imports wire through tcp.

import (
	"net"
	"testing"

	"repro/internal/transport/shm"
	"repro/internal/transport/wire"
)

// tcpConns returns the two ends of one localhost socket.
func tcpConns(t *testing.T) (dialer, acceptor net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	a := <-accepted
	if a == nil {
		t.Fatal("accept failed")
	}
	return d, a
}

// shmConns returns the two ends of one ring pair of a shared-memory fabric.
func shmConns(t *testing.T) (dialer, acceptor net.Conn) {
	t.Helper()
	fab, err := shm.NewFabric(2, shm.FabricConfig{})
	if err != nil {
		t.Fatalf("shm fabric: %v", err)
	}
	t.Cleanup(func() { fab.Close() }) // after the conns: they map its region
	d, err := fab.Dialer(0).Dial("1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	a, err := fab.Listener(1).Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return d, a
}

// TestCallVecAllocsSteadyState: a steady-state CallVec of a 128 KiB request
// with an empty reply allocates nothing on either medium — the Vec, the
// frame header and chunk list, the request body at the server (a pooled
// body of its size class) and the reply channel are all reused.
func TestCallVecAllocsSteadyState(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts")
	}
	words := make([]uint64, 128<<10/8)
	for _, medium := range []struct {
		name  string
		conns func(*testing.T) (net.Conn, net.Conn)
	}{{"tcp", tcpConns}, {"shm", shmConns}} {
		t.Run(medium.name, func(t *testing.T) {
			d, a := medium.conns(t)
			server := wire.New(a, wire.Config{Handler: func(ty byte, _ []byte) (byte, []byte, error) {
				return ty, nil, nil
			}})
			client := wire.New(d, wire.Config{})
			t.Cleanup(func() {
				client.Close()
				server.Close()
			})
			call := func() {
				v := wire.NewVec()
				v.Words(words)
				reply, err := client.CallVec(0x21, v)
				if err != nil {
					t.Fatal(err)
				}
				wire.Recycle(reply)
			}
			for i := 0; i < 20; i++ {
				call()
			}
			if avg := testing.AllocsPerRun(200, call); avg != 0 {
				t.Fatalf("a steady-state 128 KiB CallVec allocates %.1f times, want 0", avg)
			}
		})
	}
}
