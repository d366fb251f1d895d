package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/transport/wire"
)

// TestClusterTimeoutAbortsWedgedRun pins the watchdog's last line of
// defense. The hang it guards against: a coordinator goroutine holds mu
// while it waits on a live-but-unresponsive worker — the connection stays
// healthy (heartbeats flow, the failure detector never fires), the call
// never completes, and mu never frees. fatal needs mu,
// so without the grace-period fallback the Timeout watchdog would wedge
// right behind the hang it exists to abort. The fallback downs every
// worker connection, which fails the stuck call with ErrDown, unwinds
// the holder, and lets the abort land.
func TestClusterTimeoutAbortsWedgedRun(t *testing.T) {
	wl := Workload{Ranks: 2, Phases: 1, InsertsPerPhase: 1, TableSlots: 64}
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Workload: wl, Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A live-but-unresponsive worker: its handler parks forever, so a
	// call towards it never completes — and never trips the failure
	// detector, because the connection itself stays up.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	park := make(chan struct{})
	defer close(park)
	wire.New(b, wire.Config{Handler: func(byte, []byte) (byte, []byte, error) {
		<-park
		return 0, nil, nil
	}})
	conn := wire.New(a, wire.Config{})
	c.sessMu.Lock()
	c.sessions[0] = &session{c: c, rank: 0, conn: conn}
	c.sessMu.Unlock()

	// Wedge mu behind a call that never completes.
	wedged := make(chan error, 1)
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, err := conn.Call(0x42, nil)
		wedged <- err
	}()

	done := make(chan error, 1)
	go func() {
		_, err := c.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Fatalf("Run: err = %v, want the timeout abort", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not abort: the watchdog could not land past the wedged mutex")
	}
	if err := <-wedged; err == nil {
		t.Fatal("the wedged call completed cleanly; want ErrDown from the watchdog downing the session")
	}
}

// TestReplayFrameWithoutReplayBounces pins the guard on the one frame that
// reads the coordinator's replay records: a replay-phase frame while no
// causal recovery is in flight is bounced with the crisis code, and a
// truncated one is rejected as malformed.
func TestReplayFrameWithoutReplayBounces(t *testing.T) {
	wl := Workload{Ranks: 2, Phases: 1, InsertsPerPhase: 1, TableSlots: 64}
	// No worker ever joins, so a frame that got past the guard would wait
	// for the op pipeline until the timeout aborts the run.
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Workload: wl, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := &session{c: c, rank: 0, pendGets: make(map[int][]hostGet)}
	for _, tc := range []struct {
		name  string
		phase bool
		code  byte
	}{{"no replay in flight", true, wire.CodeCrisis}, {"truncated", false, wire.CodeGeneric}} {
		var e wire.Enc
		e.U(0) // generation
		e.B(replayPhase)
		if tc.phase {
			e.I(0)
		}
		_, _, err := s.handle(cReplay, e.Bytes())
		var rf wire.RemoteFail
		if !errors.As(err, &rf) || rf.Code != tc.code {
			t.Errorf("%s: err = %v, want code %d", tc.name, err, tc.code)
		}
	}
}
