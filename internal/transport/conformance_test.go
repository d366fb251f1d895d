package transport_test

// The transport conformance suite: one table of semantic scenarios —
// intra-epoch ordering, epoch visibility, blocking atomics, structure
// locks, kill-mid-epoch — executed against every transport implementation
// (loopback, tcp over real localhost sockets, shm over mmap'd rings, and
// the fault-injecting flaky wrapper), asserting that each produces
// bit-identical final state. The loopback is the reference; the others
// must match it exactly.

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/rma"
	"repro/internal/transport"
	"repro/internal/transport/flaky"
	"repro/internal/transport/loopback"
	"repro/internal/transport/shm"
	"repro/internal/transport/tcp"
)

const confWords = 256

// worldFactory builds a world of n ranks over one transport flavor.
type worldFactory struct {
	name string
	make func(t *testing.T, n int) *rma.World
}

func loopbackWorld(t *testing.T, n int) *rma.World {
	w := rma.NewWorld(rma.Config{N: n, WindowWords: confWords})
	t.Cleanup(w.Close)
	return w
}

// tcpWorld runs every rank of the world behind its own tcp peer on
// localhost: windows are only ever reached through real sockets (except a
// rank's own window, which short-circuits like any RMA runtime).
func tcpWorld(t *testing.T, n int) *rma.World {
	_, factory := tcpFactory(t, n)
	w := rma.NewWorld(rma.Config{N: n, WindowWords: confWords, Transport: factory})
	t.Cleanup(w.Close)
	return w
}

// tcpFactory pre-binds one listener per rank (so every peer knows every
// address before the world exists) and returns the per-rank transport
// factory plus the created peers.
func tcpFactory(t *testing.T, n int) ([]*tcp.Peer, rma.TransportFactory) {
	t.Helper()
	lns, addrs := bindListeners(t, n)
	peers := make([]*tcp.Peer, n)
	factory := func(rank, worldN int, endpoint func(int) transport.Endpoint) (transport.Transport, error) {
		p, err := tcp.New(tcp.Config{
			Self:              rank,
			N:                 worldN,
			Listener:          lns[rank],
			Peers:             addrs,
			Local:             loopback.New(endpoint),
			HeartbeatInterval: -1, // liveness handled by the test, not timers
		})
		if err != nil {
			return nil, err
		}
		peers[rank] = p
		return p, nil
	}
	return peers, factory
}

// shmWorld runs every rank over the shared-memory transport: one fabric
// for the world, each window only ever reached through mmap'd rings
// (except a rank's own, which short-circuits like any RMA runtime).
func shmWorld(t *testing.T, n int) *rma.World {
	_, factory := shmFactory(t, n)
	w := rma.NewWorld(rma.Config{N: n, WindowWords: confWords, Transport: factory})
	t.Cleanup(w.Close)
	return w
}

// shmFactory builds the world's fabric (cleaned up after the world: live
// conns hold views into its mappings) and the per-rank factory. The peers
// it returns are the tcp protocol peers the shm peers embed.
func shmFactory(t *testing.T, n int) ([]*tcp.Peer, rma.TransportFactory) {
	t.Helper()
	fab, err := shm.NewFabric(n, shm.FabricConfig{})
	if err != nil {
		t.Fatalf("shm fabric: %v", err)
	}
	t.Cleanup(func() { fab.Close() })
	peers := make([]*tcp.Peer, n)
	factory := func(rank, worldN int, endpoint func(int) transport.Endpoint) (transport.Transport, error) {
		p, err := shm.New(shm.Config{
			Self:              rank,
			N:                 worldN,
			Fabric:            fab,
			Local:             loopback.New(endpoint),
			HeartbeatInterval: -1, // liveness handled by the test, not timers
		})
		if err != nil {
			return nil, err
		}
		peers[rank] = p.Peer
		return p, nil
	}
	return peers, factory
}

func flakyWorld(t *testing.T, n int) *rma.World {
	factory := func(rank, worldN int, endpoint func(int) transport.Endpoint) (transport.Transport, error) {
		return flaky.New(loopback.New(endpoint), flaky.Config{
			Seed:     int64(rank) + 42,
			MaxDelay: 200 * time.Microsecond,
			Reorder:  true,
		}), nil
	}
	w := rma.NewWorld(rma.Config{N: n, WindowWords: confWords, Transport: factory})
	t.Cleanup(w.Close)
	return w
}

var factories = []worldFactory{
	{"loopback", loopbackWorld},
	{"tcp", tcpWorld},
	{"shm", shmWorld},
	{"flaky", flakyWorld},
}

// scenario is one conformance case: run returns deterministic observations
// (beyond the final windows) to compare across transports.
type scenario struct {
	name  string
	ranks int
	run   func(t *testing.T, w *rma.World) []uint64
}

var scenarios = []scenario{
	{
		// Same-offset accesses within one epoch apply in issue order: the
		// epoch's batch is ordered, whatever moves it.
		name:  "ordering-within-epoch",
		ranks: 2,
		run: func(t *testing.T, w *rma.World) []uint64 {
			p := w.Proc(0)
			p.Put(1, 0, []uint64{1, 1, 1, 1})
			p.Accumulate(1, 0, []uint64{10, 10, 10, 10}, rma.OpSum)
			p.Put(1, 2, []uint64{5})
			p.Accumulate(1, 3, []uint64{100}, rma.OpMax)
			p.Flush(1)
			return nil
		},
	},
	{
		// Puts become visible at the target only when the epoch closes.
		name:  "epoch-visibility",
		ranks: 2,
		run: func(t *testing.T, w *rma.World) []uint64 {
			obs := make([]uint64, 2)
			w.Run(func(r int) {
				p := w.Proc(r)
				if r == 0 {
					p.Put(1, 7, []uint64{99})
				}
				p.Barrier() // no memory effects: the put stays buffered
				if r == 1 {
					obs[0] = p.ReadAt(7, 1)[0] // must still be zero
				}
				p.Barrier()
				if r == 0 {
					p.Flush(1)
				}
				p.Barrier()
				if r == 1 {
					obs[1] = p.ReadAt(7, 1)[0] // now visible
				}
			})
			if obs[0] != 0 {
				t.Fatalf("put visible before epoch close: %d", obs[0])
			}
			if obs[1] != 99 {
				t.Fatalf("put not visible after epoch close: %d", obs[1])
			}
			return obs
		},
	},
	{
		// A get's destination is defined only after the epoch closes; a
		// GetCopy additionally lands in the local window.
		name:  "get-fill-and-getcopy-landing",
		ranks: 2,
		run: func(t *testing.T, w *rma.World) []uint64 {
			w.Proc(1).WriteAt(3, []uint64{41, 42, 43})
			p := w.Proc(0)
			dest := p.Get(1, 3, 3)
			cp := p.GetCopy(1, 4, 2, 10)
			if dest[0] != 0 || cp[0] != 0 {
				t.Fatalf("get destination defined before epoch close")
			}
			p.Flush(1)
			if dest[0] != 41 || dest[2] != 43 {
				t.Fatalf("get filled wrong: %v", dest)
			}
			if cp[0] != 42 || cp[1] != 43 {
				t.Fatalf("getcopy filled wrong: %v", cp)
			}
			if got := p.ReadAt(10, 2); got[0] != 42 || got[1] != 43 {
				t.Fatalf("getcopy did not land in window: %v", got)
			}
			return append(dest, cp...)
		},
	},
	{
		// Blocking atomics: CAS hit and miss, FAO, GetAccumulate previous
		// contents — sequential, so the returned values are deterministic.
		name:  "atomics-sequential",
		ranks: 2,
		run: func(t *testing.T, w *rma.World) []uint64 {
			p := w.Proc(0)
			var obs []uint64
			obs = append(obs, p.CompareAndSwap(1, 0, 0, 7))                       // hit: 0
			obs = append(obs, p.CompareAndSwap(1, 0, 0, 9))                       // miss: 7
			obs = append(obs, p.FetchAndOp(1, 0, 5, rma.OpSum))                   // 7
			obs = append(obs, p.GetAccumulate(1, 0, []uint64{100}, rma.OpMax)...) // 12
			if obs[0] != 0 || obs[1] != 7 || obs[2] != 7 || obs[3] != 12 {
				t.Fatalf("atomic results wrong: %v", obs)
			}
			return obs
		},
	},
	{
		// Concurrent commutative atomics from every rank sum correctly.
		name:  "atomics-concurrent-sum",
		ranks: 4,
		run: func(t *testing.T, w *rma.World) []uint64 {
			w.Run(func(r int) {
				p := w.Proc(r)
				for i := 0; i < 20; i++ {
					p.FetchAndOp(0, 5, uint64(r+1), rma.OpSum)
				}
				p.Barrier()
			})
			want := uint64(20 * (1 + 2 + 3 + 4))
			if got := w.Proc(0).ReadAt(5, 1)[0]; got != want {
				t.Fatalf("concurrent FAO sum = %d, want %d", got, want)
			}
			return nil
		},
	},
	{
		// Structure locks exclude each other across the transport: a
		// read-modify-write under Lock/Unlock never loses an update.
		name:  "lock-unlock-exclusion",
		ranks: 4,
		run: func(t *testing.T, w *rma.World) []uint64 {
			const per = 8
			w.Run(func(r int) {
				p := w.Proc(r)
				for i := 0; i < per; i++ {
					p.Lock(0, rma.StrWindow)
					v := p.GetBlocking(0, 9, 1)[0]
					p.Put(0, 9, []uint64{v + 1})
					p.Unlock(0, rma.StrWindow)
				}
			})
			if got := w.Proc(0).ReadAt(9, 1)[0]; got != uint64(4*per) {
				t.Fatalf("locked counter = %d, want %d", got, 4*per)
			}
			return nil
		},
	},
	{
		// Kill mid-epoch: accesses buffered towards a dead rank are lost
		// with it; an explicit flush towards it fails fail-stop, FlushAll
		// silently drops them, and survivors' state is untouched.
		name:  "kill-mid-epoch",
		ranks: 3,
		run: func(t *testing.T, w *rma.World) []uint64 {
			p := w.Proc(0)
			p.Put(1, 0, []uint64{11})
			p.Put(2, 0, []uint64{22})
			w.Kill(1)
			failed := func() (failed bool) {
				defer func() {
					if e := recover(); e != nil {
						if _, ok := e.(rma.TargetFailedError); !ok {
							panic(e)
						}
						failed = true
					}
				}()
				p.Flush(1)
				return false
			}()
			if !failed {
				t.Fatalf("flush towards killed rank did not fail")
			}
			p.FlushAll() // drops the dead rank's ops, applies the rest
			if got := w.Proc(2).ReadAt(0, 1)[0]; got != 22 {
				t.Fatalf("survivor put lost: %d", got)
			}
			return nil
		},
	},
}

// TestTransportConformance runs every scenario on every transport and
// demands bit-identical final windows and observations across them.
func TestTransportConformance(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var golden []uint64
			var goldenFrom string
			for _, f := range factories {
				f := f
				t.Run(f.name, func(t *testing.T) {
					w := f.make(t, sc.ranks)
					obs := sc.run(t, w)
					state := append([]uint64(nil), obs...)
					for r := 0; r < sc.ranks; r++ {
						if !w.Alive(r) {
							continue // a killed rank's volatile window is gone
						}
						state = append(state, w.Proc(r).ReadAt(0, confWords)...)
					}
					if golden == nil {
						golden = state
						goldenFrom = f.name
						return
					}
					if len(state) != len(golden) {
						t.Fatalf("state length %d differs from %s's %d", len(state), goldenFrom, len(golden))
					}
					for i := range state {
						if state[i] != golden[i] {
							t.Fatalf("state[%d] = %d differs from %s's %d", i, state[i], goldenFrom, golden[i])
						}
					}
				})
			}
		})
	}
}

// TestTCPFlushIsOneFrame pins the epoch-batching guarantee on both media
// of the framed protocol, tcp sockets and shm rings: however many puts,
// accumulates, and gets an epoch buffers towards a target, closing the
// epoch sends exactly one flush frame (plus the one reply).
func TestTCPFlushIsOneFrame(t *testing.T) {
	for _, medium := range []struct {
		name    string
		factory func(*testing.T, int) ([]*tcp.Peer, rma.TransportFactory)
	}{{"tcp", tcpFactory}, {"shm", shmFactory}} {
		t.Run(medium.name, func(t *testing.T) {
			peers, factory := medium.factory(t, 2)
			w := rma.NewWorld(rma.Config{N: 2, WindowWords: confWords, Transport: factory})
			t.Cleanup(w.Close)
			p := w.Proc(0)

			// Warm up the connection (dial + hello) so only data frames remain.
			p.PutValue(1, 0, 1)
			p.Flush(1)

			before := peers[0].FramesTo(1)
			for i := 0; i < 16; i++ {
				p.Put(1, i, []uint64{uint64(i)})
			}
			p.Accumulate(1, 0, []uint64{1, 2, 3}, rma.OpSum)
			dest := p.Get(1, 0, 8)
			p.Flush(1)
			if dest[1] != 3 { // 1 + acc 2
				t.Fatalf("flush result wrong: %v", dest)
			}
			if got := peers[0].FramesTo(1) - before; got != 1 {
				t.Fatalf("epoch close sent %d frames, want exactly 1", got)
			}

			// A blocking atomic, by contrast, is its own round trip.
			before = peers[0].FramesTo(1)
			p.FetchAndOp(1, 0, 1, rma.OpSum)
			if got := peers[0].FramesTo(1) - before; got != 1 {
				t.Fatalf("atomic sent %d frames, want 1", got)
			}
		})
	}
}

// TestTCPPeerDeathMapsToTargetFailed closes a peer's transport outright (a
// stand-in for a kill -9 of its process) and asserts the survivor's next
// operation towards it fails with the runtime's fail-stop error.
func TestTCPPeerDeathMapsToTargetFailed(t *testing.T) {
	peers, factory := tcpFactory(t, 2)
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: confWords, Transport: factory})
	t.Cleanup(w.Close)
	p := w.Proc(0)
	p.PutValue(1, 0, 1)
	p.Flush(1) // establish the connection
	peers[1].Close()

	defer func() {
		e := recover()
		if e == nil {
			t.Fatalf("operation towards dead peer did not fail")
		}
		tf, ok := e.(rma.TargetFailedError)
		if !ok || tf.Rank != 1 {
			t.Fatalf("wrong failure: %v", e)
		}
	}()
	for i := 0; i < 100; i++ { // the death may race the first few sends
		p.PutValue(1, 0, uint64(i))
		p.Flush(1)
	}
}

// TestFlakyDropMapsToTargetFailed: the flaky wrapper's forced peer drop
// surfaces exactly like a fail-stop target death.
func TestFlakyDropMapsToTargetFailed(t *testing.T) {
	factory := func(rank, n int, endpoint func(int) transport.Endpoint) (transport.Transport, error) {
		return flaky.New(loopback.New(endpoint), flaky.Config{
			Seed:      7,
			DropAfter: map[int]int{1: 3},
		}), nil
	}
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: confWords, Transport: factory})
	t.Cleanup(w.Close)
	p := w.Proc(0)
	defer func() {
		e := recover()
		tf, ok := e.(rma.TargetFailedError)
		if !ok || tf.Rank != 1 {
			t.Fatalf("wrong failure: %v", e)
		}
	}()
	for i := 0; i < 10; i++ {
		p.FetchAndOp(1, 0, 1, rma.OpSum)
	}
	t.Fatalf("flaky drop never surfaced")
}

// TestTCPConfigValidate pins the descriptive rejections of the transport
// knobs (satellite of the PR 3 hardening style).
func TestTCPConfigValidate(t *testing.T) {
	base := func() tcp.Config {
		return tcp.Config{Self: 0, N: 2, Listen: "127.0.0.1:0", Local: loopback.New(func(int) transport.Endpoint { return nil })}
	}
	cases := []struct {
		name string
		mut  func(*tcp.Config)
		want string
	}{
		{"ok", func(c *tcp.Config) {}, ""},
		{"no-ranks", func(c *tcp.Config) { c.N = 0 }, "at least one rank"},
		{"self-out-of-range", func(c *tcp.Config) { c.Self = 5 }, "outside world"},
		{"no-listener", func(c *tcp.Config) { c.Listen = "" }, "Listener or a Listen address"},
		{"bad-listen", func(c *tcp.Config) { c.Listen = "nonsense" }, "listen address"},
		{"no-local", func(c *tcp.Config) { c.Local = nil }, "Local handler"},
		{"negative-dial-timeout", func(c *tcp.Config) { c.DialTimeout = -time.Second }, "dial timeout"},
		{"negative-heartbeat-miss", func(c *tcp.Config) { c.HeartbeatMiss = -1 }, "heartbeat miss"},
		{"peer-out-of-range", func(c *tcp.Config) { c.Peers = map[int]string{9: "127.0.0.1:1"} }, "peer rank 9"},
		{"peer-bad-addr", func(c *tcp.Config) { c.Peers = map[int]string{1: "bogus"} }, "address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// bindListeners pre-binds n localhost listeners and returns them with the
// rank -> address map every peer needs before any peer exists.
func bindListeners(t *testing.T, n int) ([]net.Listener, map[int]string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make(map[int]string, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("bind listener %d: %v", r, err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	return lns, addrs
}
