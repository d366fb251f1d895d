package transport_test

// Symmetric-fabric conformance: the coordinatorless runtime's peer
// epoch exchange, lease-expiry failure detection, and coordinator-absent
// recovery, in-process over real localhost sockets (plus the benign
// scenario over the shm ring transport through the same Dialer seam).
// Every scenario drives the soak's workload (soak.Workload: stencil →
// FFT → kv phases) between Syncs and is judged by its Check:
// bit-identical final windows against an in-process oracle (a raw
// rma.World running the identical access sequence).

import (
	"net"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/soak"
	"repro/internal/transport"
	"repro/internal/transport/flaky"
	"repro/internal/transport/shm"
)

// confWorkload is the scenarios' workload on n ranks.
func confWorkload(n int) soak.Workload {
	return soak.Workload{Ranks: n, Phases: 6, Inserts: 3}
}

// confTuning keeps lease expiry fast enough to test but tolerant of a
// loaded test machine (the whole suite runs packages in parallel).
var confTuning = fabric.Tuning{
	LeaseInterval:  50 * time.Millisecond,
	LeaseMiss:      10, // 500ms of silence before a peer is condemned
	GossipInterval: 10 * time.Millisecond,
}

// awaitTimeout bounds every wait of a scenario on the fabric, so a
// wedged run fails the test instead of parking until go test's timeout.
const awaitTimeout = 30 * time.Second

// fabNode is one in-process fabric member with its own listener,
// fault-injectable dialer (nil over shm), metrics registry and flight
// recorder. logf is its fabric's guarded Logf, for the replacements a
// test joins later.
type fabNode struct {
	nd     *fabric.Node
	dialer *flaky.Dialer
	logf   func(string, ...any)
	reg    *obs.Registry
	fr     *obs.Recorder
}

// guardFabric holds a test's fabric to fabric.Node's Close contract. Its
// cleanup is registered before anything is started, so it runs last —
// every node and seed closed — and fails the test if anything logged
// after that or the goroutine count does not come back to where it was.
// The Log it returns is the Logf every node and seed of the test shares.
func guardFabric(t *testing.T) *leakcheck.Log {
	log := leakcheck.NewLog(t, true)
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		log.Close()
		leakcheck.Goroutines(t, base)
		log.Check("a fabric node")
	})
	return log
}

// startFabric bootstraps an n-rank fabric of words-word windows over
// localhost tcp: one seed, n nodes joined concurrently through it, each
// with its own registry and enabled flight recorder, returned in rank
// order.
func startFabric(t *testing.T, n, groups, words int, tun fabric.Tuning) (*fabric.Seed, []*fabNode) {
	t.Helper()
	g := guardFabric(t)
	seedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("seed listener: %v", err)
	}
	seed, err := fabric.NewSeed(fabric.SeedConfig{
		N: n, WindowWords: words, Groups: groups,
		Tuning: tun, Listener: seedLn, Logf: g.Logf,
	})
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	t.Cleanup(func() { seed.Close() })

	// Joins race for ranks, so nodes are placed by rank after the join.
	type joined struct {
		fn  *fabNode
		err error
	}
	ch := make(chan joined, n)
	for i := 0; i < n; i++ {
		go func() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				ch <- joined{err: err}
				return
			}
			fn := &fabNode{
				dialer: flaky.WrapDialer(transport.NetDialer{}), logf: g.Logf,
				reg: obs.New(-1), fr: obs.NewRecorder(-1, 256),
			}
			fn.fr.SetEnabled(true)
			fn.nd, err = fabric.Join(fabric.JoinConfig{
				Join: seed.Addr(), Addr: ln.Addr().String(),
				Listener: ln, Dialer: fn.dialer, Logf: g.Logf,
				Obs: fn.reg, Flight: fn.fr,
			})
			ch <- joined{fn: fn, err: err}
		}()
	}
	nodes := make([]*fabNode, n)
	for i := 0; i < n; i++ {
		j := <-ch
		if j.err != nil {
			t.Fatalf("join: %v", j.err)
		}
		nodes[j.fn.nd.Rank()] = j.fn
	}
	for _, fn := range nodes {
		fn := fn
		t.Cleanup(func() { fn.nd.Close() })
	}
	return seed, nodes
}

// drive runs phases [from, to) of wl on one node, reporting the first
// error.
func drive(nd *fabric.Node, wl soak.Workload, from, to int) error {
	for p := from; p < to; p++ {
		if _, err := wl.RunPhase(nd, p); err != nil {
			return err
		}
		if err := nd.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// drivers runs drive on nodes concurrently and collects what each
// returned.
type drivers struct {
	res  chan driven
	done map[*fabric.Node]bool
}

type driven struct {
	nd  *fabric.Node
	err error
}

// newDrivers makes room for up to max drivers, so none blocks on
// reporting after a failed test stopped reading.
func newDrivers(max int) *drivers {
	return &drivers{res: make(chan driven, max), done: map[*fabric.Node]bool{}}
}

func (d *drivers) start(nd *fabric.Node, wl soak.Workload, from, to int) {
	go func() { d.res <- driven{nd, drive(nd, wl, from, to)} }()
}

// await waits until the drivers of nds have returned. It fails the test
// on any driver's error and, after awaitTimeout, names the ranks still
// driving; the cleanups' Close then unparks them.
func (d *drivers) await(t *testing.T, nds ...*fabric.Node) {
	t.Helper()
	deadline := time.After(awaitTimeout)
	for {
		var left []int
		for _, nd := range nds {
			if !d.done[nd] {
				left = append(left, nd.Rank())
			}
		}
		if len(left) == 0 {
			return
		}
		select {
		case r := <-d.res:
			if r.err != nil {
				t.Fatalf("rank %d drive: %v", r.nd.Rank(), r.err)
			}
			d.done[r.nd] = true
		case <-deadline:
			slices.Sort(left)
			t.Fatalf("ranks %v still driving after %v", left, awaitTimeout)
		}
	}
}

// driveAll runs phases [from, to) of wl on every node and waits for all.
func driveAll(t *testing.T, nodes []*fabNode, wl soak.Workload, from, to int) {
	t.Helper()
	d := newDrivers(len(nodes))
	nds := make([]*fabric.Node, len(nodes))
	for i, fn := range nodes {
		nds[i] = fn.nd
		d.start(fn.nd, wl, from, to)
	}
	d.await(t, nds...)
}

// checkFabric demands window-for-window bit-identity with wl's oracle.
// byRank holds, in rank order, the node currently authoritative for each
// rank.
func checkFabric(t *testing.T, wl soak.Workload, byRank []*fabric.Node) {
	t.Helper()
	got := make([][]uint64, len(byRank))
	for r, nd := range byRank {
		got[r] = nd.ReadAt(0, wl.WindowWords())
	}
	if err := wl.Check(got); err != nil {
		t.Fatal(err)
	}
}

// awaitCondemned polls until observer's membership shows rank dead.
func awaitCondemned(t *testing.T, observer *fabric.Node, rank int) {
	t.Helper()
	deadline := time.Now().Add(awaitTimeout)
	for {
		for _, m := range observer.Members() {
			if m.Rank == rank && !m.Alive {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d was never condemned by rank %d", rank, observer.Rank())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitSelfWatermark polls until the node's own watermark reaches wm.
func awaitSelfWatermark(t *testing.T, nd *fabric.Node, wm int) {
	t.Helper()
	deadline := time.Now().Add(awaitTimeout)
	for nd.Self().Watermark < wm {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d watermark stuck at %d, want %d", nd.Rank(), nd.Self().Watermark, wm)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFabricPeerEpochExchange: the benign path. Epoch closes, gsync
// watermarks, and checkpoint folds travel rank-to-rank only; the seed
// serves exactly one frame per join and none after; the final windows
// are bit-identical to the in-process oracle.
func TestFabricPeerEpochExchange(t *testing.T) {
	wl := confWorkload(4)
	seed, nodes := startFabric(t, wl.Ranks, 2, wl.WindowWords(), confTuning)
	if got := seed.FramesServed(); got != uint64(wl.Ranks) {
		t.Fatalf("bootstrap served %d frames, want %d", got, wl.Ranks)
	}
	driveAll(t, nodes, wl, 0, wl.Phases)
	if got := seed.FramesServed(); got != uint64(wl.Ranks) {
		t.Fatalf("seed served %d frames after bootstrap — steady state is not peer-to-peer", got-uint64(wl.Ranks))
	}
	byRank := make([]*fabric.Node, wl.Ranks)
	for r, fn := range nodes {
		byRank[r] = fn.nd
		if rec := fn.nd.Recoveries(); rec != 0 {
			t.Fatalf("benign run recovered %d times on rank %d", rec, r)
		}
		for _, m := range fn.nd.Members() {
			if !m.Alive || m.Incarnation != 0 {
				t.Fatalf("benign run perturbed membership on rank %d: %+v", r, m)
			}
		}
	}
	checkFabric(t, wl, byRank)
}

// TestFabricLeaseExpiryCrisis: a rank goes silent without dying — every
// conn stays up at the socket level, but no frame (heartbeats included)
// gets through. Only the lease detector can see this. The survivors must
// condemn it, arbitrate a crisis, install a replacement joined through a
// non-arbiter survivor (exercising the join redirect), and still finish
// bit-identical to the oracle.
func TestFabricLeaseExpiryCrisis(t *testing.T) {
	const victim, stopAt = 2, 3
	wl := confWorkload(4)
	_, nodes := startFabric(t, wl.Ranks, 2, wl.WindowWords(), confTuning)
	d := newDrivers(wl.Ranks + 1)
	var survivors []*fabric.Node
	for r, fn := range nodes {
		if r == victim {
			d.start(fn.nd, wl, 0, stopAt) // completes phases [0, stopAt), then idles
			continue
		}
		survivors = append(survivors, fn.nd)
		d.start(fn.nd, wl, 0, wl.Phases)
	}
	// Wait until the victim has committed its last phase and the
	// survivors are parked at the next watermark barrier.
	d.await(t, nodes[victim].nd)
	for _, fn := range nodes {
		awaitSelfWatermark(t, fn.nd, stopAt)
	}

	// Mute both directions: the victim's heartbeats reach no one and it
	// hears no one, but every socket stays open — a hung process, not a
	// dead one. The survivors' outbound leases must expire.
	vAddr := nodes[victim].nd.Addr()
	for r, fn := range nodes {
		if r == victim {
			for q, other := range nodes {
				if q != victim {
					fn.dialer.Mute(other.nd.Addr())
				}
			}
			continue
		}
		fn.dialer.Mute(vAddr)
	}
	for _, nd := range survivors {
		awaitCondemned(t, nd, victim)
	}

	// Replacement joins through a non-arbiter survivor: rank 3 redirects
	// to the crisis arbiter (rank 0, the lowest survivor).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("replacement listener: %v", err)
	}
	repl, err := fabric.Join(fabric.JoinConfig{
		Join: nodes[3].nd.Addr(), Addr: ln.Addr().String(),
		Listener: ln, Dialer: flaky.WrapDialer(transport.NetDialer{}), Logf: nodes[3].logf,
	})
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	t.Cleanup(func() { repl.Close() })
	if repl.Rank() != victim || repl.Self().Incarnation != 1 {
		t.Fatalf("replacement is rank %d inc %d, want rank %d inc 1", repl.Rank(), repl.Self().Incarnation, victim)
	}
	if repl.Phase() != stopAt {
		t.Fatalf("replacement resumes at phase %d, want %d (committed %d + 1)", repl.Phase(), stopAt, stopAt-1)
	}
	d.start(repl, wl, repl.Phase(), wl.Phases)
	d.await(t, append(survivors, repl)...)
	byRank := make([]*fabric.Node, wl.Ranks)
	for r, fn := range nodes {
		byRank[r] = fn.nd
		if r != victim && fn.nd.Recoveries() == 0 {
			t.Fatalf("survivor rank %d observed no recovery", r)
		}
	}
	byRank[victim] = repl
	checkFabric(t, wl, byRank)
}

// TestFabricCoordinatorAbsentRecovery: the seed is closed the moment
// bootstrap completes, then a rank dies. Failure detection, crisis
// arbitration, state reconstruction, and the replacement's join all run
// with no coordinator process in existence.
func TestFabricCoordinatorAbsentRecovery(t *testing.T) {
	const victim, stopAt = 1, 2
	wl := confWorkload(4)
	seed, nodes := startFabric(t, wl.Ranks, 2, wl.WindowWords(), confTuning)
	seed.Close() // nothing asymmetric survives past bootstrap

	d := newDrivers(wl.Ranks + 1)
	var survivors []*fabric.Node
	for r, fn := range nodes {
		if r == victim {
			d.start(fn.nd, wl, 0, stopAt)
			continue
		}
		survivors = append(survivors, fn.nd)
		d.start(fn.nd, wl, 0, wl.Phases)
	}
	d.await(t, nodes[victim].nd)
	for _, fn := range nodes {
		awaitSelfWatermark(t, fn.nd, stopAt)
	}
	nodes[victim].nd.Close() // fail-stop: sockets die, peers see EOF
	for _, nd := range survivors {
		awaitCondemned(t, nd, victim)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("replacement listener: %v", err)
	}
	repl, err := fabric.Join(fabric.JoinConfig{
		Join: nodes[2].nd.Addr(), Addr: ln.Addr().String(),
		Listener: ln, Dialer: flaky.WrapDialer(transport.NetDialer{}), Logf: nodes[2].logf,
	})
	if err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	t.Cleanup(func() { repl.Close() })
	d.start(repl, wl, repl.Phase(), wl.Phases)
	d.await(t, append(survivors, repl)...)
	byRank := make([]*fabric.Node, wl.Ranks)
	for r, fn := range nodes {
		byRank[r] = fn.nd
	}
	byRank[victim] = repl
	checkFabric(t, wl, byRank)
}

// TestFabricPeerEpochExchangeSHM runs the benign scenario over the
// shared-memory ring transport instead of localhost sockets: the seed
// and every node listen and dial through one shm.Fabric (endpoint ids
// as addresses), proving the fabric is transport-agnostic behind the
// Dialer seam. The in-process oracle doubles as the loopback leg — all
// three transports must land on the same windows bit for bit.
func TestFabricPeerEpochExchangeSHM(t *testing.T) {
	wl := confWorkload(4)
	n := wl.Ranks
	g := guardFabric(t)
	// Endpoints 0..n-1 are the ranks, endpoint n is the seed.
	shmFab, err := shm.NewFabric(n+1, shm.FabricConfig{})
	if err != nil {
		t.Fatalf("shm fabric: %v", err)
	}
	t.Cleanup(func() { shmFab.Close() })
	seed, err := fabric.NewSeed(fabric.SeedConfig{
		N: n, WindowWords: wl.WindowWords(), Groups: 2,
		Tuning: confTuning, Listener: shmFab.Listener(n), Logf: g.Logf,
	})
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	t.Cleanup(func() { seed.Close() })

	type joined struct {
		nd  *fabric.Node
		err error
	}
	ch := make(chan joined, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			nd, err := fabric.Join(fabric.JoinConfig{
				Join: strconv.Itoa(n), Addr: strconv.Itoa(i),
				Listener: shmFab.Listener(i), Dialer: shmFab.Dialer(i), Logf: g.Logf,
			})
			ch <- joined{nd: nd, err: err}
		}()
	}
	nodes := make([]*fabNode, n)
	for i := 0; i < n; i++ {
		j := <-ch
		if j.err != nil {
			t.Fatalf("join: %v", j.err)
		}
		nodes[j.nd.Rank()] = &fabNode{nd: j.nd, logf: g.Logf}
	}
	for _, fn := range nodes {
		fn := fn
		t.Cleanup(func() { fn.nd.Close() })
	}
	if got := seed.FramesServed(); got != uint64(n) {
		t.Fatalf("bootstrap served %d frames, want %d", got, n)
	}

	driveAll(t, nodes, wl, 0, wl.Phases)
	if got := seed.FramesServed(); got != uint64(n) {
		t.Fatalf("seed served %d frames after bootstrap — steady state is not peer-to-peer", got-uint64(n))
	}
	byRank := make([]*fabric.Node, n)
	for r, fn := range nodes {
		byRank[r] = fn.nd
		if rec := fn.nd.Recoveries(); rec != 0 {
			t.Fatalf("benign run recovered %d times on rank %d", rec, r)
		}
	}
	checkFabric(t, wl, byRank)
}
