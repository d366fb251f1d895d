package transport_test

// Symmetric-fabric conformance: the coordinatorless runtime's peer
// epoch exchange, lease-expiry failure detection, and coordinator-absent
// recovery, in-process over real localhost sockets (plus the benign
// scenario over the shm ring transport through the same Dialer seam) and
// all judged the same way as the transport scenarios — bit-identical
// final windows against an in-process oracle (a raw rma.World running
// the identical access sequence on the loopback transport).

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/leakcheck"
	"repro/internal/rma"
	"repro/internal/transport"
	"repro/internal/transport/flaky"
	"repro/internal/transport/shm"
)

const (
	fabPhases  = 6
	fabInserts = 3
)

// confTuning keeps lease expiry fast enough to test but tolerant of a
// loaded test machine (the whole suite runs packages in parallel).
var confTuning = fabric.Tuning{
	LeaseInterval:  50 * time.Millisecond,
	LeaseMiss:      10, // 500ms of silence before a peer is condemned
	GossipInterval: 10 * time.Millisecond,
}

// The miniature causal workload: per-(source, phase) disjoint replacing
// puts to every peer, a blocking verify of the previous phase's own
// writes, and a copy-get landing in a per-phase scratch word — the same
// shape rankd's workload uses, small enough to inline here.
func fabWindowWords(n int) int { return n*fabPhases*fabInserts + fabPhases }

func fabOff(src, phase int) int { return (src*fabPhases + phase) * fabInserts }

func fabScratch(n, phase int) int { return n*fabPhases*fabInserts + phase }

func fabVal(rank, phase, i int) uint64 {
	return uint64(rank+1)<<40 | uint64(phase+1)<<20 | uint64(i+1)
}

func runFabPhase(api rma.API, n, rank, phase int) error {
	data := make([]uint64, fabInserts)
	for i := range data {
		data[i] = fabVal(rank, phase, i)
	}
	for q := 0; q < n; q++ {
		if q != rank {
			api.Put(q, fabOff(rank, phase), data)
		}
	}
	peer := (rank + 1) % n
	if phase > 0 {
		got := api.GetBlocking(peer, fabOff(rank, phase-1), fabInserts)
		for i, v := range got {
			if want := fabVal(rank, phase-1, i); v != want {
				return fmt.Errorf("rank %d phase %d readback word %d = %#x, want %#x", rank, phase, i, v, want)
			}
		}
	}
	api.GetCopy(peer, fabOff(rank, phase), 1, fabScratch(n, phase))
	api.Flush(peer)
	return nil
}

// fabOracle runs the workload failure-free on the in-process runtime and
// returns every rank's final window.
func fabOracle(t *testing.T, n int) [][]uint64 {
	t.Helper()
	w := rma.NewWorld(rma.Config{N: n, WindowWords: fabWindowWords(n)})
	defer w.Close()
	var firstErr error
	w.Run(func(r int) {
		p := w.Proc(r)
		for phase := 0; phase < fabPhases; phase++ {
			if err := runFabPhase(p, n, r, phase); err != nil && firstErr == nil {
				firstErr = err
				return
			}
			p.Gsync()
		}
	})
	if firstErr != nil {
		t.Fatalf("oracle: %v", firstErr)
	}
	out := make([][]uint64, n)
	for r := range out {
		out[r] = w.Proc(r).ReadAt(0, fabWindowWords(n))
	}
	return out
}

// fabNode is one in-process fabric member with its own listener and
// fault-injectable dialer. logf is its fabric's guarded Logf, for the
// replacements a test joins later.
type fabNode struct {
	nd     *fabric.Node
	dialer *flaky.Dialer
	logf   func(string, ...any)
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

// startFabric bootstraps an n-rank fabric in-process: one seed, n nodes
// joined concurrently through it, returned in rank order.
func startFabric(t *testing.T, n, groups int) (*fabric.Seed, []*fabNode) {
	t.Helper()
	g := guardFabric(t)
	seedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("seed listener: %v", err)
	}
	seed, err := fabric.NewSeed(fabric.SeedConfig{
		N: n, WindowWords: fabWindowWords(n), Groups: groups,
		Tuning: confTuning, Listener: seedLn, Logf: g.Logf,
	})
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	t.Cleanup(func() { seed.Close() })

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
			d := flaky.WrapDialer(transport.NetDialer{})
			nd, err := fabric.Join(fabric.JoinConfig{
				Join: seed.Addr(), Addr: ln.Addr().String(),
				Listener: ln, Dialer: d, Logf: g.Logf,
			})
			ch <- joined{fn: &fabNode{nd: nd, dialer: d, logf: g.Logf}, err: err}
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

// drive runs phases [from, to) on one node, reporting the first error.
func drive(nd *fabric.Node, n, from, to int) error {
	for p := from; p < to; p++ {
		if err := runFabPhase(nd, n, nd.Rank(), p); err != nil {
			return err
		}
		if err := nd.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// compareFabric demands window-for-window bit-identity with the oracle.
// byRank maps each rank to the node currently authoritative for it.
func compareFabric(t *testing.T, byRank map[int]*fabric.Node, want [][]uint64) {
	t.Helper()
	for r, nd := range byRank {
		got := nd.ReadAt(0, len(want[r]))
		for i := range got {
			if got[i] != want[r][i] {
				t.Fatalf("rank %d word %d: got %#x, want %#x", r, i, got[i], want[r][i])
			}
		}
	}
}

// awaitCondemned polls until observer's membership shows rank dead.
func awaitCondemned(t *testing.T, observer *fabric.Node, rank int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
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
	deadline := time.Now().Add(30 * time.Second)
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
	const n = 4
	seed, nodes := startFabric(t, n, 2)
	if got := seed.FramesServed(); got != n {
		t.Fatalf("bootstrap served %d frames, want %d", got, n)
	}
	errs := make(chan error, n)
	for _, fn := range nodes {
		fn := fn
		go func() { errs <- drive(fn.nd, n, 0, fabPhases) }()
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatalf("drive: %v", err)
		}
	}
	if got := seed.FramesServed(); got != n {
		t.Fatalf("seed served %d frames after bootstrap — steady state is not peer-to-peer", got-n)
	}
	byRank := map[int]*fabric.Node{}
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
	compareFabric(t, byRank, fabOracle(t, n))
}

// TestFabricLeaseExpiryCrisis: a rank goes silent without dying — every
// conn stays up at the socket level, but no frame (heartbeats included)
// gets through. Only the lease detector can see this. The survivors must
// condemn it, arbitrate a crisis, install a replacement joined through a
// non-arbiter survivor (exercising the join redirect), and still finish
// bit-identical to the oracle.
func TestFabricLeaseExpiryCrisis(t *testing.T) {
	const n, victim, stopAt = 4, 2, 3
	_, nodes := startFabric(t, n, 2)
	errs := make(chan error, n)
	for r, fn := range nodes {
		r, fn := r, fn
		to := fabPhases
		if r == victim {
			to = stopAt // completes phases [0, stopAt), then idles
		}
		go func() { errs <- drive(fn.nd, n, 0, to) }()
	}
	// Wait until the victim has committed its last phase and the
	// survivors are parked at the next watermark barrier.
	awaitSelfWatermark(t, nodes[victim].nd, stopAt)
	if err := <-errs; err != nil { // the victim's driver is the first to return
		t.Fatalf("victim drive: %v", err)
	}
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
	for r, fn := range nodes {
		if r != victim {
			awaitCondemned(t, fn.nd, victim)
		}
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
	if err := drive(repl, n, repl.Phase(), fabPhases); err != nil {
		t.Fatalf("replacement drive: %v", err)
	}
	for r := range nodes {
		if r == victim {
			continue
		}
		if err := <-errs; err != nil {
			t.Fatalf("survivor drive: %v", err)
		}
	}
	byRank := map[int]*fabric.Node{victim: repl}
	for r, fn := range nodes {
		if r != victim {
			byRank[r] = fn.nd
			if fn.nd.Recoveries() == 0 {
				t.Fatalf("survivor rank %d observed no recovery", r)
			}
		}
	}
	compareFabric(t, byRank, fabOracle(t, n))
}

// TestFabricCoordinatorAbsentRecovery: the seed is closed the moment
// bootstrap completes, then a rank dies. Failure detection, crisis
// arbitration, state reconstruction, and the replacement's join all run
// with no coordinator process in existence.
func TestFabricCoordinatorAbsentRecovery(t *testing.T) {
	const n, victim, stopAt = 4, 1, 2
	seed, nodes := startFabric(t, n, 2)
	seed.Close() // nothing asymmetric survives past bootstrap

	errs := make(chan error, n)
	for r, fn := range nodes {
		r, fn := r, fn
		to := fabPhases
		if r == victim {
			to = stopAt
		}
		go func() { errs <- drive(fn.nd, n, 0, to) }()
	}
	awaitSelfWatermark(t, nodes[victim].nd, stopAt)
	if err := <-errs; err != nil {
		t.Fatalf("victim drive: %v", err)
	}
	for _, fn := range nodes {
		awaitSelfWatermark(t, fn.nd, stopAt)
	}
	nodes[victim].nd.Close() // fail-stop: sockets die, peers see EOF
	for r, fn := range nodes {
		if r != victim {
			awaitCondemned(t, fn.nd, victim)
		}
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
	if err := drive(repl, n, repl.Phase(), fabPhases); err != nil {
		t.Fatalf("replacement drive: %v", err)
	}
	for r := range nodes {
		if r == victim {
			continue
		}
		if err := <-errs; err != nil {
			t.Fatalf("survivor drive: %v", err)
		}
	}
	byRank := map[int]*fabric.Node{victim: repl}
	for r, fn := range nodes {
		if r != victim {
			byRank[r] = fn.nd
		}
	}
	compareFabric(t, byRank, fabOracle(t, n))
}

// TestFabricPeerEpochExchangeSHM runs the benign scenario over the
// shared-memory ring transport instead of localhost sockets: the seed
// and every node listen and dial through one shm.Fabric (endpoint ids
// as addresses), proving the fabric is transport-agnostic behind the
// Dialer seam. The in-process oracle doubles as the loopback leg — all
// three transports must land on the same windows bit for bit.
func TestFabricPeerEpochExchangeSHM(t *testing.T) {
	const n = 4
	g := guardFabric(t)
	// Endpoints 0..n-1 are the ranks, endpoint n is the seed.
	shmFab, err := shm.NewFabric(n+1, shm.FabricConfig{})
	if err != nil {
		t.Fatalf("shm fabric: %v", err)
	}
	t.Cleanup(func() { shmFab.Close() })
	seed, err := fabric.NewSeed(fabric.SeedConfig{
		N: n, WindowWords: fabWindowWords(n), Groups: 2,
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
	nodes := make([]*fabric.Node, n)
	for i := 0; i < n; i++ {
		j := <-ch
		if j.err != nil {
			t.Fatalf("join: %v", j.err)
		}
		nodes[j.nd.Rank()] = j.nd
	}
	for _, nd := range nodes {
		nd := nd
		t.Cleanup(func() { nd.Close() })
	}
	if got := seed.FramesServed(); got != n {
		t.Fatalf("bootstrap served %d frames, want %d", got, n)
	}

	errs := make(chan error, n)
	for _, nd := range nodes {
		nd := nd
		go func() { errs <- drive(nd, n, 0, fabPhases) }()
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatalf("drive: %v", err)
		}
	}
	if got := seed.FramesServed(); got != n {
		t.Fatalf("seed served %d frames after bootstrap — steady state is not peer-to-peer", got-n)
	}
	byRank := map[int]*fabric.Node{}
	for r, nd := range nodes {
		byRank[r] = nd
		if rec := nd.Recoveries(); rec != 0 {
			t.Fatalf("benign run recovered %d times on rank %d", rec, r)
		}
	}
	compareFabric(t, byRank, fabOracle(t, n))
}
