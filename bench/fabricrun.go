package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/shm"
)

// benchTuning is the soak's fabric timing — the only one the repo gates.
// With the package defaults (50 ms lease, 25 ms gossip) busy ranks on two
// cores miss leases and runs with kills die of "2 ranks dead at once".
var benchTuning = fabric.Tuning{
	LeaseInterval:  500 * time.Millisecond,
	LeaseMiss:      20,
	GossipInterval: 250 * time.Millisecond,
}

// processStart is the zero of every timestamp the benchmark records, and
// cpuAtStart the machine's CPU times then.
var (
	processStart = time.Now()
	cpuAtStart   = readCPUTimes()
)

func now() int64 { return int64(time.Since(processStart)) }

// runConfig is one child run: the workload, its seed, and how many blocks
// of what size. The workload table fixes the sizes of real runs; tests and
// -quick shrink them.
type runConfig struct {
	wl             *workload
	seed           uint64
	warmBlocks     int
	timedBlocks    int
	phasesPerBlock int
	// traced alternates the timed blocks untraced, traced, untraced, ...:
	// the traced half yields the spans and layer numbers, the untraced half
	// the baseline for trace.overhead_pct.
	traced bool
	// killProbes is the number of short traced kill blocks that follow the
	// timed blocks (traced runs of workloads without kills).
	killProbes    int
	blockDeadline time.Duration
	// blockRetries is the run's budget of failed blocks that are run again.
	blockRetries int
	// wedgeBlock is a test hook: the first attempt at that timed block kills
	// its victim and never replaces it, so the block wedges until its deadline.
	wedgeBlock int
	// scratch is where shm ring files go.
	scratch string
	// progress is the file an untraced run records its timed blocks in, and
	// resumes from after a child's death; "" for none.
	progress string
	// spawned is when the parent started this process (setup_s's zero).
	spawned time.Time
}

// killProbePhases is the size of a kill probe: a quarter block.
func (cfg *runConfig) killProbePhases() int { return cfg.phasesPerBlock / 4 }

// ---- Endpoints --------------------------------------------------------------

// endpoints hands out transport attachments, wired the way
// internal/soak/transport.go wires them: a localhost listener plus
// transport.NetDialer for tcp, a ring listener/dialer pair of one
// shm.Fabric for shm.
type endpoints struct {
	mu   sync.Mutex
	fab  *shm.Fabric
	next int
}

// shmEndpoints bounds the listeners of one shm fabric: four ranks, the
// seed, and a replacement per kill with room to spare.
const shmEndpoints = 64

func newEndpoints(kind, dir string) (*endpoints, error) {
	e := &endpoints{}
	if kind == "shm" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		fab, err := shm.NewFabric(shmEndpoints, shm.FabricConfig{Dir: dir, RingBytes: 1 << 20})
		if err != nil {
			return nil, err
		}
		e.fab = fab
	}
	return e, nil
}

func (e *endpoints) open() (addr string, ln net.Listener, d transport.Dialer, err error) {
	if e.fab == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, nil, err
		}
		return ln.Addr().String(), ln, transport.NetDialer{}, nil
	}
	e.mu.Lock()
	id := e.next
	e.next++
	e.mu.Unlock()
	if id >= shmEndpoints {
		return "", nil, nil, errors.New("bench: out of shm endpoints")
	}
	return strconv.Itoa(id), e.fab.Listener(id), e.fab.Dialer(id), nil
}

// ---- World ------------------------------------------------------------------

// world is one bootstrapped fabric under the harness.
type world struct {
	cfg   *runConfig
	eps   *endpoints
	abort chan struct{} // closed by closeAll: unblocks harness waits
	once  sync.Once

	mu    sync.Mutex
	nodes [nRanks]*fabric.Node
	// regs holds every registry the world ever had, dead incarnations
	// included, so counter deltas stay exact across kills.
	regs []*obs.Registry

	states [nRanks]*rankState
	next   int // the phase every rank executes next
	kills  int // kills scheduled so far (drives victim rotation)
}

var worldSeq int

// bootstrap joins a fresh world and fills every window (phase 0), so
// checkpoints and reconstruction work on real data.
func bootstrap(cfg *runConfig) (*world, error) {
	w, err := join(cfg)
	if err != nil {
		return nil, err
	}
	for r := range w.states {
		w.states[r] = newRankState(cfg.wl, cfg.seed, r)
	}
	if err := w.fill(); err != nil {
		w.closeAll()
		return nil, err
	}
	return w, nil
}

// join is the bare bootstrap: listeners, a seed and four joins.
func join(cfg *runConfig) (*world, error) {
	worldSeq++
	eps, err := newEndpoints(cfg.wl.transport, filepath.Join(cfg.scratch, fmt.Sprintf("shm-%d", worldSeq)))
	if err != nil {
		return nil, err
	}
	w := &world{cfg: cfg, eps: eps, abort: make(chan struct{})}
	seedAddr, seedLn, _, err := eps.open()
	if err != nil {
		return nil, err
	}
	seed, err := fabric.NewSeed(fabric.SeedConfig{
		N: nRanks, WindowWords: cfg.wl.windowWords, Groups: nGroups,
		Tuning: benchTuning, Listener: seedLn,
	})
	if err != nil {
		return nil, err
	}
	defer seed.Close()
	type joined struct {
		slot int
		nd   *fabric.Node
		reg  *obs.Registry
		err  error
	}
	ch := make(chan joined, nRanks)
	deadline := time.Now().Add(cfg.blockDeadline)
	for i := 0; i < nRanks; i++ {
		addr, ln, d, err := eps.open()
		if err != nil {
			return nil, err
		}
		reg := obs.New(i)
		go func(i int) {
			nd, err := fabric.Join(fabric.JoinConfig{Join: seedAddr, Addr: addr, Listener: ln, Dialer: d, Obs: reg})
			ch <- joined{i, nd, reg, err}
		}(i)
		// The seed assigns ranks first come, first served: start join i+1
		// only once join i is registered, so slot i holds rank i.
		for seed.Joined() < i+1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("bench: join %d did not reach the seed", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	var firstErr error
	for i := 0; i < nRanks; i++ {
		j := <-ch
		switch {
		case j.err != nil:
			firstErr = j.err
		case j.nd.Rank() != j.slot:
			firstErr = fmt.Errorf("bench: slot %d joined as rank %d", j.slot, j.nd.Rank())
			w.nodes[j.slot] = j.nd
		default:
			w.nodes[j.slot] = j.nd
			w.regs = append(w.regs, j.reg)
		}
	}
	if firstErr != nil {
		w.closeAll()
		return nil, firstErr
	}
	return w, nil
}

// fill is phase 0: every rank writes its whole window and syncs.
func (w *world) fill() error {
	errs := make(chan error, nRanks)
	for r := 0; r < nRanks; r++ {
		go func(r int) {
			buf := make([]uint64, w.cfg.wl.windowWords)
			for i := range buf {
				buf[i] = fillWord(w.cfg.seed, r, i)
			}
			nd := w.node(r)
			nd.WriteAt(0, buf)
			errs <- nd.Sync()
		}(r)
	}
	var first error
	for r := 0; r < nRanks; r++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("bench: fill: %w", err)
		}
	}
	w.next = 1
	return first
}

func (w *world) node(r int) *fabric.Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nodes[r]
}

func (w *world) setNode(r int, nd *fabric.Node, reg *obs.Registry) {
	w.mu.Lock()
	w.nodes[r] = nd
	w.regs = append(w.regs, reg)
	w.mu.Unlock()
}

func (w *world) aborted() bool {
	select {
	case <-w.abort:
		return true
	default:
		return false
	}
}

// closeAll closes every node; blocked fabric calls return ErrClosed.
// The shm fabric is deliberately not closed: Node.Close joins none of its
// goroutines, and unmapping ring memory under a still-running reader would
// fault. The ring files are unlinked when the child removes its scratch
// directory; the mappings die with the process.
func (w *world) closeAll() {
	w.once.Do(func() { close(w.abort) })
	w.mu.Lock()
	nodes := w.nodes
	w.mu.Unlock()
	for _, nd := range nodes {
		if nd != nil {
			nd.Close()
		}
	}
}

// counter and hist sum an instrument over every registry of the world.
func (w *world) counter(name string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var v uint64
	for _, reg := range w.regs {
		v += reg.Counter(name).Load()
	}
	return v
}

func (w *world) hist(name string) (sum, count uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, reg := range w.regs {
		h := reg.Histogram(name)
		sum += h.Sum()
		count += h.Count()
	}
	return sum, count
}

// verify checks every window word for word against the closed-form oracle.
func (w *world) verify() error {
	for r := 0; r < nRanks; r++ {
		got := w.node(r).ReadAt(0, w.cfg.wl.windowWords)
		if d := diffWindow(got, oracleWindow(w.cfg.wl, w.cfg.seed, r, w.next-1)); d != "" {
			return fmt.Errorf("rank %d after phase %d: %s", r, w.next-1, d)
		}
	}
	return nil
}

// ---- Blocks -----------------------------------------------------------------

// blockSpec is one block of lockstep phases, optionally with one kill.
type blockSpec struct {
	phases int
	traced bool
	kill   bool
	victim int
	killAt int // phase index inside the block whose top the victim dies at
	wedge  bool
}

// stamp is what a traced phase records: the four boundaries of
// issue | flush | sync, and the phase's checkpoint and barrier-wait time as
// the node's own fabric.ckpt.us / fabric.gsync.wait.us sums moved.
type stamp struct {
	t0, t1, t2, t3 int64
	ckptUs, waitUs int64
	sub            [3][2]int64 // blocking gets inside issue (reads-tcp)
	nsub           int
}

// recovery is the timeline of one kill, in ns since process start.
type recovery struct {
	victim, phase                        int
	close, detect, join, catchup, resume int64
}

type blockResult struct {
	err      error
	wallNs   int64
	steal    float64 // steal share while the block ran
	peakRSS  float64 // VmHWM at the block's end, MiB
	rssReset bool    // the high-water mark was reset at the block's start
	phaseNs  [nRanks][]int64
	stamps   [nRanks][]stamp
	killEnd  [nRanks]int64
	mismatch [nRanks]int
	rec      recovery
}

// killSpec turns a block into a kill block: victims rotate through a seeded
// permutation so the arbiter and both parity hosts take turns; the kill
// lands near the block's middle at a seeded offset.
func (w *world) killSpec(spec blockSpec) blockSpec {
	perm := [nRanks]int{0, 1, 2, 3}
	h := mix(w.cfg.seed ^ 0x6b696c6c)
	for i := nRanks - 1; i > 0; i-- {
		j := int(h % uint64(i+1))
		h = mix(h)
		perm[i], perm[j] = perm[j], perm[i]
	}
	spec.kill = true
	spec.victim = perm[w.kills%nRanks]
	jitter := spec.phases / 4
	spec.killAt = spec.phases/2 - jitter/2 + int(mix(w.cfg.seed^uint64(w.kills)<<8)%uint64(jitter+1))
	w.kills++
	return spec
}

// runBlock drives the four ranks through spec.phases lockstep phases, one
// closed-loop driver goroutine per rank, under the block deadline. On an
// error or expiry every node is closed (the world is then dead) and the
// block is reported failed; runBlock never hangs.
func (w *world) runBlock(spec blockSpec) *blockResult {
	res := &blockResult{}
	for r := range res.phaseNs {
		res.phaseNs[r] = make([]int64, spec.phases)
		if spec.traced {
			res.stamps[r] = make([]stamp, spec.phases)
		}
	}
	from := w.next
	errc := make(chan error, nRanks)
	var wg sync.WaitGroup
	res.rssReset = resetPeakRSS()
	cpu0 := readCPUTimes()
	start := now()
	for r := 0; r < nRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := w.drive(r, spec, from, res); err != nil {
				errc <- err
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(w.cfg.blockDeadline)
	defer timer.Stop()
	select {
	case <-done:
		res.wallNs = now() - start
		res.steal = stealShare(cpu0, readCPUTimes())
		res.peakRSS = peakRSSMiB()
	case err := <-errc:
		res.err = err
	case <-timer.C:
		res.err = fmt.Errorf("block exceeded its %v deadline", w.cfg.blockDeadline)
	}
	if res.err == nil {
		select {
		case res.err = <-errc: // a driver failed and the rest finished
		default:
		}
	}
	if res.err != nil {
		w.closeAll()
		// Closed nodes fail every call promptly; a driver inside
		// fabric.Join can take a few seconds more to give up. Abandon
		// whatever is still running after the grace period: it only holds
		// this dead world and this block's result.
		select {
		case <-done:
		case <-time.After(3 * time.Second):
		}
		return res
	}
	w.next = from + spec.phases
	if spec.kill {
		res.rec.catchup = res.killEnd[spec.victim]
		for _, t := range res.killEnd {
			if t > res.rec.resume {
				res.rec.resume = t
			}
		}
	}
	return res
}

// drive is one rank's closed loop over the block: a phase is issued only
// after the Sync of the previous one returned.
func (w *world) drive(r int, spec blockSpec, from int, res *blockResult) error {
	wl := w.cfg.wl
	st := w.states[r]
	nd := w.node(r)
	st.clock = nil
	var ckpt, wait *obs.Histogram
	if spec.traced {
		st.clock = now
		ckpt, wait = syncHists(nd)
	}
	for i := 0; i < spec.phases; i++ {
		p := from + i
		if spec.kill && r == spec.victim && i == spec.killAt {
			rep, err := w.killAndReplace(r, nd, p, spec.wedge, &res.rec)
			if err != nil {
				return err
			}
			nd = rep
			if spec.traced {
				ckpt, wait = syncHists(nd)
			}
		}
		fillPayload(st.buf, w.cfg.seed, r, p)
		var s stamp
		if spec.traced {
			s.ckptUs, s.waitUs = -int64(ckpt.Sum()), -int64(wait.Sum())
		}
		s.t0 = now()
		wl.issue(st, nd, p)
		if spec.traced {
			s.t1 = now()
		}
		nd.FlushAll()
		if spec.traced {
			s.t2 = now()
		}
		if err := nd.Sync(); err != nil {
			return fmt.Errorf("rank %d phase %d: %w", r, p, err)
		}
		s.t3 = now()
		if !wl.check(st, p) {
			res.mismatch[r]++
		}
		res.phaseNs[r][i] = s.t3 - s.t0
		if spec.kill && i == spec.killAt {
			res.killEnd[r] = s.t3
		}
		if spec.traced {
			s.ckptUs += int64(ckpt.Sum())
			s.waitUs += int64(wait.Sum())
			s.nsub = copy(s.sub[:], st.sub)
			res.stamps[r][i] = s
		}
	}
	return nil
}

// syncHists returns the two histograms a node's Sync observes into.
func syncHists(nd *fabric.Node) (ckpt, wait *obs.Histogram) {
	return nd.Obs().Histogram("fabric.ckpt.us"), nd.Obs().Histogram("fabric.gsync.wait.us")
}

// killAndReplace fail-stops rank r at the top of phase p (Close, no
// goodbye), waits until a survivor has condemned it, and joins a
// replacement through that survivor on a fresh listener. The replacement
// comes back holding the reconstructed state and resumes at phase p.
func (w *world) killAndReplace(r int, nd *fabric.Node, p int, wedge bool, rec *recovery) (*fabric.Node, error) {
	rec.victim, rec.phase = r, p
	rec.close = now()
	nd.Close()
	if wedge {
		<-w.abort
		return nil, errors.New("wedge hook: no replacement joined")
	}
	observer := w.node((r + 1) % nRanks)
	for observer.Members()[r].Alive {
		if w.aborted() {
			return nil, errors.New("aborted awaiting condemnation")
		}
		time.Sleep(200 * time.Microsecond)
	}
	rec.detect = now()
	for {
		addr, ln, d, err := w.eps.open()
		if err != nil {
			return nil, err
		}
		reg := obs.New(r)
		rep, err := fabric.Join(fabric.JoinConfig{Join: observer.Addr(), Addr: addr, Listener: ln, Dialer: d, Obs: reg})
		if err != nil {
			if w.aborted() {
				return nil, fmt.Errorf("replacement join for rank %d: %w", r, err)
			}
			continue // Join closed the listener; retry on a fresh one
		}
		if rep.Rank() != r || rep.Phase() != p {
			rep.Close()
			return nil, fmt.Errorf("replacement took rank %d at phase %d, want rank %d at phase %d", rep.Rank(), rep.Phase(), r, p)
		}
		rec.join = now()
		w.setNode(r, rep, reg)
		return rep, nil
	}
}
