package soak

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/transport/flaky"
)

// Config is one soak run.
type Config struct {
	Transport Transport
	Workload  Workload
	Chaos     Chaos
	// Tuning's zero value resolves to soak defaults sized for a loaded
	// one-box machine (big fabrics on few cores need patient leases).
	Tuning fabric.Tuning
	// Groups is the parity group count; 0 picks 2 (1 below 4 ranks).
	Groups int
	// Dir backs the shm rings; empty uses a fresh temp dir.
	Dir string
	// RingBytes sizes each shm ring direction. 0 picks 64 KiB — small
	// enough that a big fabric's O(ranks²) lazily-dialed ring regions
	// fit in memory, big enough for every soak frame.
	RingBytes int
	// Timeout bounds the whole run. On expiry every node is closed and
	// Run returns an error — the harness never hangs. Default 10m.
	Timeout time.Duration
	Logf    func(format string, args ...any)
}

// soakTuning is the default fabric timing for big in-process fabrics:
// hundreds of goroutine ranks sharing few cores miss heartbeats under
// scheduler pressure, so leases are long; gossip is repair-only (kills
// surface through connection resets) and can idle.
var soakTuning = fabric.Tuning{
	LeaseInterval:  500 * time.Millisecond,
	LeaseMiss:      20, // 10s of silence condemns
	GossipInterval: 250 * time.Millisecond,
}

// member is one live fabric node under the harness: the node, its
// metrics registry, and the endpoint slot it is attached to.
type member struct {
	nd  *fabric.Node
	reg *obs.Registry
	ep  int
}

// firing is one chaos event armed for execution: each participant claims
// its entry once (a replacement re-driving the same phase must not
// re-fire), and barrier events rendezvous — node-kill victims so they
// fail together, mutes so the whole fabric is quiescent. The quiescence
// matters: a muted link destroys frames rather than delaying them, so a
// workload call in flight during the window would hang forever — exactly
// the silent-peer model the lease detector covers, but fatal to a run
// that still expects those frames. Real silence (a stalled NIC) stalls
// TCP, which retransmits; the injectable mute does not, so the harness
// only opens windows while no calls are outstanding.
type firing struct {
	ev      Event // Ranks translated to live fabric ranks
	global  bool  // every rank participates (mute barriers)
	mu      sync.Mutex
	claimed map[int]bool
	arrived int
	release chan struct{}
}

type driveResult struct {
	rank     int
	ops      int
	err      error
	killedAt int // -1 unless the driver executed a kill
	kind     EventKind
	pre      obs.HistogramSnapshot // merged flush.us at the kill
}

type runState struct {
	cfg     Config
	wl      Workload
	eps     *endpoints
	results chan driveResult
	muteDur time.Duration
	done    chan struct{} // closed by closeAll; unblocks barrier waits

	deadline time.Time

	mu          sync.Mutex
	byRank      map[int]*member
	regs        []*obs.Registry
	byPhase     map[int][]*firing
	spareNext   int
	crisisFlush obs.HistogramSnapshot
	closed      bool
}

// Run executes one soak: bootstrap the fabric over the chosen transport,
// drive the mixed workload under the seeded chaos schedule, verify the
// final state bit-identical to the in-process oracle and the membership
// converged, and return the per-section report. Unsurvivable schedules
// (node kills) return an error marked catastrophic; nothing hangs — the
// run is bounded by cfg.Timeout.
func Run(cfg Config) (*Report, error) {
	wl := cfg.Workload
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Minute
	}
	tun := cfg.Tuning
	if tun == (fabric.Tuning{}) {
		tun = soakTuning
		if wl.Ranks >= 96 {
			// O(ranks²) heartbeating connections on a small core count
			// starve individual conns past the lease window in bursts
			// (phase flush storms, GC); one expiry EOF-cascades into mass
			// condemnation. Fewer, more patient heartbeats. Kill detection
			// stays fast — a dead process resets its conns immediately.
			tun.LeaseInterval = time.Second
			tun.LeaseMiss = 30
		}
	}
	groups := cfg.Groups
	if groups == 0 {
		groups = 2
		if wl.Ranks < 4 {
			groups = 1
		}
	}
	evs, err := cfg.Chaos.Schedule(wl)
	if err != nil {
		return nil, err
	}
	spares := 0
	for _, ev := range evs {
		if ev.Kind == EvKill {
			spares++
		}
	}
	perNode := cfg.Chaos.RanksPerNode
	if perNode < 1 {
		perNode = 1
	}
	ring := cfg.RingBytes
	if ring == 0 {
		ring = 64 << 10
	}
	eps, err := buildEndpoints(cfg.Transport, wl.Ranks, spares, perNode, cfg.Dir, ring)
	if err != nil {
		return nil, err
	}
	defer eps.Close()

	s := &runState{
		cfg: cfg, wl: wl, eps: eps,
		deadline:    time.Now().Add(cfg.Timeout),
		results:     make(chan driveResult, wl.Ranks+2*spares),
		muteDur:     tun.LeaseInterval * time.Duration(tun.LeaseMiss) / 4,
		done:        make(chan struct{}),
		byRank:      map[int]*member{},
		byPhase:     map[int][]*firing{},
		spareNext:   wl.Ranks,
		crisisFlush: obs.HistogramSnapshot{Buckets: map[int]uint64{}},
	}

	// Bootstrap: seed plus wl.Ranks concurrent joins. Rank assignment is
	// first-come, so the endpoint slot a rank landed on is only known
	// afterwards — slotRank translates the chaos schedule's placement
	// slots into live fabric ranks.
	seed, err := fabric.NewSeed(fabric.SeedConfig{
		N: wl.Ranks, WindowWords: wl.WindowWords(), Groups: groups,
		Tuning: tun, Listener: eps.seedLn, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	defer seed.Close()
	seedAddr := strconv.Itoa(wl.Ranks + spares)
	if eps.seedTCP {
		seedAddr = eps.seedLn.Addr().String()
	}
	type joined struct {
		m   *member
		err error
	}
	jch := make(chan joined, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		i := i
		go func() {
			reg := obs.New(0)
			nd, err := fabric.Join(fabric.JoinConfig{
				Join: seedAddr, Addr: eps.eps[i].addr,
				Listener: eps.eps[i].ln, Dialer: eps.eps[i].dialer,
				Obs: reg, Logf: cfg.Logf,
			})
			if err != nil {
				jch <- joined{err: err}
				return
			}
			reg.SetRank(nd.Rank())
			jch <- joined{m: &member{nd: nd, reg: reg, ep: i}}
		}()
	}
	slotRank := make([]int, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		j := <-jch
		if j.err != nil {
			s.closeAll()
			return nil, fmt.Errorf("soak: join: %w", j.err)
		}
		s.byRank[j.m.nd.Rank()] = j.m
		s.regs = append(s.regs, j.m.reg)
		slotRank[j.m.ep] = j.m.nd.Rank()
	}
	seed.Close() // steady state is peer-to-peer; replacements join via survivors

	// Arm the schedule, slots translated to ranks.
	hasNodeKill := false
	killCount := make([]int, wl.Ranks)
	for _, ev := range evs {
		live := Event{Phase: ev.Phase, Kind: ev.Kind, Ranks: make([]int, len(ev.Ranks))}
		for i, slot := range ev.Ranks {
			live.Ranks[i] = slotRank[slot]
		}
		f := &firing{ev: live, claimed: map[int]bool{}, release: make(chan struct{})}
		s.byPhase[ev.Phase] = append(s.byPhase[ev.Phase], f)
		switch ev.Kind {
		case EvNodeKill:
			hasNodeKill = true
		case EvKill:
			killCount[live.Ranks[0]]++
		case EvMute:
			f.global = true // whole fabric rendezvous: mute only when quiescent
		}
		cfg.Logf("soak: armed %v", live)
	}

	start := time.Now()
	outstanding := 0
	for _, m := range s.byRank {
		m := m
		outstanding++
		go s.drive(m, 0)
	}

	var fatal error
	totalOps := 0
	recovered := 0
	for outstanding > 0 {
		select {
		case res := <-s.results:
			outstanding--
			totalOps += res.ops
			switch {
			case res.killedAt >= 0 && res.kind == EvKill:
				if fatal != nil {
					break // the run is already being torn down
				}
				m, rerr := s.replace(res.rank)
				if rerr != nil {
					fatal = fmt.Errorf("soak: replacing rank %d: %w", res.rank, rerr)
					s.closeAll()
					break
				}
				outstanding++
				from := m.nd.Phase()
				go s.drive(m, from)
				s.settle(m, from)
				post := s.snapshotFlush()
				s.addCrisis(post.Delta(res.pre))
				recovered++
			case res.killedAt >= 0:
				// node kill: unsurvivable by design, no replacement;
				// the survivors' failure is the expected outcome
			case res.err != nil:
				if fatal == nil {
					fatal = res.err
					s.closeAll() // unblock everything promptly
				}
			}
		case <-time.After(time.Until(s.deadline)):
			if fatal == nil {
				fatal = fmt.Errorf("%w after %v", errTimeout, cfg.Timeout)
			}
			s.closeAll()
		}
	}
	wall := time.Since(start).Seconds()

	if fatal != nil {
		if hasNodeKill && !errors.Is(fatal, errTimeout) {
			return nil, fmt.Errorf("soak: catastrophic correlated failure (as scheduled): %w", fatal)
		}
		return nil, fatal
	}

	// Verification: converged membership with the expected incarnations,
	// then window-for-window bit-identity against the in-process oracle.
	if err := s.verifyMembership(killCount); err != nil {
		s.closeAll()
		return nil, err
	}
	oracle, err := wl.Oracle()
	if err != nil {
		s.closeAll()
		return nil, fmt.Errorf("soak: oracle: %w", err)
	}
	words := wl.WindowWords()
	for r := 0; r < wl.Ranks; r++ {
		got := s.byRank[r].nd.ReadAt(0, words)
		for i := range got {
			if got[i] != oracle[r][i] {
				s.closeAll()
				return nil, fmt.Errorf("soak: rank %d word %d: fabric %#x, oracle %#x", r, i, got[i], oracle[r][i])
			}
		}
	}

	// Report from the final registries (dead incarnations included:
	// counts are cumulative across the whole run).
	chaos := ChaosSection{Recoveries: recovered}
	for _, ev := range evs {
		chaos.Events = append(chaos.Events, ev.String())
		switch ev.Kind {
		case EvKill:
			chaos.Kills++
		case EvNodeKill:
			chaos.NodeKills++
		case EvMute:
			chaos.Mutes++
		}
	}
	s.mu.Lock()
	snaps := make([]obs.Snapshot, len(s.regs))
	for i, reg := range s.regs {
		snaps[i] = reg.Snapshot()
	}
	crisisFlush := s.crisisFlush
	s.mu.Unlock()
	rep := buildReport(cfg.Transport, wl, cfg.Chaos.Seed, wall, uint64(totalOps), snaps, crisisFlush, chaos)
	s.closeAll()
	return &rep, nil
}

var errTimeout = errors.New("soak: timed out")

// drive runs phases [from, Phases) on one member, executing any chaos
// events scheduled for its rank at each phase top (think time), and
// reports exactly one result.
func (s *runState) drive(m *member, from int) {
	res := driveResult{rank: m.nd.Rank(), killedAt: -1}
	for p := from; p < s.wl.Phases; p++ {
		if f := s.claim(p, m.nd.Rank()); f != nil {
			switch f.ev.Kind {
			case EvKill, EvNodeKill:
				res.pre = s.snapshotFlush()
				s.awaitKillBarrier(f)
				m.nd.Close()
				res.killedAt, res.kind = p, f.ev.Kind
				s.results <- res
				return
			case EvMute:
				s.muteBarrier(f)
			}
		}
		if s.wl.PhaseDelay > 0 {
			time.Sleep(s.wl.PhaseDelay)
		}
		n, err := s.wl.RunPhase(m.nd, p)
		res.ops += n
		if err != nil {
			// A readback mismatch on a failed node is a symptom, not the
			// cause: surface the node's terminal error when there is one.
			if serr := m.nd.Sync(); serr != nil {
				err = serr
			}
			res.err = err
			s.results <- res
			return
		}
		if err := m.nd.Sync(); err != nil {
			res.err = err
			s.results <- res
			return
		}
	}
	s.results <- res
}

// claim returns the unconsumed firing for (phase, rank), if any. Global
// firings (mute barriers) match every rank.
func (s *runState) claim(phase, rank int) *firing {
	s.mu.Lock()
	fs := s.byPhase[phase]
	s.mu.Unlock()
	for _, f := range fs {
		involved := f.global
		for _, r := range f.ev.Ranks {
			if r == rank {
				involved = true
				break
			}
		}
		if !involved {
			continue
		}
		f.mu.Lock()
		had := f.claimed[rank]
		f.claimed[rank] = true
		f.mu.Unlock()
		if had {
			return nil
		}
		return f
	}
	return nil
}

// awaitKillBarrier makes correlated victims die together: every rank of
// a node-kill event arrives at its phase top, then all close at once.
func (s *runState) awaitKillBarrier(f *firing) {
	f.mu.Lock()
	f.arrived++
	if f.arrived == len(f.ev.Ranks) {
		close(f.release)
	}
	f.mu.Unlock()
	select {
	case <-f.release:
	case <-s.done:
	}
}

// muteBarrier rendezvouses the whole fabric at the mute event's phase
// top — everyone between Sync and the next phase, so no workload call is
// in flight — then the last arriver blackholes the victim's links both
// ways for a quarter of the lease window and restores them before
// releasing the fabric. The membership must ride the silence out without
// condemning anybody (verifyMembership checks afterwards).
func (s *runState) muteBarrier(f *firing) {
	f.mu.Lock()
	f.arrived++
	last := f.arrived == s.wl.Ranks
	f.mu.Unlock()
	if last {
		s.muteQuiesced(f.ev.Ranks[0])
		close(f.release)
		return
	}
	select {
	case <-f.release:
	case <-s.done:
	}
}

// muteQuiesced runs one both-ways mute window against rank. The caller
// guarantees the fabric is quiescent (only heartbeats and gossip flow,
// both fire-and-forget, so a destroyed frame strands nobody).
func (s *runState) muteQuiesced(rank int) {
	type edge struct {
		d    *flaky.Dialer
		addr string
	}
	var edges []edge
	s.mu.Lock()
	victim := s.byRank[rank]
	if victim == nil || s.closed {
		s.mu.Unlock()
		return
	}
	vAddr := victim.nd.Addr()
	vd := s.eps.eps[victim.ep].dialer
	for r, m := range s.byRank {
		if r == rank {
			continue
		}
		edges = append(edges,
			edge{s.eps.eps[m.ep].dialer, vAddr},
			edge{vd, m.nd.Addr()})
	}
	s.mu.Unlock()
	s.cfg.Logf("soak: muting rank %d both ways for %v", rank, s.muteDur)
	for _, e := range edges {
		e.d.Mute(e.addr)
	}
	time.Sleep(s.muteDur)
	for _, e := range edges {
		e.d.Unmute(e.addr)
	}
}

// replace waits for the kill to be detected, then joins a replacement
// for the victim's rank through a survivor, on the next spare endpoint.
func (s *runState) replace(rank int) (*member, error) {
	s.mu.Lock()
	var through *member
	for r := 0; r < s.wl.Ranks; r++ {
		if r != rank && s.byRank[r] != nil {
			through = s.byRank[r]
			break
		}
	}
	ep := s.spareNext
	s.spareNext++
	s.mu.Unlock()
	if through == nil {
		return nil, errors.New("no survivor to join through")
	}
	if err := s.awaitCondemned(through.nd, rank); err != nil {
		return nil, err
	}
	// A replacement host retries until the crisis hands it a world: the
	// fabric's own join patience (60s per attempt) can expire while a big
	// fabric's recovery is still grinding through its survivors.
	reg := obs.New(0)
	var nd *fabric.Node
	var err error
	for {
		nd, err = fabric.Join(fabric.JoinConfig{
			Join: through.nd.Addr(), Addr: s.eps.eps[ep].addr,
			Listener: s.eps.eps[ep].ln, Dialer: s.eps.eps[ep].dialer,
			Obs: reg, Logf: s.cfg.Logf,
		})
		if err == nil {
			break
		}
		if time.Now().After(s.deadline) {
			return nil, err
		}
		s.cfg.Logf("soak: replacement join for rank %d retrying: %v", rank, err)
	}
	if nd.Rank() != rank {
		nd.Close()
		return nil, fmt.Errorf("replacement took rank %d, want %d", nd.Rank(), rank)
	}
	reg.SetRank(rank)
	m := &member{nd: nd, reg: reg, ep: ep}
	s.mu.Lock()
	s.byRank[rank] = m
	s.regs = append(s.regs, reg)
	s.mu.Unlock()
	s.cfg.Logf("soak: rank %d replaced (inc %d), resuming at phase %d", rank, nd.Self().Incarnation, nd.Phase())
	return m, nil
}

// awaitCondemned polls observer's membership until rank is marked dead.
func (s *runState) awaitCondemned(observer *fabric.Node, rank int) error {
	for {
		for _, m := range observer.Members() {
			if m.Rank == rank && !m.Alive {
				return nil
			}
		}
		if time.Now().After(s.deadline) {
			return fmt.Errorf("%w awaiting condemnation of rank %d", errTimeout, rank)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settle waits until the replacement commits its first resumed phase —
// the survivors' barrier is released, closing the crisis window.
func (s *runState) settle(m *member, from int) {
	for m.nd.Self().Watermark <= from && !time.Now().After(s.deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *runState) snapshotFlush() obs.HistogramSnapshot {
	s.mu.Lock()
	snaps := make([]obs.Snapshot, len(s.regs))
	for i, reg := range s.regs {
		snaps[i] = reg.Snapshot()
	}
	s.mu.Unlock()
	return mergeHist(snaps, "fabric.flush.us")
}

func (s *runState) addCrisis(delta obs.HistogramSnapshot) {
	s.mu.Lock()
	s.crisisFlush.Count += delta.Count
	s.crisisFlush.Sum += delta.Sum
	for k, v := range delta.Buckets {
		s.crisisFlush.Buckets[k] += v
	}
	s.mu.Unlock()
}

func (s *runState) closeAll() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	ms := make([]*member, 0, len(s.byRank))
	for _, m := range s.byRank {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	if first {
		close(s.done)
	}
	for _, m := range ms {
		m.nd.Close()
	}
}

// verifyMembership demands every live node hold the same converged view:
// all ranks alive, each at exactly the incarnation its kill history
// implies — and in particular no live rank condemned by a transient mute.
func (s *runState) verifyMembership(killCount []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r, m := range s.byRank {
		for _, mb := range m.nd.Members() {
			if !mb.Alive {
				return fmt.Errorf("soak: rank %d still sees rank %d dead after the run", r, mb.Rank)
			}
			if mb.Incarnation != killCount[mb.Rank] {
				return fmt.Errorf("soak: rank %d sees rank %d at incarnation %d, want %d (one per kill)",
					r, mb.Rank, mb.Incarnation, killCount[mb.Rank])
			}
		}
	}
	return nil
}
