package fabric

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/erasure"
	"repro/internal/ftrma"
	"repro/internal/obs"
	"repro/internal/transport/wire"
)

// maybeArbiter starts the crisis routine when this node is the lowest
// surviving rank and somebody is dead. Arbitration is deterministic —
// every survivor computes the same arbiter from its own table — and
// survives the arbiter's own death: the next-lowest survivor takes over
// the next vacancy. Whether a crisis is survivable is ftrma.Classify over
// the membership and hosting tables with one parity level: the fabric has
// no coordinated level, so it refuses every Fallback verdict (several
// ranks dead at once, an N/M-flagged victim, a group that lost a member
// and its parity host) until it gains one (ROADMAP item 5, step 0); the
// in-process ftrma stack recovers those.
func (nd *Node) maybeArbiter() {
	if nd.state.Load() != stLive || nd.failedOrClosed() != nil {
		return
	}
	nd.mmu.Lock()
	arbiter, victim, dead := nd.censusLocked()
	start := arbiter.Rank == nd.rank && len(dead) > 0 && !nd.crisisBusy
	if start {
		nd.crisisBusy = true
	}
	nd.mmu.Unlock()
	if !start {
		return
	}
	nd.spawn(func() {
		err := nd.runCrisis(victim.Rank, victim.Incarnation)
		nd.mmu.Lock()
		nd.crisisBusy = false
		nd.mmu.Unlock()
		// A crisis cut short by this node's own Close is not the world's to
		// fail: the survivors see the arbiter go down, as any fail-stop, and
		// the next-lowest takes the crisis over. Close leaves its connections
		// up while it answers the folds it holds, so a broadcast from here
		// would still reach them.
		if err != nil && !nd.closed() {
			nd.broadcastCrisisFail(err)
			nd.fail(err)
		}
	})
}

// censusLocked reads the membership table the way every rank must read it
// alike: the lowest live member is the arbiter (Rank -1: nobody is alive),
// the lowest dead one the next victim, and dead lists the vacancies.
func (nd *Node) censusLocked() (arbiter, victim Member, dead []int) {
	arbiter.Rank, victim.Rank = -1, -1
	for _, m := range nd.members {
		switch {
		case !m.Alive:
			if dead = append(dead, m.Rank); len(dead) == 1 {
				victim = m
			}
		case arbiter.Rank < 0:
			arbiter = m
		}
	}
	return arbiter, victim, dead
}

// verdictLocked classifies the crash of the dead ranks over the hosting
// table (mmu held). The fabric keeps one parity level, so every verdict
// but causal is unsurvivable here.
func (nd *Node) verdictLocked(dead []int, flagged bool) ftrma.Verdict {
	host := func(g, _ int) int { return nd.hostings[g].Host }
	return ftrma.Classify(nd.grouping, host, 1, dead, flagged)
}

// broadcastCrisisFail tells every survivor the crisis is unrecoverable,
// so their Sync calls return the failure instead of parking forever at
// the watermark barrier behind a replacement that cannot come.
func (nd *Node) broadcastCrisisFail(cause error) {
	var e wire.Enc
	e.Str(cause.Error())
	nd.mmu.Lock()
	peers := nd.alivePeersLocked()
	nd.mmu.Unlock()
	nd.notify(peers, fCrisisFail, e.Bytes())
}

// runCrisis is the arbiter's part in the recovery of one dead rank: quiesce,
// gather, classify, hand the install to the replacement, which rebuilds its
// own state (Node.restore) and confirms, then resume.
func (nd *Node) runCrisis(victim, vinc int) error {
	nd.logf("fabric: rank %d arbitrates crisis for rank %d (inc %d)", nd.rank, victim, vinc)
	nd.om.crises.Inc()
	nd.fr.Record(obs.EvCrisis, int64(obs.CrisisTotal), int64(victim), 0) // begin marker
	total := obs.StartSpan(nd.om.crisis[obs.CrisisTotal], nd.fr, obs.EvCrisis, int64(obs.CrisisTotal), int64(victim))

	// 1. Quiesce this node and every survivor at once. An ack certifies
	// the survivor's parity/base exchange is at rest until fCrisisEnd. A
	// survivor's ack waits for its own fold to be answered, which its host
	// does when its own quiesce begins: the calls go out together, so no
	// ack waits for a quiesce queued behind it.
	quiesce := obs.StartSpan(nd.om.crisis[obs.CrisisQuiesce], nd.fr, obs.EvCrisis, int64(obs.CrisisQuiesce), int64(victim))
	nd.beginQuiesce()
	survivors := nd.surviving(victim)
	errs := make([]error, len(survivors))
	var wg sync.WaitGroup
	for i, s := range survivors {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := wire.NewVec()
			v.I(victim)
			v.I(vinc)
			if _, err := nd.callRank(s.Rank, fCrisisBegin, v); err != nil {
				errs[i] = fmt.Errorf("fabric: crisis quiesce of rank %d failed (double failure?): %w", s.Rank, err)
			}
		}()
	}
	nd.awaitFoldSettled()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	quiesce.End()

	// 2. Gather the victim's logs from every survivor and from ourselves.
	gather := obs.StartSpan(nd.om.crisis[obs.CrisisGather], nd.fr, obs.EvCrisis, int64(obs.CrisisGather), int64(victim))
	nd.awaitLogged(victim)
	nd.logMu.Lock()
	puts := nd.logs.CopyLP(victim)
	gets := nd.logs.CopyLG(victim)
	flagged := nd.logs.FlagN(victim) || nd.logs.FlagM(victim)
	nd.logMu.Unlock()
	for _, s := range survivors {
		v := wire.NewVec()
		v.I(victim)
		reply, err := nd.callRank(s.Rank, fLogFetch, v)
		if err != nil {
			return fmt.Errorf("fabric: log fetch from rank %d failed: %w", s.Rank, err)
		}
		d := wire.NewDec(reply)
		n, m := d.B() != 0, d.B() != 0
		lp, ok := decRecordList(d)
		if !ok {
			return fmt.Errorf("fabric: undecodable log fetch reply from rank %d", s.Rank)
		}
		lg, ok := decRecordList(d)
		if !ok {
			return fmt.Errorf("fabric: undecodable log fetch reply from rank %d", s.Rank)
		}
		flagged = flagged || n || m
		puts = append(puts, lp...)
		gets = append(gets, lg...)
	}
	gather.End()
	nd.mmu.Lock()
	_, _, dead := nd.censusLocked()
	verdict := nd.verdictLocked(dead, flagged)
	nd.mmu.Unlock()
	switch {
	case verdict == ftrma.VerdictCausal:
	case len(dead) > 1:
		return fmt.Errorf("fabric: %d ranks dead at once; the fabric recovers single failures", len(dead))
	case flagged:
		return errors.New("fabric: victim has N/M-flagged epochs; non-causal recovery needs the in-process ftrma stack")
	default:
		return fmt.Errorf("fabric: group %d lost both a member and its parity host (rank %d)", nd.grouping.GroupOf(victim), victim)
	}

	// 3. Park the gathered logs for the replacement's fJoin. The replacement
	// rebuilds its own state from the survivors, which stay quiesced until
	// it confirms (Node.restore), so no window passes through here. Every
	// membership change (and Close) wakes this wait: a crash the verdict no
	// longer calls causal — a second victim — fails the run instead of
	// waiting for a replacement whose install can never complete, and a
	// replacement that hangs up before it confirms leaves the install parked
	// again, for the next one under a newer incarnation.
	installSpan := obs.StartSpan(nd.om.crisis[obs.CrisisInstall], nd.fr, obs.EvCrisis, int64(obs.CrisisInstall), int64(victim))
	pi := &pendingInstall{rank: victim, inc: vinc + 1, in: &install{puts: puts, gets: gets}}
	nd.logf("fabric: rank %d's logs gathered (%d put / %d get records); awaiting replacement", victim, len(puts), len(gets))
	nd.mmu.Lock()
	nd.pending = pi
	nd.mcond.Broadcast() // a join held by handleJoin takes the install from here
	for !pi.confirmed {
		_, _, dead := nd.censusLocked()
		lost := nd.verdictLocked(dead, false) != ftrma.VerdictCausal
		if lost || nd.state.Load() == stClosed {
			nd.pending = nil
			nd.mmu.Unlock()
			if lost {
				return fmt.Errorf("fabric: %d ranks dead while recovering rank %d; the fabric recovers single failures", len(dead), victim)
			}
			return ErrClosed
		}
		if pi.joiner != nil && nd.hungUp(pi.joiner) {
			pi.joiner = nil
			pi.inc++
			nd.mcond.Broadcast()
			nd.mmu.Unlock()
			nd.logf("fabric: rank %d's replacement left before confirming; install parked again", victim)
			nd.mmu.Lock()
			continue
		}
		nd.mcond.Wait()
	}
	nd.mmu.Unlock()
	installSpan.End()

	var end wire.Enc
	nd.mmu.Lock()
	encMembers(&end, nd.members)
	peers := nd.alivePeersLocked()
	nd.recoveries++
	rec := nd.recoveries
	nd.mmu.Unlock()
	nd.notify(peers, fCrisisEnd, end.Bytes())
	nd.endQuiesce()
	if nd.hosts(victim) {
		nd.announce(true) // the replacement hosts, and has heard no readiness yet
	}
	total.End()
	nd.dumpFlight(fmt.Sprintf("crisis%d", rec))
	nd.logf("fabric: crisis for rank %d resolved (inc %d)", victim, pi.inc)
	return nil
}

// surviving snapshots the live peers other than victim and self.
func (nd *Node) surviving(victim int) []Member {
	nd.mmu.Lock()
	defer nd.mmu.Unlock()
	var out []Member
	for _, m := range nd.members {
		if m.Rank != nd.rank && m.Rank != victim && m.Alive {
			out = append(out, m)
		}
	}
	return out
}

// fetchState gathers the operands of one rebuild — the committed bases of
// ranks and, when host ≥ 0, group g's parity at host — and returns their
// XOR, the ranks' snapshots in order, and the parity's member count and
// snapshots (its shard is in the sum: parity.shards is nil).
//
// The fetches go to different ranks and each is a window's worth of bytes to
// wait for, so two run at a time; more would only multiply the window-sized
// buffers in flight. Each reply is received into a buffer of its own and
// none is copied at the sender, whose reply gathers from its state: the
// first reply to arrive holds the sum, and every later one is XORed into it
// as it comes and then let go.
func (nd *Node) fetchState(ranks []int, host, g int) (sum []uint64, snaps []snap, parity *hostedGroup, err error) {
	var (
		wg    sync.WaitGroup
		sumMu sync.Mutex
		errs  = make([]error, len(ranks)+1)
		sem   = make(chan struct{}, 2)
	)
	snaps = make([]snap, len(ranks))
	fetch := func(i int, f func() ([]uint64, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			w, err := f()
			<-sem
			if errs[i] = err; err == nil {
				sumMu.Lock()
				if sum == nil {
					sum = w
				} else {
					erasure.XorWords(sum, w)
				}
				sumMu.Unlock()
			}
		}()
	}
	for i, r := range ranks {
		i, r := i, r
		fetch(i, func() (base []uint64, err error) {
			snaps[i], base, err = nd.fetchBase(r)
			return base, err
		})
	}
	if host >= 0 {
		fetch(len(ranks), func() (shard []uint64, err error) {
			parity, shard, err = nd.fetchParity(host, g)
			return shard, err
		})
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, err
	}
	return sum, snaps, parity, nil
}

// fetchBase returns rank's committed base and snapshot, consistent with its
// group parity (quiesce is in force). The base is a view of the reply.
func (nd *Node) fetchBase(rank int) (snap, []uint64, error) {
	reply, err := nd.callRank(rank, fBaseFetch, nil)
	if err != nil {
		return snap{}, nil, fmt.Errorf("fabric: base fetch from rank %d failed: %w", rank, err)
	}
	d := wire.NewDec(reply)
	s, ok := decSnap(d)
	if !ok {
		return snap{}, nil, fmt.Errorf("fabric: undecodable base fetch reply from rank %d", rank)
	}
	base := d.WordsAlias()
	if d.Failed() || len(base) != nd.windowWords {
		return snap{}, nil, fmt.Errorf("fabric: base fetch from rank %d returned %d words, window is %d", rank, len(base), nd.windowWords)
	}
	return s, base, nil
}

// fetchParity returns group g's shard set from host: its counters, and its
// one shard apart from them, a view of the reply.
func (nd *Node) fetchParity(host, g int) (*hostedGroup, []uint64, error) {
	v := wire.NewVec()
	v.I(g)
	reply, err := nd.callRank(host, fParityFetch, v)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: parity fetch from rank %d failed: %w", host, err)
	}
	d := wire.NewDec(reply)
	hg, err := decHostedGroup(d, nd.windowWords)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: parity fetch from rank %d: %w", host, err)
	}
	shard := hg.shards[0]
	hg.shards = nil
	return hg, shard, nil
}

// handleJoin serves fJoin as a long poll. A node the census does not name
// arbiter redirects to the one it does. The arbiter holds the request — it
// runs on its own goroutine — until an install is parked and answers with
// the world and the install, in the same exchange whether the join arrived
// before the crisis began, during it or after. A held request is let go when
// the arbitration moves elsewhere, the node fails or closes, or the joiner
// hangs up. The joiner that took the install confirms on the same connection
// (confirmJoin); until then the install stays its own, and the world it was
// given names it under the install's incarnation while the table here still
// holds the victim.
func (nd *Node) handleJoin(st *connState, d *wire.Dec) (byte, *wire.Vec, error) {
	addr := d.Str()
	if d.Failed() || addr == "" {
		return fJoin, nil, errBadFrame
	}
	if d.Rem() > 0 {
		phase := d.I()
		if d.Failed() {
			return fJoin, nil, errBadFrame
		}
		return nd.confirmJoin(st, addr, phase)
	}
	nd.mmu.Lock()
	for nd.pending == nil || nd.pending.joiner != nil {
		if err := nd.failedOrClosed(); err != nil {
			nd.mmu.Unlock()
			return fJoin, nil, err
		}
		if nd.hungUp(st) {
			nd.mmu.Unlock()
			return fJoin, nil, errors.New("fabric: joiner hung up")
		}
		if arbiter, _, _ := nd.censusLocked(); arbiter.Rank >= 0 && arbiter.Rank != nd.rank {
			nd.mmu.Unlock()
			v := wire.NewVec()
			v.B(jmRedirect)
			v.Str(arbiter.Addr)
			return fJoin, v, nil
		}
		nd.mcond.Wait() // for a verdict, the parked install, Close, or the hang-up
	}
	pi := nd.pending
	pi.joiner = st
	members := slices.Clone(nd.members)
	members[pi.rank] = Member{Rank: pi.rank, Addr: addr, Incarnation: pi.inc, Alive: true}
	nd.mmu.Unlock()
	v := wire.NewVec()
	v.B(jmWorld)
	encWorld(v, world{
		rank: pi.rank, n: nd.n, windowWords: nd.windowWords, groups: nd.grouping.NumGroups,
		tuning: nd.tun(), meta: nd.meta, members: members, hostings: nd.hostings,
	})
	v.B(1)
	encInstall(v, pi.in) // gathers the records' words from the gathered logs
	return fJoin, v, nil
}

// confirmJoin ends an install: the joiner on st has rebuilt its state and
// stands at phase. It enters the table here, under the install's
// incarnation — from here on the survivors' parked deliveries and fold
// retries go to it — and the arbiter's runCrisis ends the crisis.
func (nd *Node) confirmJoin(st *connState, addr string, phase int) (byte, *wire.Vec, error) {
	nd.mmu.Lock()
	pi := nd.pending
	if pi == nil || pi.joiner != st || phase < 0 {
		nd.mmu.Unlock()
		return fJoin, nil, errors.New("fabric: no install of this joiner to confirm")
	}
	nd.members[pi.rank] = Member{Rank: pi.rank, Addr: addr, Incarnation: pi.inc, Alive: true, Watermark: phase}
	pi.confirmed = true
	nd.pending = nil
	nd.mcond.Broadcast() // the arbiter's parked runCrisis among them
	nd.mmu.Unlock()
	nd.answerHeld() // the replacement's watermark is in the table
	nd.spawn(nd.gossipNow)
	return fJoin, nil, nil
}

// hungUp reports whether the inbound connection st has gone down.
func (nd *Node) hungUp(st *connState) bool {
	nd.cmu.Lock()
	defer nd.cmu.Unlock()
	return st.down
}

// hosts reports whether rank hosts the parity of a group.
func (nd *Node) hosts(rank int) bool {
	return slices.ContainsFunc(nd.hostings, func(h Hosting) bool { return h.Host == rank })
}
