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
		if err != nil {
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

// runCrisis is the arbiter's recovery of one dead rank, start to finish:
// quiesce, gather, repair hosting, reconstruct, install, resume.
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

	rebuild := obs.StartSpan(nd.om.crisis[obs.CrisisRebuild], nd.fr, obs.EvCrisis, int64(obs.CrisisRebuild), int64(victim))
	// 3. Re-home every parity group the victim hosted: rebuild the shard —
	// the fabric's parity is RS(k, 1), the XOR of the members' committed
	// bases — and install it at a freshly elected host. (Quiesce
	// guarantees base/parity agreement.)
	hostings := nd.Hostings()
	alive := func(r int) bool {
		nd.mmu.Lock()
		defer nd.mmu.Unlock()
		return nd.members[r].Alive
	}
	rehomed := false
	for _, h := range hostings {
		if h.Host != victim {
			continue
		}
		members := nd.grouping.ComputeMembers(h.Group)
		parity, snaps, _, err := nd.fetchState(members, -1, h.Group)
		if err != nil {
			return err
		}
		folded := make([]int, len(members))
		for i, s := range snaps {
			folded[i] = s.phase
		}
		rs, err := erasure.NewRS(len(members), 1)
		if err != nil {
			return err
		}
		newHost := ftrma.ElectParityHost(nd.n, members, h.Group, 0, alive, victim)
		if newHost < 0 {
			return fmt.Errorf("fabric: no electable parity host left for group %d", h.Group)
		}
		hg := &hostedGroup{k: len(members), rs: rs, shards: [][]uint64{parity}, snaps: snaps, folded: folded, answered: slices.Clone(folded)}
		if newHost == nd.rank {
			nd.parMu.Lock()
			nd.hosted[h.Group] = hg
			nd.parMu.Unlock()
			nd.adoptFolds(h.Group, hg)
		} else {
			v := wire.NewVec()
			v.I(h.Group)
			encHostedGroup(v, hg) // gathers the shard from the rebuilt buffer
			if _, err := nd.callRank(newHost, fParityInstall, v); err != nil {
				return fmt.Errorf("fabric: parity install at rank %d failed: %w", newHost, err)
			}
		}
		nd.mmu.Lock()
		nd.hostings[h.Group] = Hosting{Group: h.Group, Host: newHost, Version: h.Version + 1}
		nd.mmu.Unlock()
		rehomed = true
		nd.om.parityHandoffs.Inc()
		nd.fr.Record(obs.EvParityHandoff, int64(h.Group), int64(newHost), int64(h.Version+1))
		nd.logf("fabric: group %d parity re-homed from rank %d to rank %d", h.Group, victim, newHost)
	}

	// 4. Reconstruct the victim's committed base: the XOR of its group's
	// parity and the surviving members' bases.
	vg := nd.grouping.GroupOf(victim)
	vIdx := nd.grouping.MemberIndex(victim)
	members := nd.grouping.ComputeMembers(vg)
	nd.mmu.Lock()
	host := nd.hostings[vg]
	nd.mmu.Unlock()
	others := slices.DeleteFunc(slices.Clone(members), func(r int) bool { return r == victim })
	vBase, _, hg, err := nd.fetchState(others, host.Host, vg)
	if err != nil {
		return err
	}
	if hg.k != len(members) || vIdx >= hg.k {
		return fmt.Errorf("fabric: parity of group %d has %d members, expected %d", vg, hg.k, len(members))
	}
	vSnap := hg.snaps[vIdx]
	nd.om.parityRebuilds.Inc()
	rebuild.End()

	// 5. Select and order the replay from the victim's committed phase.
	replay := ftrma.ReplayOrder(puts, gets, vSnap.phase)
	in := &install{snap: vSnap, base: vBase, puts: replay.Puts, gets: replay.Gets}

	// 6. Park the install for the replacement's fJoin and wait for the
	// handoff; then publish the post-crisis world and resume.
	installSpan := obs.StartSpan(nd.om.crisis[obs.CrisisInstall], nd.fr, obs.EvCrisis, int64(obs.CrisisInstall), int64(victim))
	pi := &pendingInstall{rank: victim, inc: vinc + 1, in: in}
	nd.logf("fabric: rank %d reconstructed (phase %d, %d put / %d get replays); awaiting replacement",
		victim, vSnap.phase, len(in.puts), len(in.gets))
	// Park until handleJoin takes the install. Every membership change
	// (and Close) wakes us: a crash the verdict no longer calls causal — a
	// second victim — means correlated loss; abandon the install and fail
	// the run instead of waiting forever for a replacement whose install
	// can never complete.
	nd.mmu.Lock()
	nd.pending = pi
	// A join held by handleJoin takes the install from here and clears it.
	nd.mcond.Broadcast()
	for ; nd.pending == pi; nd.mcond.Wait() {
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
	}
	nd.mmu.Unlock()
	installSpan.End()

	var end wire.Enc
	nd.mmu.Lock()
	encMembers(&end, nd.members)
	encHostings(&end, nd.hostings)
	peers := nd.alivePeersLocked()
	nd.recoveries++
	rec := nd.recoveries
	nd.mmu.Unlock()
	nd.notify(peers, fCrisisEnd, end.Bytes())
	nd.endQuiesce()
	if rehomed {
		nd.announce(true) // the new host has heard no readiness yet
	}
	total.End()
	nd.dumpFlight(fmt.Sprintf("crisis%d", rec))
	nd.logf("fabric: crisis for rank %d resolved (inc %d)", victim, vinc+1)
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

// fetchState gathers what one rebuild step reads — the committed bases of
// ranks and, host permitting (≥ 0), group g's parity at host — and returns
// the XOR of them all, with the ranks' snapshots in order and the parity's
// member count and snapshots (its shard is in the sum: parity.shards is nil).
//
// The fetches go to different ranks and each is a window's worth of bytes to
// wait for, so two run at a time; more would only multiply the window-sized
// buffers in flight. Each pins one window buffer here, its reply, and none at
// the sender, whose reply gathers from its state: the first reply to arrive
// holds the sum, and every later one is XORed into it as it comes and then
// let go. This node's own base — the window with its saved chunks laid over
// it (eachBase) — and hosted shard are read in place, under their locks,
// and never written; only when no operand came over the wire is the sum a
// fresh buffer.
func (nd *Node) fetchState(ranks []int, host, g int) (sum []uint64, snaps []snap, parity *hostedGroup, err error) {
	var (
		wg    sync.WaitGroup
		sumMu sync.Mutex
		errs  = make([]error, len(ranks)+1)
		sem   = make(chan struct{}, 2)
	)
	snaps = make([]snap, len(ranks))
	// add folds w, the sum's words from off on, into the sum. The caller
	// holds the lock that guards w's owner (ours) or the sum (a fetched
	// buffer, always whole).
	add := func(off int, w []uint64, fetched bool) {
		switch {
		case sum != nil:
			erasure.XorWords(sum[off:off+len(w)], w)
		case fetched:
			sum = w
		default:
			sum = make([]uint64, nd.windowWords)
			copy(sum[off:], w)
		}
	}
	fetch := func(i int, f func() ([]uint64, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			w, err := f()
			<-sem
			if errs[i] = err; err == nil {
				sumMu.Lock()
				add(0, w, true)
				sumMu.Unlock()
			}
		}()
	}
	self := -1
	for i, r := range ranks {
		if r == nd.rank {
			self = i
			continue
		}
		i, r := i, r
		fetch(i, func() (base []uint64, err error) {
			snaps[i], base, err = nd.fetchBase(r)
			return base, err
		})
	}
	if host >= 0 && host != nd.rank {
		fetch(len(ranks), func() (shard []uint64, err error) {
			parity, shard, err = nd.fetchParity(host, g)
			return shard, err
		})
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, err
	}
	// Our own operands go in last, under the locks that guard them.
	if self >= 0 {
		nd.ckptMu.Lock()
		nd.winMu.Lock()
		snaps[self] = nd.snapSelf
		nd.eachBase(func(off int, w []uint64) { add(off, w, false) })
		nd.winMu.Unlock()
		nd.ckptMu.Unlock()
	}
	if host >= 0 && host == nd.rank {
		nd.parMu.Lock()
		defer nd.parMu.Unlock()
		hg := nd.hosted[g]
		if hg == nil {
			return nil, nil, nil, fmt.Errorf("fabric: rank %d is not hosting group %d", nd.rank, g)
		}
		parity = &hostedGroup{k: hg.k, snaps: slices.Clone(hg.snaps)}
		add(0, hg.shards[0], false)
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
// runs on its own goroutine — until the reconstruction is parked and answers
// with the replacement's full install, in the same exchange whether the join
// arrived before the crisis began, during it or after. A held request is let
// go when the arbitration moves elsewhere, the node fails or closes, or the
// joiner hangs up.
func (nd *Node) handleJoin(st *connState, d *wire.Dec) (byte, *wire.Vec, error) {
	addr := d.Str()
	if d.Failed() || addr == "" {
		return fJoin, nil, errBadFrame
	}
	nd.mmu.Lock()
	for nd.pending == nil {
		if err := nd.failedOrClosed(); err != nil {
			nd.mmu.Unlock()
			return fJoin, nil, err
		}
		nd.cmu.Lock()
		gone := st.down
		nd.cmu.Unlock()
		if gone {
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
	nd.pending = nil
	m := &nd.members[pi.rank]
	*m = Member{Rank: pi.rank, Addr: addr, Incarnation: pi.inc, Alive: true, Watermark: pi.in.snap.phase + 1}
	w := world{
		rank: pi.rank, n: nd.n, windowWords: nd.windowWords, groups: nd.grouping.NumGroups,
		tuning: nd.tun(), meta: nd.meta,
		members:  append([]Member(nil), nd.members...),
		hostings: append([]Hosting(nil), nd.hostings...),
	}
	nd.mmu.Unlock()
	v := wire.NewVec()
	v.B(jmWorld)
	encWorld(v, w)
	v.B(1)
	encInstall(v, pi.in) // gathers the base from the rebuilt buffer
	nd.mcond.Broadcast() // the arbiter's parked runCrisis among them
	nd.answerHeld()      // the replacement's watermark is in the table
	nd.spawn(nd.gossipNow)
	return fJoin, v, nil
}
