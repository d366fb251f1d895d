package ftrma

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rma"
)

// ErrFallback reports that causal recovery was impossible — a surviving
// rank had an in-flight get towards the failed rank (N flag, §3.2.3) or an
// undeleted combining put (M flag, §4.2) — and the system rolled every rank
// back to the last coordinated checkpoint instead.
var ErrFallback = errors.New("ftrma: causal recovery impossible, rolled back to coordinated checkpoint")

// RecoverResult describes the outcome of a recovery.
type RecoverResult struct {
	// Proc is the replacement process p_new, wrapped in the protocol.
	Proc *Process
	// Logs are the causally ordered accesses to replay (nil after a
	// coordinated fallback).
	Logs *ReplayLogs
	// FellBack reports whether the coordinated fallback was taken; the
	// caller must then restart every rank from its restored state.
	FellBack bool
}

// Recover replaces the failed rank f, following §4.3: spawn p_new, fetch
// its last (uncoordinated) checkpoint — reconstructed from the group parity
// and the surviving members' local copies — fetch the put and get logs
// about f from every survivor, and return them causally ordered for replay
// (Algorithm 2; for lock-based codes the same ordering degenerates to
// Algorithm 3's (SC, EC) order because GNC never changes).
//
// Recover must be called when no application code is running (the batch
// system has quiesced the survivors; they resume with p_new afterwards).
func (s *System) Recover(f int) (*RecoverResult, error) {
	if s.world.Alive(f) {
		return nil, fmt.Errorf("ftrma: rank %d has not failed", f)
	}
	s.bumpStats(func(st *Stats) { st.Recoveries++ })
	s.om.recoveries.Inc()
	total := obs.StartSpan(s.om.recoverUs, nil, 0, 0, 0)
	// Parity that resided at a now-dead rank is gone: rebuild what the
	// surviving member copies allow and re-elect hosts, before anything
	// below consults a shard.
	s.repairParityHosts(f)
	// Causal replay needs f alone dead (logs held at another dead rank are
	// gone, so Algorithm 2's fetch cannot be complete) and f's parity; else
	// the coordinated level takes over. Shards lost with their host read as
	// hosted at f.
	var dead []int
	for q := 0; q < s.world.N(); q++ {
		if !s.world.Alive(q) {
			dead = append(dead, q)
		}
	}
	host := func(group, level int) int {
		grp := s.groups[group]
		grp.mu.Lock()
		defer grp.mu.Unlock()
		if !grp.parity[level].valid {
			return f
		}
		return grp.parity[level].rank
	}
	fallback := Classify(s.grouping, host, NumLevels, dead, false) != VerdictCausal
	inner := s.world.Respawn(f)
	pnew := newProcess(s, inner)
	s.procs[f] = pnew

	var puts, gets []LogRecord
	gather := obs.StartSpan(s.om.gatherUs, nil, 0, 0, 0)
	s.world.RunRank(f, func() {
		if fallback {
			return
		}
		// Gather logs (Algorithm 2 lines 4-11), under the survivors'
		// structure locks to exclude concurrent cleanups.
		for q := 0; q < s.world.N(); q++ {
			if q == f || !s.world.Alive(q) {
				continue
			}
			qp := s.procs[q]
			// One gathering per survivor, under all three structure locks
			// (the protocol-level exclusion the separate reads used to
			// bracket individually): the flags plus the materialized
			// LP/LG records, owned copies that later trims or slab
			// compaction at the survivor cannot perturb.
			inner.Lock(q, rma.StrMeta)
			inner.Lock(q, rma.StrLP)
			inner.Lock(q, rma.StrLG)
			n, m := qp.logs.FlagN(f), qp.logs.FlagM(f)
			lp, lg := qp.logs.CopyLP(f), qp.logs.CopyLG(f)
			inner.Unlock(q, rma.StrLG)
			inner.Unlock(q, rma.StrLP)
			inner.Unlock(q, rma.StrMeta)
			if n || m {
				// Algorithm 2 line 6: stop and fall back.
				fallback = Classify(s.grouping, host, NumLevels, dead, true) != VerdictCausal
				return
			}
			bytes := 0
			for _, r := range lp {
				bytes += r.Bytes()
			}
			for _, r := range lg {
				bytes += r.Bytes()
			}
			inner.AdvanceTime(s.world.Params().TransferTime(bytes))
			puts = append(puts, lp...)
			gets = append(gets, lg...)
		}
	})
	gather.End()
	if fallback {
		s.om.fallbacks.Inc()
		if err := s.FallbackToCC(f); err != nil {
			return nil, err
		}
		total.End()
		return &RecoverResult{Proc: s.procs[f], FellBack: true}, ErrFallback
	}

	// fetch_checkpoint_data: reconstruct f's last UC checkpoint from the
	// parity and the survivors' local copies, then load it.
	restore := obs.StartSpan(s.om.restoreUs, nil, 0, 0, 0)
	data, snap, err := s.reconstructUC(f)
	if err != nil {
		return nil, err
	}
	s.restoreRank(pnew, data, snap)
	restore.End()
	// p_new must agree with the survivors on the coordinated-checkpoint
	// schedule, or the next gsync's collective decision diverges and the
	// checkpoint barrier deadlocks.
	for q := 0; q < s.world.N(); q++ {
		if q != f && s.world.Alive(q) {
			sp := s.procs[q]
			pnew.lastCC, pnew.ccDelta, pnew.ccInterval = sp.lastCC, sp.ccDelta, sp.ccInterval
			break
		}
	}
	s.om.causal.Inc()
	total.End()
	return &RecoverResult{Proc: pnew, Logs: ReplayOrder(puts, gets, -1)}, nil
}

// reconstructUC rebuilds rank f's latest uncoordinated checkpoint. Only a
// causal verdict gets here, so f is its group's one missing member.
func (s *System) reconstructUC(f int) ([]uint64, memberSnap, error) {
	grp := s.groupOf(f)
	survivors := make(map[int][]uint64, len(grp.members))
	for _, r := range grp.members {
		if r == f {
			continue
		}
		rp := s.procs[r]
		rp.ckptMu.Lock()
		survivors[r] = cloneWords(rp.ucData)
		rp.ckptMu.Unlock()
	}
	rec, err := grp.reconstruct(LevelUC, survivors, []int{f})
	if err != nil {
		return nil, memberSnap{}, err
	}
	grp.mu.Lock()
	snap := grp.ucSnaps[f]
	grp.mu.Unlock()
	if snap.epochs == nil {
		snap.epochs = make([]int, s.world.N())
	}
	return rec[f], snap, nil
}

// restoreRank loads checkpoint data and counters into a fresh process.
func (s *System) restoreRank(p *Process, data []uint64, snap memberSnap) {
	p.inner.LocalWrite(0, data)
	p.inner.AdvanceTime(s.world.Params().CopyTime(8 * len(data)))
	p.gc.Store(int64(snap.snap.GC))
	p.gnc.Store(int64(snap.snap.GNC))
	p.scSelf.Store(int64(snap.snap.SC))
	for q, e := range snap.epochs {
		p.appliedEpochs[q].Store(int64(e))
	}
	p.ckptMu.Lock()
	p.ucData = cloneWords(data)
	p.ckptMu.Unlock()
	// After a single-rank causal recovery the UC parity is untouched and
	// `data` is exactly f's folded contribution, so base and parity agree.
	// Global rollbacks instead re-seed the parity from scratch (see
	// reseedGroupParity).
}

// reseedGroupParity rebuilds every group's UC and CC parity from the
// ranks' current checkpoint copies. Rollback paths call it after restoring
// the copies: the pre-rollback contributions of failed ranks died with
// them, so the incremental parities cannot be patched — only re-encoded.
// Levels whose hosting rank died are handed to a freshly elected host on
// the way (every rank is alive again at this point, so a host is always
// found).
func (s *System) reseedGroupParity() {
	for _, grp := range s.groups {
		ucShards := s.encodeLevel(grp, LevelUC)
		ccShards := s.encodeLevel(grp, LevelCC)
		grp.mu.Lock()
		s.reinstallLevelLocked(grp, LevelUC, ucShards)
		s.reinstallLevelLocked(grp, LevelCC, ccShards)
		grp.mu.Unlock()
	}
}

// reinstallLevelLocked refreshes one level's shards after a rollback,
// re-electing the hosting rank first if the previous one died (grp.mu
// held).
func (s *System) reinstallLevelLocked(grp *chGroup, level int, shards [][]uint64) {
	pr := &grp.parity[level]
	if pr.rank >= 0 && (!pr.valid || !s.world.Alive(pr.rank)) {
		s.placeLevelLocked(grp, level, shards)
		s.bumpStats(func(st *Stats) { st.ParityHandoffs++ })
		return
	}
	pr.host.install(shards)
	pr.valid = true
}

// ReplayAll applies every fetched record in causal order (the recovery loop
// of Algorithm 2 lines 12-25, or Algorithm 3 for lock-based codes).
func (p *Process) ReplayAll(l *ReplayLogs) {
	maxPhase := l.MaxGNC()
	for phase := 0; phase <= maxPhase; phase++ {
		p.ReplayPhase(l, phase)
	}
}

// ReplayPhase applies the records of one gsync phase (equal GNC), puts in
// (SC, EC) order then gets in GC order — the inner loop of Algorithm 2.
// Applications recovering a rank alternate ReplayPhase with recomputation
// of their local work for that phase.
func (p *Process) ReplayPhase(l *ReplayLogs, gnc int) {
	params := p.sys.world.Params()
	replayed := 0
	for _, r := range l.Puts {
		if r.GNC != gnc {
			continue
		}
		p.applyRecord(r, params.CopyTime(8*len(r.Data)))
		replayed++
	}
	for _, r := range l.Gets {
		if r.GNC != gnc {
			continue
		}
		if r.LocalOff >= 0 {
			// The get's data lands where the original get put it.
			p.inner.LocalWrite(r.LocalOff, r.Data)
			p.inner.AdvanceTime(params.CopyTime(8 * len(r.Data)))
		}
		replayed++
	}
	if replayed > 0 {
		p.sys.bumpStats(func(st *Stats) { st.ActionsReplayed += replayed })
	}
}

// applyRecord re-executes one logged put against the local window.
func (p *Process) applyRecord(r LogRecord, cost float64) {
	switch {
	case r.Kind == LogPut && r.Op == rma.OpReplace:
		p.inner.LocalWrite(r.Off, r.Data)
	case r.Kind == LogPut:
		// Combining puts only reach replay via explicit opt-in paths
		// (they normally force the fallback through the M flag); apply
		// with the original op. The read goes through the non-aliasing
		// path so replay never downgrades the fresh window's stamps.
		cur := p.inner.ReadAt(r.Off, len(r.Data))
		for i, v := range r.Data {
			cur[i] = applyOp(r.Op, cur[i], v)
		}
		p.inner.LocalWrite(r.Off, cur)
	}
	p.inner.AdvanceTime(cost)
}

// applyOp mirrors rma's reduce semantics for replay.
func applyOp(op rma.ReduceOp, old, operand uint64) uint64 {
	switch op {
	case rma.OpReplace:
		return operand
	case rma.OpSum:
		return old + operand
	case rma.OpMax:
		if operand > old {
			return operand
		}
		return old
	case rma.OpMin:
		if operand < old {
			return operand
		}
		return old
	case rma.OpXor:
		return old ^ operand
	}
	panic("ftrma: unknown reduce op in replay")
}

// FallbackToCC rolls the whole computation back to the last coordinated
// checkpoint: every lost rank's copy — f plus any concurrently failed rank
// — is reconstructed from its group's CC parity, every survivor restores
// its own local CC copy, all logs are dropped, and the uncoordinated layer
// is re-seeded from the coordinated state. It fails (a catastrophic
// failure, §5.1) when some group lost more members than its parity
// tolerates. The caller restarts the application from the restored
// iteration.
func (s *System) FallbackToCC(f int) error {
	s.bumpStats(func(st *Stats) { st.Fallbacks++ })
	// Direct callers may reach here without passing through Recover:
	// repair dead-host parity first. Idempotent — levels Recover already
	// repaired have live hosts again, and f, respawned since, still counts
	// as lost.
	s.repairParityHosts(f)
	// Every rank whose coordinated copy is gone: f itself (it may already
	// have been respawned with empty state by Recover) plus all currently
	// dead ranks.
	lost := map[int]bool{f: true}
	for r := 0; r < s.world.N(); r++ {
		if !s.world.Alive(r) {
			lost[r] = true
		}
	}
	rec := make(map[int][]uint64)
	for _, grp := range s.groups {
		var missing []int
		survivors := make(map[int][]uint64)
		for _, r := range grp.members {
			if lost[r] {
				missing = append(missing, r)
				continue
			}
			rp := s.procs[r]
			rp.ckptMu.Lock()
			survivors[r] = cloneWords(rp.ccData)
			rp.ckptMu.Unlock()
		}
		if len(missing) == 0 {
			continue
		}
		out, err := grp.reconstruct(LevelCC, survivors, missing)
		if err != nil {
			return fmt.Errorf("ftrma: catastrophic failure: %w", err)
		}
		for r, d := range out {
			rec[r] = d
		}
	}

	// Replace every failed rank.
	for r := range lost {
		if !s.world.Alive(r) {
			inner := s.world.Respawn(r)
			s.procs[r] = newProcess(s, inner)
		}
	}

	// Restore every rank from its coordinated copy and drop all logs; both
	// checkpoint bases are re-seeded from the coordinated state.
	for r := 0; r < s.world.N(); r++ {
		rp := s.procs[r]
		var data []uint64
		grp := s.groupOf(r)
		if d, ok := rec[r]; ok {
			data = d
		} else {
			rp.ckptMu.Lock()
			data = cloneWords(rp.ccData)
			rp.ckptMu.Unlock()
		}
		grp.mu.Lock()
		snap, ok := grp.ccSnaps[r]
		grp.mu.Unlock()
		if !ok || snap.epochs == nil {
			snap = memberSnap{epochs: make([]int, s.world.N())}
		}
		s.world.RunRank(r, func() {
			s.restoreRank(rp, data, snap)
		})
		rp.ckptMu.Lock()
		rp.ucData = cloneWords(data)
		rp.ccData = cloneWords(data)
		rp.ckptMu.Unlock()
		grp.mu.Lock()
		grp.ucSnaps[r] = snap
		grp.mu.Unlock()
		rp.resetVolatileProtocolState()
	}
	// The parities still fold the pre-rollback contributions (for dead
	// ranks those copies are gone, so no delta can repair them): rebuild
	// both levels from the restored bases.
	s.reseedGroupParity()
	return nil
}

// resetVolatileProtocolState drops logs, flags, and pending protocol state
// after a coordinated rollback, and resets the coordinated-checkpoint
// schedule so every rank re-anchors at the same future gsync.
func (p *Process) resetVolatileProtocolState() {
	p.logs.Reset()
	p.qPending = make(map[int][]pendingGet)
	p.nOpen = make(map[int]bool)
	p.scHeld = make(map[int]int)
	p.lc = 0
	p.demandFlag.Store(false)
	p.lastCC = 0
	p.initCCSchedule()
}
