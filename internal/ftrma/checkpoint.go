package ftrma

import (
	"fmt"

	"repro/internal/daly"
	"repro/internal/rma"
)

// ---- Uncoordinated / demand checkpointing (layer 2, §3.2.2 and §6.2) -------

// maybeDemandCheckpoint runs after log growth: when the log budget is
// exceeded, first try to trim against peers' existing checkpoints, then
// request a demand checkpoint of the peer holding the most log bytes
// here. bytesNow is the footprint the triggering append reported, so the
// common under-budget case costs no extra read of the log store.
func (p *Process) maybeDemandCheckpoint(bytesNow int) {
	budget := p.sys.cfg.Log.BudgetBytes
	if budget == 0 || bytesNow <= budget {
		return
	}
	victim, _ := p.logs.largestPeer()
	if victim < 0 {
		return
	}
	p.trimAgainst(victim)
	if p.logs.Bytes() <= budget {
		return
	}
	vp := p.sys.procs[victim]
	if victim == p.Rank() {
		// The biggest logs here protect this very rank (gets others issued
		// at us): checkpoint ourselves right away.
		p.takeUCCheckpoint()
		return
	}
	if !vp.demandFlag.Swap(true) {
		// Request: p -> CH{victim} -> victim (§6.2). The victim services
		// the flag at its next epoch close; we charge the request round
		// trip and re-trim opportunistically later.
		p.inner.AdvanceTime(2 * p.sys.world.Params().NetLatency)
		p.sys.bumpStats(func(st *Stats) { st.DemandRequests++ })
	}
}

// serviceDemand runs at this rank's epoch-close points: if a peer requested
// a demand checkpoint of this rank, take it now — this naturally satisfies
// the epoch condition of §3.2.2 (checkpoints are taken right after
// closing/opening an epoch).
func (p *Process) serviceDemand() {
	if p.demandFlag.Swap(false) {
		p.takeUCCheckpoint()
	}
}

// trimAgainst deletes log records about peer q that q's latest
// uncoordinated checkpoint covers, using the counter snapshot the CH holds
// (§6.2: delete actions with EC < E(p->q), GNC < GNC_q, GC < GC_q).
func (p *Process) trimAgainst(q int) {
	grp := p.sys.groupOf(q)
	grp.mu.Lock()
	snap, ok := grp.ucSnaps[q]
	grp.mu.Unlock()
	if !ok {
		return
	}
	self := p.Rank()
	freed := 0
	p.inner.Lock(self, rma.StrLP)
	freed += p.logs.TrimLP(q, snap.epochs[self])
	p.inner.Unlock(self, rma.StrLP)
	p.inner.Lock(self, rma.StrLG)
	freed += p.logs.TrimLG(q, snap.snap.GNC, snap.snap.GC)
	p.inner.Unlock(self, rma.StrLG)
	if freed > 0 {
		p.sys.bumpStats(func(st *Stats) { st.LogBytesTrimmed += freed })
	}
}

// ckptPlan is one prepared checkpoint: a consistent snapshot of the window
// contents that changed since the level's cursor, plus the chunk batches
// the pipeline moves. Planning performs no virtual-time charging and does
// not touch the parity, the base copy, or the cursor — those commit later,
// after (UC) or before (CC) the modeled data movement.
type ckptPlan struct {
	ranges  []rma.DirtyRange // maximal dirty ranges, sorted, disjoint
	batches []rma.DirtyRange // ranges split into stream chunk batches
	gen     uint64           // window generation cursor after the snapshot
	src     []uint64         // snapshot buffer the ranges index into
}

// planCheckpoint snapshots the dirty region of the local window into dst
// (under the window lock, so the snapshot is consistent against concurrent
// remote applies) and returns the plan. Under Config.FullCheckpoints the
// whole window is snapshotted regardless of dirtiness. Runs with p.ckptMu
// held.
func (p *Process) planCheckpoint(dst, base []uint64, gen uint64) ckptPlan {
	var plan ckptPlan
	if p.sys.cfg.FullCheckpoints {
		plan.src = p.inner.ReadAt(0, len(base))
		plan.ranges = []rma.DirtyRange{{Off: 0, Len: len(base)}}
		plan.gen = gen
	} else {
		plan.ranges, plan.gen = p.inner.LocalReadDirty(dst, gen)
		plan.src = dst
	}
	plan.batches = chunkRanges(plan.ranges, p.streamChunkWords())
	return plan
}

// commitCheckpoint integrates a planned checkpoint: fold the batches into
// one level's parity shards through the Stream.Depth worker pool and
// refresh the base copy. Pure computation: no virtual-time charging, no
// kill points. Runs with p.ckptMu held.
func (p *Process) commitCheckpoint(grp *chGroup, level int, base []uint64, plan ckptPlan) {
	workers := 1
	if p.sys.cfg.Stream.Demand {
		workers = p.sys.cfg.Stream.Depth
	}
	grp.fold(level, p.Rank(), base, plan.src, plan.batches, workers)
	for _, r := range plan.ranges {
		copy(base[r.Off:r.Off+r.Len], plan.src[r.Off:r.Off+r.Len])
	}
}

// streamChunkWords returns the chunk-batch granularity in words, or zero
// when checkpoints travel as one bulk send.
func (p *Process) streamChunkWords() int {
	if !p.sys.cfg.Stream.Demand {
		return 0
	}
	return p.sys.cfg.Stream.ChunkBytes / 8
}

// chunkRanges splits sorted, disjoint ranges into batches of at most
// chunkWords words. Range boundaries are preserved (a batch never spans a
// gap), so the batches stay sorted and disjoint. chunkWords <= 0 leaves
// the list untouched.
func chunkRanges(ranges []rma.DirtyRange, chunkWords int) []rma.DirtyRange {
	if chunkWords <= 0 {
		return ranges
	}
	split := false
	for _, r := range ranges {
		if r.Len > chunkWords {
			split = true
			break
		}
	}
	if !split {
		return ranges
	}
	var out []rma.DirtyRange
	for _, r := range ranges {
		for off := r.Off; off < r.Off+r.Len; off += chunkWords {
			ln := chunkWords
			if r.Off+r.Len-off < ln {
				ln = r.Off + r.Len - off
			}
			out = append(out, rma.DirtyRange{Off: off, Len: ln})
		}
	}
	return out
}

// rangeWords sums the lengths of a range list.
func rangeWords(ranges []rma.DirtyRange) int {
	n := 0
	for _, r := range ranges {
		n += r.Len
	}
	return n
}

// takeUCCheckpoint takes an uncoordinated checkpoint of this rank: lock the
// application data, send the copy to the group's checksum storage, unlock
// (§3.2.2). The local copy stays in volatile memory; the CH integrates the
// Reed–Solomon parity (XOR at m = 1) and records the counter snapshot that lets
// peers trim their logs. Only the dirty region — words written since the
// previous checkpoint — is copied, transferred, and folded.
//
// The modeled data movement (chargeCheckpoint) runs before the commit and
// contains the checkpoint's only kill points: a rank dying mid-stream
// unwinds there, so the parity, the base copy, the cursor, and the CH
// snapshot never observe a half-taken checkpoint — the stream is simply
// lost, and recovery proceeds from the previous one (whose log coverage
// the untouched snapshot still guarantees).
func (p *Process) takeUCCheckpoint() {
	start := p.Now()
	grp := p.sys.groupOf(p.Rank())

	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	plan := p.planCheckpoint(p.scratch, p.ucData, p.ucGen)
	p.chargeCheckpoint(grp, plan.batches) // kill points live here
	p.commitCheckpoint(grp, LevelUC, p.ucData, plan)
	p.ucGen = plan.gen

	grp.mu.Lock()
	grp.ucSnaps[p.Rank()] = memberSnap{snap: p.snap(), epochs: p.snapEpochs()}
	grp.mu.Unlock()

	p.sys.world.Emit(rma.TraceAction{Kind: "checkpoint", Src: p.Rank()})
	p.sys.bumpStats(func(st *Stats) {
		st.UCCheckpoints++
		st.CheckpointSeconds += p.Now() - start
	})
}

// chargeCheckpoint charges the modeled cost of moving a checkpoint to the
// group's checksum process(es): either one bulk send (§6.2 variant (2):
// local copy, then a single transfer; the CH stages the whole message and
// folds it off the member's critical path) or the bounded streaming
// pipeline (variant (1)). The CH's shared resource serializes concurrent
// members, which is what makes |CH| a performance parameter.
//
// The streaming pipeline prices a checkpoint as transfer + parity-fold
// time per chunk batch, overlapped up to Config.Stream.Depth in-flight
// batches: while the CH folds batch k, batch k+1 is on the wire and the
// member is copying batch k+2 out of its window. The CH owns only
// Stream.Depth chunk buffers (the variant's memory efficiency), so the
// transfer of batch k may not start before the fold of batch k-depth has
// freed one — with depth 1 transfer and fold alternate strictly at the CH
// (no overlap), while the member-side copies still pipeline ahead since
// the snapshot is staged in the member's own memory. The member's clock
// follows the stream and completes at the CH's final fold (the commit
// ack).
func (p *Process) chargeCheckpoint(grp *chGroup, batches []rma.DirtyRange) {
	params := p.sys.world.Params()
	if !p.sys.cfg.Stream.Demand {
		bytes := 8 * rangeWords(batches)
		p.inner.AdvanceTime(params.CopyTime(bytes)) // local copy cost
		end := p.Now()
		for _, res := range grp.res {
			if t := res.Transfer(p.Now(), bytes); t > end {
				end = t
			}
		}
		p.inner.AdvanceTo(end)
		return
	}
	if len(batches) == 0 {
		return
	}
	depth := p.sys.cfg.Stream.Depth
	hook := p.sys.streamDelay
	// Member-side copy pipeline: batch i can be injected once batches 0..i
	// are copied out of the window snapshot. The per-batch AdvanceTo calls
	// make the member's clock follow the stream — and are the kill points a
	// mid-stream failure surfaces at.
	ready := make([]float64, len(batches))
	t := p.Now()
	for i, b := range batches {
		t += params.CopyTime(8 * b.Len)
		ready[i] = t
		p.inner.AdvanceTo(t)
	}
	end := p.Now()
	// The hook is consulted once per batch — on the first checksum
	// process's schedule — and the same perturbation applies to every CH,
	// mirroring a delivery delay upstream of the parity fan-out.
	var delays []float64
	if hook != nil {
		delays = make([]float64, len(batches))
	}
	for ri, res := range grp.res {
		foldDone := make([]float64, len(batches))
		prevFold := 0.0
		for i, b := range batches {
			n := 8 * b.Len
			startAt := ready[i]
			if hook != nil {
				// Test-injected delivery perturbation (slow or reordered
				// chunks); a hook that kills the rank surfaces at the next
				// clock advance below.
				if ri == 0 {
					delays[i] = hook(p.Rank(), i, len(batches))
				}
				startAt += delays[i]
			}
			if i >= depth && foldDone[i-depth] > startAt {
				startAt = foldDone[i-depth]
			}
			tt := res.Transfer(startAt, n)
			p.inner.AdvanceTo(tt)
			if prevFold > tt {
				tt = prevFold
			}
			prevFold = tt + params.CopyTime(n) // CH parity fold of the batch
			foldDone[i] = prevFold
		}
		if prevFold > end {
			end = prevFold
		}
	}
	p.inner.AdvanceTo(end)
}

// ---- Coordinated checkpointing (layer 3, §3.1.2) ----------------------------

// initCCSchedule seeds the Daly interval from an a-priori checkpoint-cost
// estimate; the real cost is measured at the first round (§6.1: "the user
// provides M while delta is estimated by our protocol").
func (p *Process) initCCSchedule() {
	params := p.sys.world.Params()
	bytes := 8 * p.inner.WindowWords()
	p.ccDelta = params.CopyTime(bytes) + params.TransferTime(bytes)
	p.recomputeInterval()
}

func (p *Process) recomputeInterval() {
	cfg := p.sys.cfg
	if !cfg.UseDaly {
		p.ccInterval = cfg.FixedInterval
		return
	}
	iv, err := daly.Interval(p.ccDelta, cfg.MTBF)
	if err != nil {
		panic(fmt.Sprintf("ftrma: daly interval: %v", err))
	}
	p.ccInterval = iv
}

// maybeCCAfterGsync implements the Gsync scheme: right after a gsync — and
// before any further RMA calls — every rank takes the same deterministic
// decision (the clocks are equal at tSync) whether the checkpoint interval
// has elapsed, and if so checkpoints collectively (Theorem 3.1).
func (p *Process) maybeCCAfterGsync(tSync float64) {
	if p.sys.cfg.Scheme != CCGsync || p.ccInterval <= 0 {
		return
	}
	if p.lastCC == 0 {
		// The first gsync anchors the schedule (identically at every
		// rank: tSync is the synchronized release time).
		p.lastCC = tSync
		return
	}
	if tSync-p.lastCC < p.ccInterval {
		return
	}
	p.ccRound()
}

// CheckpointLocks implements the Locks scheme (§3.1.2): legal only when
// LC_p = 0; (1) flush everything, (2) barrier for the global hb order,
// (3) checkpoint collectively (Theorem 3.2). Every rank must call it.
func (p *Process) CheckpointLocks() {
	if p.lc != 0 {
		panic(fmt.Sprintf("ftrma: CheckpointLocks with LC=%d (locks held)", p.lc))
	}
	p.FlushAll() // phase 1: flush(p -> *)
	p.ccRound()  // phases 2-3: barrier + collective checkpoint
}

// ccRound is the collective checkpoint: barrier, snapshot to both the CC
// and UC stores, clear all logs (the coordinated checkpoint subsumes them),
// barrier, and reschedule. Both barriers bound a window in which the
// network is quiet, so the set of per-rank snapshots is RMA-consistent.
func (p *Process) ccRound() {
	p.inner.Barrier()
	t0 := p.Now() // equal at every rank
	grp := p.sys.groupOf(p.Rank())

	// Fold the window into both parity levels. The checkpoint message to
	// the CH must carry every word either level needs: the CC region,
	// because the CC cursor is never newer than the UC one (both start at
	// zero, and the UC cursor also advances at every UC checkpoint), and
	// the window does not change between the two plans. Unlike the UC
	// path, commit precedes the modeled transfer: the collective round is
	// barrier-bracketed, so parity, snapshot, and log clearing stay
	// mutually consistent at every rank whatever the clocks do.
	// The two levels are planned and committed sequentially so one scratch
	// buffer suffices: committing the CC plan touches only ccData/ccGen,
	// never the UC cursor, and the charge below needs only the CC plan's
	// batch list, which survives the snapshot buffer's reuse.
	p.ckptMu.Lock()
	ccPlan := p.planCheckpoint(p.scratch, p.ccData, p.ccGen)
	p.commitCheckpoint(grp, LevelCC, p.ccData, ccPlan)
	p.ccGen = ccPlan.gen
	ucPlan := p.planCheckpoint(p.scratch, p.ucData, p.ucGen)
	p.commitCheckpoint(grp, LevelUC, p.ucData, ucPlan)
	p.ucGen = ucPlan.gen
	p.ckptMu.Unlock()

	snap := memberSnap{snap: p.snap(), epochs: p.snapEpochs()}
	grp.mu.Lock()
	grp.ccSnaps[p.Rank()] = snap
	grp.ucSnaps[p.Rank()] = snap
	grp.mu.Unlock()

	// One copy travels to the CH; the CH folds it into both parities
	// locally, so the stream carries each CC batch once.
	p.chargeCheckpoint(grp, ccPlan.batches)

	p.clearAllLogs()
	p.sys.world.Emit(rma.TraceAction{Kind: "checkpoint", Src: p.Rank()})

	p.inner.Barrier()
	t1 := p.Now() // equal at every rank
	p.ccDelta = t1 - t0
	p.lastCC = t1
	p.recomputeInterval()
	p.sys.bumpStats(func(st *Stats) {
		st.CheckpointSeconds += t1 - t0
		if p.Rank() == 0 {
			st.CCCheckpoints++
		}
	})
}

// clearAllLogs empties this rank's log store after a coordinated
// checkpoint: every peer's state is captured, so nothing needs replaying.
// The whole arena is recycled in bulk (every record is dead, no compaction
// walk needed).
func (p *Process) clearAllLogs() {
	self := p.Rank()
	p.inner.Lock(self, rma.StrLP)
	p.inner.Lock(self, rma.StrLG)
	freed := p.logs.clear()
	p.inner.Unlock(self, rma.StrLG)
	p.inner.Unlock(self, rma.StrLP)
	if freed > 0 {
		p.sys.bumpStats(func(st *Stats) { st.LogBytesTrimmed += freed })
	}
}
