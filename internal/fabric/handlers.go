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

// errBadFrame is the shared reply for undecodable payloads.
var errBadFrame = errors.New("fabric: undecodable frame")

// errClosing is a closed node's answer to every frame, and the only
// CodeCrisis the fabric puts on the wire: the connection it arrives on is
// about to go down, so the caller treats it as that — a fail-stop.
var errClosing = wire.RemoteFail{Code: wire.CodeCrisis, Msg: ErrClosed.Error()}

// acceptLoop keeps every inbound connection in the peer table until it
// goes down. Once fHello has attributed one, its going down is that peer's
// death report: nodes close connections to live incarnations only by dying.
func (nd *Node) acceptLoop() {
	for {
		nc, err := nd.ln.Accept()
		if err != nil {
			return
		}
		st := &connState{rank: -1}
		wc := wire.New(nc, wire.Config{
			VecHandler: func(t byte, p []byte, r wire.Reply) (byte, *wire.Vec, error) { return nd.handle(st, t, p, r) },
			Inline:     nd.inline,
			// Heartbeat keeps transient joiner connections alive through
			// long rendezvous waits; the lease (ReadTimeout) only runs on
			// attributed peer connections — probe connections from tests
			// and joiners never hello and may idle.
			Heartbeat: nd.tun().LeaseInterval,
			BytesOut:  nd.om.wireOut, BytesIn: nd.om.wireIn,
			OnDown: func(err error) {
				nd.cmu.Lock()
				st.down = true
				delete(nd.inbound, st)
				rank, inc, helloed := st.rank, st.inc, st.helloed
				nd.cmu.Unlock()
				if helloed {
					nd.condemn(rank, inc, fmt.Errorf("inbound connection down: %w", err))
				} else {
					// A joiner that hung up releases its parked fJoin.
					nd.mmu.Lock()
					nd.mcond.Broadcast()
					nd.mmu.Unlock()
				}
			},
		})
		nd.cmu.Lock()
		keep := nd.inbound != nil && !st.down
		if keep {
			nd.inbound[st] = wc
		}
		nd.cmu.Unlock()
		if !keep {
			wc.Close() // arrived after Close, or already gone
		}
	}
}

// inline is the node's dispatch rule (wire.Config.Inline): while the node is
// live, the frames of a steady phase — fHello, fBatch, fParityFold and the
// fGossip that carries a host's readiness — are served on the reader that
// read them. Their handlers wait on no other rank: they take node locks for
// short holds, a fold the barrier holds is kept on a list and answered by
// the release (holdFold), and announce may dial. Every frame that waits —
// fJoin's long poll (its hang-up detection needs the reader), fCrisisBegin
// (awaitFoldSettled), fLogFetch (awaitLogged), any frame of a node still
// joining (awaitInstalled) — and the rare ones go to a handler goroutine.
func (nd *Node) inline(t byte) bool {
	switch t {
	case fHello, fBatch, fParityFold, fGossip:
		return nd.state.Load() == stLive
	}
	return false
}

// handle dispatches one fabric frame and encodes its reply straight into a
// wire.Vec (nil: an empty reply). The frames inline names run on the
// connection's reader and must not wait on another rank; every other one
// runs on a handler goroutine (a warm one, or a new one when the warm one is
// busy) and may block on node locks. Close waits for the ones in flight and
// later frames are refused. r is the request's reply handle, which
// handleParityFold keeps for a fold the barrier holds.
func (nd *Node) handle(st *connState, t byte, payload []byte, r wire.Reply) (byte, *wire.Vec, error) {
	if !nd.enter() {
		return t, nil, errClosing
	}
	defer nd.tasks.Done()
	d := wire.NewDec(payload)
	switch t {
	case fHello:
		rank, inc := d.I(), d.I()
		if d.Failed() {
			return t, nil, errBadFrame
		}
		nd.cmu.Lock()
		st.rank, st.inc, st.helloed = rank, inc, true
		nd.cmu.Unlock()
		return t, nil, nil
	case fShutdown:
		if nd.state.CompareAndSwap(stLive, stDraining) {
			close(nd.shutdown)
		}
		return t, nil, nil
	case fCrisisFail:
		msg := d.Str()
		if d.Failed() {
			return t, nil, errBadFrame
		}
		nd.fail(fmt.Errorf("fabric: crisis failed at arbiter: %s", msg))
		return t, nil, nil
	}
	// Everything below reads or writes rank state. A node still installing
	// holds the frame until it is live and then serves it — a gossip frame
	// merges into the table it now has, a survivor's redelivery
	// lands on the restored base — so "installing" never goes on the wire and
	// nobody retries on a clock.
	if !nd.awaitInstalled() {
		return t, nil, errClosing
	}
	switch t {
	case fJoin:
		return nd.handleJoin(st, d)
	case fGossip:
		ms, ok := decMembers(d)
		if !ok {
			return t, nil, errBadFrame
		}
		nd.mergeMembers(ms)
		return t, nil, nil
	case fBatch:
		return nd.handleBatch(d)
	case fParityFold:
		return nd.handleParityFold(d, r)
	case fParityFetch:
		return nd.handleParityFetch(d)
	case fBaseFetch:
		return nd.handleBaseFetch()
	case fLogFetch:
		return nd.handleLogFetch(d)
	case fCrisisBegin:
		return nd.handleCrisisBegin(d)
	case fCrisisEnd:
		nd.handleCrisisEnd(d)
		return t, nil, nil
	case fMembers:
		v := wire.NewVec()
		nd.mmu.Lock()
		encMembers(v, nd.members)
		encHostings(v, nd.hostings)
		nd.mmu.Unlock()
		return t, v, nil
	case fWindowFetch:
		// The window is live — puts land in it while the reply is written —
		// so the reply gathers from a copy taken under the lock.
		nd.winMu.Lock()
		w := slices.Clone(nd.window)
		nd.winMu.Unlock()
		v := wire.NewVec()
		v.Words(w)
		return t, v, nil
	}
	return t, nil, fmt.Errorf("fabric: unknown frame type %#x", t)
}

// scanRuns is the first of a handler's two walks over n (off, words) pairs:
// it advances scan — the handler's copy of its decoder — past them and
// checks that every range lies in the window, so the second walk, which
// applies them, cannot fail halfway.
func (nd *Node) scanRuns(scan *wire.Dec, n int, what string) error {
	for i := 0; i < n; i++ {
		off, ln := scan.I(), scan.SkipWords()
		if scan.Failed() {
			return errBadFrame
		}
		if off+ln > nd.windowWords {
			return fmt.Errorf("fabric: %s out of window ([%d,%d) of %d)", what, off, off+ln, nd.windowWords)
		}
	}
	return nil
}

// handleBatch applies one epoch close from a peer: puts land in the
// window, gets are served and logged target-side (LG) so a requester
// crash can re-deposit its exposed get landings. The frame is walked twice:
// first every put and get range is checked, then — nothing can fail any
// more — the batch is applied in one winMu hold, so a bad batch leaves the
// window and its stamps untouched. Each get's words are copied once, into a
// pooled buffer the reply gathers from and the LG log copies from; the
// reply's release returns it.
func (nd *Node) handleBatch(d *wire.Dec) (byte, *wire.Vec, error) {
	src, _, phase := d.I(), d.I(), d.I()
	nputs := d.I()
	if d.Failed() || nputs < 0 || nputs > wire.MaxFrame/8 {
		return fBatch, nil, errBadFrame
	}
	scan := *d
	if err := nd.scanRuns(&scan, nputs, "put"); err != nil {
		return fBatch, nil, err
	}
	ngets := scan.I()
	if scan.Failed() || ngets < 0 || ngets > wire.MaxFrame/8 {
		return fBatch, nil, errBadFrame
	}
	gets := scan // the get ops, walked again below
	total := 0
	for i := 0; i < ngets; i++ {
		off, n := scan.I(), scan.I()
		scan.I()
		scan.I()
		if scan.Failed() {
			break
		}
		if off+n > nd.windowWords {
			return fBatch, nil, fmt.Errorf("fabric: get out of window ([%d,%d) of %d)", off, off+n, nd.windowWords)
		}
		total += n
	}
	if scan.Failed() || src < 0 || src >= nd.n {
		return fBatch, nil, errBadFrame
	}
	var got *getBuf
	if ngets > 0 {
		got = takeGetBuf(total)
	}
	nd.winMu.Lock()
	for i := 0; i < nputs; i++ {
		// A view of the pooled frame, copied before the handler returns. The
		// put's own destination is the fallback buffer: words that arrived
		// unaligned are decoded in place — touchLocked has saved the
		// committed words there — and the copy copies them onto themselves.
		off := d.I()
		peek := *d
		dst := nd.touchLocked(off, peek.SkipWords())
		copy(dst, d.WordsView(dst))
	}
	at := gets
	for i, k := 0, 0; i < ngets; i++ {
		off, n := at.I(), at.I()
		at.I()
		at.I()
		k += copy(got.words[k:k+n], nd.window[off:off+n])
	}
	nd.winMu.Unlock()
	v := wire.NewVec()
	v.I(ngets)
	if ngets > 0 {
		nd.logMu.Lock()
		for i, k := 0, 0; i < ngets; i++ {
			off, n := gets.I(), gets.I()
			localOff, gc := gets.I()-1, gets.I()
			data := got.words[k : k+n]
			k += n
			nd.logs.AppendLG(src, ftrma.LogRecord{
				Kind: ftrma.LogGet, Src: src, Trg: nd.rank,
				Off: off, Data: data, LocalOff: localOff,
				GC: gc, GNC: phase,
			})
			v.Words(data)
		}
		nd.logMu.Unlock()
		v.OnRelease(got.release)
	}
	nd.om.batchRecv.Inc()
	nd.fr.Record(obs.EvFrameRecv, int64(fBatch), int64(src), int64(nputs+ngets))
	return fBatch, v, nil
}

// getBuf is a pooled buffer that one batch's get results are copied into;
// release, made once per buffer, puts it back (a Vec's OnRelease hook).
type getBuf struct {
	words   []uint64
	used    int // the last take's words (idle)
	release func()
}

var getBufs sync.Pool

// takeGetBuf returns a pooled buffer of n words. One that is too short, or
// mostly idle at this size (idle), is replaced.
func takeGetBuf(n int) *getBuf {
	b, _ := getBufs.Get().(*getBuf)
	if b == nil {
		b = &getBuf{}
		b.release = func() { getBufs.Put(b) }
	}
	if idle(b.words, n, &b.used) || cap(b.words) < n {
		b.words = make([]uint64, n)
	}
	b.words = b.words[:n]
	return b
}

// handleParityFold folds one member's checkpoint delta into hosted
// parity and stores its counter snapshot atomically with it. The deltas are
// folded straight from the frame, after a first walk has checked every
// range: each is a view of the frame where it lies aligned, as it does in a
// frame read into a body of its own (wire.Dec.WordsAlias; a run that does
// not is decoded into a buffer of its length), so even a whole-window fold
// costs the host no window-sized buffer.
//
// The fold is also the member's ready, and its answer the member's release:
// a member folds phase p only once every batch of p is acked, so the host
// merges (rank, inc)'s watermark p+1 — for a retry it deduplicates too,
// where the merge changes nothing — tells the other hosts once its groups
// are all in (announce), and answers once every rank has folded p. Until
// then the fold waits on the node's list with its reply handle r, not on a
// goroutine (holdFold).
func (nd *Node) handleParityFold(d *wire.Dec, r wire.Reply) (byte, *wire.Vec, error) {
	rank, inc, g, memberIdx, phase := d.I(), d.I(), d.I(), d.I(), d.I()
	s, ok := decSnap(d)
	if !ok {
		return fParityFold, nil, errBadFrame
	}
	nranges := d.I()
	if d.Failed() || nranges < 0 || nranges > wire.MaxFrame/8 {
		return fParityFold, nil, errBadFrame
	}
	scan := *d
	err := nd.scanRuns(&scan, nranges, "fold range")
	if err != nil {
		return fParityFold, nil, err
	}
	committed := false
	nd.parMu.Lock()
	switch hg := nd.hosted[g]; {
	case hg == nil:
		err = fmt.Errorf("fabric: rank %d is not hosting group %d", nd.rank, g)
	case memberIdx < 0 || memberIdx >= hg.k:
		err = fmt.Errorf("fabric: fold for member %d of a %d-member group", memberIdx, hg.k)
	case hg.folded[memberIdx] != phase:
		for i := 0; i < nranges; i++ {
			off := d.I()
			ftrma.FoldDelta(hg.rs, hg.shards, memberIdx, off, d.WordsAlias())
		}
		hg.commit(memberIdx, phase, s)
	default:
		committed = hg.answered[memberIdx] == phase
	}
	nd.parMu.Unlock()
	if err != nil {
		return fParityFold, nil, err
	}
	nd.om.foldsHosted.Inc()
	nd.mergeWatermark(rank, inc, phase+1)
	nd.announce(false)
	return nd.holdFold(heldFold{reply: r, g: g, memberIdx: memberIdx, phase: phase, uncommitted: !committed})
}

// handleParityFetch hands a hosted shard set to a replacement. The
// reply gathers the shards in place, so parMu stays held until the frame is
// written (the Vec's release); quiesce has parked every fold that would
// wait for it.
func (nd *Node) handleParityFetch(d *wire.Dec) (byte, *wire.Vec, error) {
	g := d.I()
	if d.Failed() {
		return fParityFetch, nil, errBadFrame
	}
	nd.parMu.Lock()
	hg := nd.hosted[g]
	if hg == nil {
		nd.parMu.Unlock()
		return fParityFetch, nil, fmt.Errorf("fabric: rank %d is not hosting group %d", nd.rank, g)
	}
	v := wire.NewVec()
	encHostedGroup(v, hg)
	v.OnRelease(nd.parMu.Unlock)
	return fParityFetch, v, nil
}

// adoptFolds takes over the barrier's count for a group whose rebuilt parity
// a replacement hosts: every member's fold that parity holds counts as
// received here, so a fold the previous incarnation released need not come
// again.
func (nd *Node) adoptFolds(g int, hg *hostedGroup) {
	for i, r := range nd.grouping.ComputeMembers(g) {
		nd.mmu.Lock()
		inc := nd.members[r].Incarnation
		nd.mmu.Unlock()
		nd.mergeWatermark(r, inc, hg.folded[i]+1)
	}
}

func encHostedGroup(e encoder, hg *hostedGroup) {
	e.I(hg.k)
	e.I(len(hg.shards))
	for i := range hg.snaps {
		e.I(hg.folded[i] + 1)
		encSnap(e, hg.snaps[i])
	}
	for _, s := range hg.shards {
		e.Words(s)
	}
}

// decHostedGroup decodes a shard set from an fParityFetch reply the caller
// keeps: each shard is a view of it where it lies aligned
// (wire.Dec.WordsAlias).
func decHostedGroup(d *wire.Dec, windowWords int) (*hostedGroup, error) {
	k := d.I()
	m := d.I()
	if d.Failed() || k < 1 || m != 1 {
		return nil, errBadFrame
	}
	rs, err := erasure.NewRS(k, 1)
	if err != nil {
		return nil, err
	}
	hg := &hostedGroup{k: k, rs: rs, snaps: make([]snap, k), folded: make([]int, k)}
	for i := 0; i < k; i++ {
		hg.folded[i] = d.I() - 1
		s, ok := decSnap(d)
		if !ok {
			return nil, errBadFrame
		}
		hg.snaps[i] = s
	}
	hg.answered = slices.Clone(hg.folded)
	hg.shards = make([][]uint64, m)
	for i := range hg.shards {
		hg.shards[i] = d.WordsAlias()
		if len(hg.shards[i]) != windowWords {
			return nil, fmt.Errorf("fabric: parity shard has %d words, window is %d", len(hg.shards[i]), windowWords)
		}
	}
	if d.Failed() {
		return nil, errBadFrame
	}
	return hg, nil
}

// handleBaseFetch hands the last committed base and its counter snapshot
// to a replacement, under the checkpoint lock so they are consistent
// with the group parity. The reply gathers the base in place — the runs of
// the window between saved chunks and the saved chunks (eachBase) — so
// ckptMu and winMu stay held until the frame is written (the Vec's
// release): quiesce has parked the checkpoints that would wait for the
// one, and the window's writers wait out the frame.
func (nd *Node) handleBaseFetch() (byte, *wire.Vec, error) {
	nd.ckptMu.Lock()
	nd.winMu.Lock()
	v := wire.NewVec()
	encSnap(v, nd.snapSelf)
	v.WordsStart(nd.windowWords)
	nd.eachBase(func(_ int, w []uint64) { v.WordsPart(w) })
	v.OnRelease(func() {
		nd.winMu.Unlock()
		nd.ckptMu.Unlock()
	})
	return fBaseFetch, v, nil
}

// handleLogFetch hands everything this node logged by or about the
// victim: its own puts towards the victim (LP) and the gets the victim
// issued against this window (LG) — once a batch the victim may have acked
// is logged (awaitLogged).
func (nd *Node) handleLogFetch(d *wire.Dec) (byte, *wire.Vec, error) {
	victim := d.I()
	if d.Failed() || victim < 0 || victim >= nd.n {
		return fLogFetch, nil, errBadFrame
	}
	nd.awaitLogged(victim)
	nd.logMu.Lock()
	lp := nd.logs.CopyLP(victim)
	lg := nd.logs.CopyLG(victim)
	n := nd.logs.FlagN(victim)
	m := nd.logs.FlagM(victim)
	nd.logMu.Unlock()
	v := wire.NewVec()
	encBool(v, n)
	encBool(v, m)
	encRecordList(v, lp)
	encRecordList(v, lg)
	return fLogFetch, v, nil
}

// handleCrisisBegin quiesces this node for a recovery: the victim is
// condemned and the ack promises the arbiter that parity equals the encoded
// committed bases until fCrisisEnd (quiesce).
func (nd *Node) handleCrisisBegin(d *wire.Dec) (byte, *wire.Vec, error) {
	victim, inc := d.I(), d.I()
	if d.Failed() || victim < 0 || victim >= nd.n {
		return fCrisisBegin, nil, errBadFrame
	}
	nd.condemn(victim, inc, errors.New("crisis verdict from arbiter"))
	nd.beginQuiesce()
	nd.awaitFoldSettled()
	return fCrisisBegin, nil, nil
}

// beginQuiesce parks this node's next checkpoint fold and answers the folds
// it holds as a parity host that its members have not committed yet
// (answerHeld), and every such fold that arrives until the crisis ends, at
// once. It waits for nothing, so every host answers before any waits for its
// own fold (awaitFoldSettled).
func (nd *Node) beginQuiesce() {
	nd.mmu.Lock()
	nd.hostCrisis = true
	nd.mmu.Unlock()
	nd.mcond.Broadcast()
	nd.answerHeld()
	nd.ckptMu.Lock()
	nd.inCrisis = true
	nd.ckptMu.Unlock()
}

// awaitFoldSettled waits until this node's own fold on the wire, if any, is
// answered and committed, or has failed. Its host answers it once its own
// quiesce begins, so a crisis whose quiesce reaches every survivor at once
// cannot wait here for long.
func (nd *Node) awaitFoldSettled() {
	nd.ckptMu.Lock()
	for nd.folding && nd.failedOrClosed() == nil {
		nd.ckptCond.Wait()
	}
	nd.ckptMu.Unlock()
}

// endQuiesce lets checkpoints and the barrier run again, and reports
// whether this node was quiesced.
func (nd *Node) endQuiesce() bool {
	nd.mmu.Lock()
	nd.hostCrisis = false
	nd.mmu.Unlock()
	nd.ckptMu.Lock()
	was := nd.inCrisis
	nd.inCrisis = false
	nd.ckptMu.Unlock()
	nd.ckptCond.Broadcast()
	nd.mcond.Broadcast()
	nd.answerHeld()
	return was
}

// handleCrisisEnd applies the arbiter's post-crisis world and unparks
// checkpoints.
func (nd *Node) handleCrisisEnd(d *wire.Dec) {
	ms, ok := decMembers(d)
	if !ok {
		return
	}
	nd.mergeMembers(ms)
	if nd.endQuiesce() {
		nd.mmu.Lock()
		nd.recoveries++
		rec := nd.recoveries
		nd.mmu.Unlock()
		// Survivor-side crisis close: dump the flight ring so every rank's
		// timeline of the recovery lands on disk, not just the arbiter's.
		nd.dumpFlight(fmt.Sprintf("crisis%d", rec))
	}
	nd.mcond.Broadcast()
}
