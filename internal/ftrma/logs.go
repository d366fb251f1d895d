package ftrma

import (
	"slices"
	"sync"

	"repro/internal/rma"
)

// LogKind distinguishes logged access types.
type LogKind int

const (
	// LogPut is a replacing or combining put (Accumulate included).
	LogPut LogKind = iota
	// LogGet is a get; Data holds the value read, LocalOff where it
	// landed in the issuer's window (-1 if it went to private memory).
	LogGet
	// LogAtomic is a CAS or FetchAndOp: both a put and a get (Table 1).
	LogAtomic
)

// LogRecord is one logged access: the action tuple of Eq. (1). Data makes
// the record replayable; dropping it yields the determinant (Eq. 2).
//
// LogRecord is the protocol's wire/replay representation: recovery fetches
// materialize stored records into this form with an owned Data slice. While
// a record sits in a LogStore its payload lives in the store's slab arena
// instead (see logRec), so appends never copy per-record heap slices.
type LogRecord struct {
	Kind     LogKind
	Src      int
	Trg      int
	Off      int      // target window offset
	Data     []uint64 // put payload, or the data a get returned
	LocalOff int      // get destination in the issuer's window, -1 if private
	Op       rma.ReduceOp
	Combine  bool
	EC       int // epoch counter E(src->trg) at issue (§4.1 A)
	GC       int // issuer's flush counter (§4.1 B)
	SC       int // target's lock sequence number (§4.1 C)
	GNC      int // issuer's gsync counter (§4.1 E)
}

// Bytes estimates the record's memory footprint, used for the log budget.
func (r LogRecord) Bytes() int {
	return 64 + 8*len(r.Data) // fixed fields + payload
}

// ---- Slab arena -------------------------------------------------------------

// slab is one bump-allocated payload block. Records reference (slab, off, n)
// views into it; a slab is recycled wholesale once no live record points at
// its words: at once when its live count reaches zero (release), or by
// compaction, which reclaims the dead words of slabs that are still partly
// live.
type slab struct {
	data []uint64
	used int   // bump pointer
	live int   // words of live records
	next *slab // freelist link
}

// logArena owns a rank's log payload memory: a list of slabs filled by bump
// allocation plus a freelist of recycled slabs. A slab whose records are all
// trimmed leaves the list as soon as it is not the one being filled, so
// used counts the words of slabs that still hold a live record (and of the
// current one). live/used drive compaction: when the live ratio of those
// words drops below the configured threshold, every live payload is
// rewritten densely into fresh slabs and the old ones are recycled.
type logArena struct {
	slabWords int
	slabs     []*slab // slabs holding allocated words; current = last
	free      *slab   // recycled slabs (uniform slabWords-sized)
	freeCount int
	live      int // words referenced by live records
	used      int // words bump-allocated in the listed slabs (live + dead)
	copied    int // payload words compaction has rewritten
}

// maxFreeSlabs bounds how many recycled slabs the freelist retains; beyond
// it (and for oversized one-off slabs) recycling hands the memory back to
// the garbage collector, so a traffic spike does not pin peak heap forever.
const maxFreeSlabs = 64

// alloc reserves n words, returning the backing slab and offset. Steady
// state (slabs available on the freelist) performs no heap allocation.
func (a *logArena) alloc(n int) (*slab, int) {
	cur := a.current()
	if cur == nil || len(cur.data)-cur.used < n {
		cur = a.grow(n)
	}
	off := cur.used
	cur.used += n
	cur.live += n
	a.used += n
	a.live += n
	return cur, off
}

// release marks a record's n payload words in sl dead. A slab left without a
// live word goes back at once unless it is the one being filled: a bulk
// record fills a slab of its own, and its slab leaves with its trim instead
// of waiting for a compaction to copy its neighbours out.
func (a *logArena) release(sl *slab, n int) {
	if n == 0 {
		return
	}
	sl.live -= n
	a.live -= n
	if sl.live == 0 && sl != a.current() {
		a.drop(sl)
	}
}

// drop takes a slab no live record points into off the list and recycles it.
func (a *logArena) drop(sl *slab) {
	i := slices.Index(a.slabs, sl)
	a.slabs = slices.Delete(a.slabs, i, i+1)
	a.used -= sl.used
	a.recycle(sl)
}

func (a *logArena) current() *slab {
	if len(a.slabs) == 0 {
		return nil
	}
	return a.slabs[len(a.slabs)-1]
}

// grow appends a slab able to hold n words: recycled when one fits, fresh
// otherwise. Payloads larger than the slab size get a dedicated slab. The
// slab it replaces as the current one goes back if nothing in it is live.
func (a *logArena) grow(n int) *slab {
	if cur := a.current(); cur != nil && cur.live == 0 {
		a.drop(cur)
	}
	want := a.slabWords
	if n > want {
		want = n
	}
	var sl *slab
	if a.free != nil && len(a.free.data) >= want {
		sl = a.free
		a.free = sl.next
		a.freeCount--
		sl.next = nil
		sl.used, sl.live = 0, 0
	} else {
		sl = &slab{data: make([]uint64, want)}
	}
	a.slabs = append(a.slabs, sl)
	return sl
}

// recycle returns one slab to the freelist. Oversized one-off slabs and
// slabs beyond the retention cap are dropped for the garbage collector
// instead (the freelist stays uniform, so grow's head check is exact).
func (a *logArena) recycle(sl *slab) {
	if len(sl.data) != a.slabWords || a.freeCount >= maxFreeSlabs {
		return
	}
	sl.used, sl.live = 0, 0
	sl.next = a.free
	a.free = sl
	a.freeCount++
}

// recycleAll returns every slab to the freelist (bulk clear).
func (a *logArena) recycleAll() {
	for _, sl := range a.slabs {
		a.recycle(sl)
	}
	a.slabs = a.slabs[:0]
	a.live = 0
	a.used = 0
}

// ---- Ring segments ----------------------------------------------------------

// logRec is a stored record: the record fields with the payload replaced by
// a (slab, off, n) view into the arena.
type logRec struct {
	meta LogRecord // Data is nil while stored
	sl   *slab
	off  int
	n    int
}

func (r *logRec) payload() []uint64 { return r.sl.data[r.off : r.off+r.n] }
func (r *logRec) footprint() int    { return 64 + 8*r.n }

// segment is one fixed-capacity chunk of a per-peer log ring. Each segment
// carries counter watermarks (the lexicographic maximum of its records'
// trim keys) and aggregate byte/word/combining counts, so a batched trim
// drops a fully covered segment in O(1) without visiting its records.
type segment struct {
	recs      []logRec
	n         int
	next      *segment
	bytes     int // summed record footprints
	words     int // summed payload words
	combining int // records with the Combine flag (M-flag support)
	maxEC     int // LP trim watermark
	maxGNC    int // LG trim watermark, lexicographic with maxGC
	maxGC     int
}

// reset prepares a segment for reuse. Stale entries beyond n are never read
// (every walk is bounded by n) and are not zeroed: the only pointer a stored
// record holds is its slab, which the arena freelist retains anyway.
func (seg *segment) reset() {
	seg.n = 0
	seg.next = nil
	seg.bytes = 0
	seg.words = 0
	seg.combining = 0
	seg.maxEC = -1
	seg.maxGNC = -1
	seg.maxGC = -1
}

// peerLog is one LP_p[q] or LG_p[q] log: a singly linked ring of segments
// plus incrementally maintained aggregates. bytes makes largestPeer O(peers)
// and combining makes M-flag recomputation O(1) after segment drops.
type peerLog struct {
	head, tail *segment
	bytes      int
	combining  int
}

// trimCond is a trim predicate over stored records, evaluated either per
// record or against a whole segment's watermark. Put trims (§6.2) cover
// records with EC below the issuer's current epoch towards the peer; get
// trims cover records lexicographically below the peer checkpoint's
// (GNC, GC) snapshot.
type trimCond struct {
	isLP    bool
	ec      int // LP: records with EC < ec are covered
	gnc, gc int // LG: records with (GNC, GC) <lex (gnc, gc) are covered
}

func (c trimCond) covers(r *logRec) bool {
	if c.isLP {
		return r.meta.EC < c.ec
	}
	return r.meta.GNC < c.gnc || (r.meta.GNC == c.gnc && r.meta.GC < c.gc)
}

// coversSeg reports whether every record of the segment is covered. The
// per-record cover predicate is monotone in the record's trim key, so the
// segment's lexicographic-maximum watermark being covered is sufficient.
func (c trimCond) coversSeg(seg *segment) bool {
	if c.isLP {
		return seg.maxEC < c.ec
	}
	return seg.maxGNC < c.gnc || (seg.maxGNC == c.gnc && seg.maxGC < c.gc)
}

// ---- Log store --------------------------------------------------------------

// logTuning sizes the arena and ring segments; see Config.Log.SlabWords,
// Config.Log.SegmentRecords, and Config.Log.CompactFraction.
type logTuning struct {
	slabWords    int
	segRecords   int
	compactRatio float64
}

// LogStore holds one rank's protocol-side log state: its put logs LP_p[q]
// (source side) and the get logs LG_p[q] it stores for gets other ranks
// issued at it (target side), plus the N and M flags and the order
// counters. Access from other ranks is serialized by the owning rank's
// StrLP/StrLG/StrMeta structure locks; the embedded data lives on the Go
// heap rather than in the rma window, with transfer costs charged to the
// virtual clocks explicitly.
//
// Byte-accounting invariant: lpBytes (lgBytes) always equals the summed
// footprints of the live records across every LP (LG) peer log, and each
// peerLog.bytes equals the sum over its segments — liveFootprint() recomputes
// the totals from scratch and the property tests assert equality after every
// mutation. The arena mirrors the same invariant at word granularity:
// arena.live is the summed payload words of live records and never exceeds
// arena.used.
type LogStore struct {
	// mu guards the record maps, the arena, and the byte counters for
	// memory safety; the rma structure locks (StrLP/StrLG) remain the
	// protocol-level mutual exclusion. The distinction matters for the
	// lock-free atomic-append path (see Process.logAtomicGet), which
	// reserves a log slot with a remote atomic instead of an exclusive
	// lock.
	mu    sync.Mutex
	cfg   logTuning
	arena logArena
	lp    map[int]*peerLog // LP_p[q]: puts p issued at q
	lg    map[int]*peerLog // LG_p[q]: gets q issued at p (stored at p = target)
	// segFree recycles trimmed segments so steady-state appends allocate
	// nothing.
	segFree *segment
	// nFlag[q] is N_p[q]: rank q has a get at p in an open epoch
	// (Algorithm 1 line 1).
	nFlag map[int]bool
	// mFlag[q] is M_p[q]: p's put log towards q contains a combining put
	// (§4.2).
	mFlag map[int]bool

	lpBytes int
	lgBytes int
}

func newLogStore(t logTuning) *LogStore {
	s := &LogStore{
		cfg:   t,
		lp:    make(map[int]*peerLog),
		lg:    make(map[int]*peerLog),
		nFlag: make(map[int]bool),
		mFlag: make(map[int]bool),
	}
	s.arena.slabWords = t.slabWords
	return s
}

// Bytes returns the total log footprint at this rank.
func (s *LogStore) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lpBytes + s.lgBytes
}

// setN sets N_p[q] (written remotely under the StrMeta structure lock).
func (s *LogStore) setN(q int, v bool) {
	s.mu.Lock()
	s.nFlag[q] = v
	s.mu.Unlock()
}

// FlagN reads N_p[q].
func (s *LogStore) FlagN(q int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nFlag[q]
}

// FlagM reads M_p[q].
func (s *LogStore) FlagM(q int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mFlag[q]
}

// AppendLP logs a put p -> q at the source and returns the store's total
// footprint after the append. The payload words of r.Data are copied into
// the arena; the caller keeps ownership of the slice.
func (s *LogStore) AppendLP(q int, r LogRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lpBytes += s.appendPeer(s.lp, q, r)
	if r.Combine {
		s.mFlag[q] = true
	}
	return s.lpBytes + s.lgBytes
}

// AppendLG logs a get issued by q at this (target) rank and returns the
// store's total footprint after the append.
func (s *LogStore) AppendLG(q int, r LogRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lgBytes += s.appendPeer(s.lg, q, r)
	return s.lpBytes + s.lgBytes
}

// appendPeer stores one record: payload into the arena, fields into the
// peer ring's tail segment, watermarks and aggregates updated incrementally.
// Steady state — a recycled segment and slab available — allocates nothing.
func (s *LogStore) appendPeer(m map[int]*peerLog, q int, r LogRecord) int {
	pl := m[q]
	if pl == nil {
		pl = &peerLog{}
		m[q] = pl
	}
	n := len(r.Data)
	sl, off := s.arena.alloc(n)
	copy(sl.data[off:off+n], r.Data)

	seg := pl.tail
	if seg == nil || seg.n == len(seg.recs) {
		seg = s.getSegment()
		if pl.tail == nil {
			pl.head = seg
		} else {
			pl.tail.next = seg
		}
		pl.tail = seg
	}
	rec := &seg.recs[seg.n]
	rec.meta = r
	rec.meta.Data = nil
	rec.sl, rec.off, rec.n = sl, off, n
	seg.n++

	fp := 64 + 8*n
	seg.bytes += fp
	seg.words += n
	if r.Combine {
		seg.combining++
		pl.combining++
	}
	if r.EC > seg.maxEC {
		seg.maxEC = r.EC
	}
	if r.GNC > seg.maxGNC || (r.GNC == seg.maxGNC && r.GC > seg.maxGC) {
		seg.maxGNC, seg.maxGC = r.GNC, r.GC
	}
	pl.bytes += fp
	return fp
}

func (s *LogStore) getSegment() *segment {
	if seg := s.segFree; seg != nil {
		s.segFree = seg.next
		seg.next = nil
		return seg
	}
	seg := &segment{recs: make([]logRec, s.cfg.segRecords)}
	seg.reset()
	return seg
}

func (s *LogStore) recycleSegment(seg *segment) {
	seg.reset()
	seg.next = s.segFree
	s.segFree = seg
}

// materialize copies a peer log out into owned LogRecords (recovery fetch:
// the replayed records must stay bit-identical even after the source rank
// trims or compacts its arena, so the payloads are copied out under mu).
func (s *LogStore) materialize(pl *peerLog) []LogRecord {
	if pl == nil {
		return nil
	}
	count := 0
	for seg := pl.head; seg != nil; seg = seg.next {
		count += seg.n
	}
	if count == 0 {
		return nil
	}
	words := 0
	for seg := pl.head; seg != nil; seg = seg.next {
		words += seg.words
	}
	// One backing buffer for every payload: the materialized records
	// sub-slice it, so the whole fetch costs two allocations.
	buf := make([]uint64, 0, words)
	out := make([]LogRecord, 0, count)
	for seg := pl.head; seg != nil; seg = seg.next {
		for i := 0; i < seg.n; i++ {
			r := &seg.recs[i]
			rec := r.meta
			start := len(buf)
			buf = append(buf, r.payload()...)
			rec.Data = buf[start:len(buf):len(buf)]
			out = append(out, rec)
		}
	}
	return out
}

// CopyLP returns a snapshot of LP[q] (recovery fetch path).
func (s *LogStore) CopyLP(q int) []LogRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materialize(s.lp[q])
}

// CopyLG returns a snapshot of LG[q] (recovery fetch path).
func (s *LogStore) CopyLG(q int) []LogRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materialize(s.lg[q])
}

// TrimLP deletes put logs towards q that are covered by q's checkpoint:
// every record with EC below the issuer's current epoch towards q (those
// epochs are closed, so the puts are part of the checkpointed state). It
// recomputes the M flag and returns the bytes freed (§6.2). Fully covered
// segments — the common case, since per-peer epoch counters only grow — are
// dropped whole off the ring; only a segment straddling the watermark is
// rescanned record by record.
func (s *LogStore) TrimLP(q, epochNow int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl := s.lp[q]
	if pl == nil {
		return 0
	}
	freed := s.trimPeer(pl, trimCond{isLP: true, ec: epochNow})
	s.lpBytes -= freed
	s.mFlag[q] = pl.combining > 0
	s.maybeCompact()
	return freed
}

// TrimLG deletes get logs of issuer q that are covered by q's checkpoint
// snapshot counters (the confirmation of §6.2 carries GNC_q and GC_q; a
// record strictly older in both is replayed never again).
func (s *LogStore) TrimLG(q, snapGNC, snapGC int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl := s.lg[q]
	if pl == nil {
		return 0
	}
	freed := s.trimPeer(pl, trimCond{gnc: snapGNC, gc: snapGC})
	s.lgBytes -= freed
	s.maybeCompact()
	return freed
}

// trimPeer walks the segment ring once: segments whose watermark is covered
// are unlinked whole, without testing their records, and straddling
// segments are filtered in place. The freed payload words are released in
// their slabs: a slab left without a live word is recycled, the rest stay
// as dead space until compaction.
func (s *LogStore) trimPeer(pl *peerLog, c trimCond) int {
	freed := 0
	var prev *segment
	seg := pl.head
	for seg != nil {
		next := seg.next
		drop := c.coversSeg(seg)
		if drop {
			for i := 0; i < seg.n; i++ {
				s.arena.release(seg.recs[i].sl, seg.recs[i].n)
			}
			freed += seg.bytes
			pl.bytes -= seg.bytes
			pl.combining -= seg.combining
		} else {
			freed += s.filterSegment(pl, seg, c)
			drop = seg.n == 0
		}
		if drop {
			if prev == nil {
				pl.head = next
			} else {
				prev.next = next
			}
			if seg == pl.tail {
				pl.tail = prev
			}
			s.recycleSegment(seg)
		} else {
			prev = seg
		}
		seg = next
	}
	return freed
}

// filterSegment drops the covered records of one straddling segment,
// compacting the survivors down and rebuilding the segment's watermarks and
// aggregates.
func (s *LogStore) filterSegment(pl *peerLog, seg *segment, c trimCond) int {
	freed := 0
	kept := 0
	oldCombining := seg.combining
	seg.bytes, seg.words, seg.combining = 0, 0, 0
	seg.maxEC, seg.maxGNC, seg.maxGC = -1, -1, -1
	for i := 0; i < seg.n; i++ {
		r := &seg.recs[i]
		if c.covers(r) {
			freed += r.footprint()
			s.arena.release(r.sl, r.n)
			continue
		}
		if kept != i {
			seg.recs[kept] = *r
		}
		k := &seg.recs[kept]
		seg.bytes += k.footprint()
		seg.words += k.n
		if k.meta.Combine {
			seg.combining++
		}
		if k.meta.EC > seg.maxEC {
			seg.maxEC = k.meta.EC
		}
		if k.meta.GNC > seg.maxGNC || (k.meta.GNC == seg.maxGNC && k.meta.GC > seg.maxGC) {
			seg.maxGNC, seg.maxGC = k.meta.GNC, k.meta.GC
		}
		kept++
	}
	seg.n = kept
	pl.bytes -= freed
	pl.combining += seg.combining - oldCombining
	return freed
}

// clear drops every record (a coordinated checkpoint subsumes all logs) and
// recycles the whole arena, returning the bytes freed. M flags are lowered;
// N flags describe open epochs, not log contents, and are left alone.
func (s *LogStore) clear() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	freed := s.lpBytes + s.lgBytes
	for q, pl := range s.lp {
		s.releasePeer(pl)
		delete(s.lp, q)
		s.mFlag[q] = false
	}
	for q, pl := range s.lg {
		s.releasePeer(pl)
		delete(s.lg, q)
	}
	s.lpBytes, s.lgBytes = 0, 0
	s.arena.recycleAll()
	return freed
}

// reset is clear plus dropped N flags (post-rollback: the aborted epochs
// no longer exist).
func (s *LogStore) reset() {
	s.clear()
	s.mu.Lock()
	clear(s.nFlag)
	s.mu.Unlock()
}

func (s *LogStore) releasePeer(pl *peerLog) {
	for seg := pl.head; seg != nil; {
		next := seg.next
		s.recycleSegment(seg)
		seg = next
	}
	pl.head, pl.tail = nil, nil
	pl.bytes, pl.combining = 0, 0
}

// maybeCompact rewrites every live payload densely into fresh slabs once the
// arena's live ratio drops below the configured threshold (a negative
// threshold disables compaction), recycling the sparse slabs. Called with mu
// held after trims; O(live words), amortized against the trims that created
// the dead space.
func (s *LogStore) maybeCompact() {
	a := &s.arena
	if a.used < 2*a.slabWords || s.cfg.compactRatio <= 0 {
		return
	}
	if float64(a.live) >= s.cfg.compactRatio*float64(a.used) {
		return
	}
	if a.live == 0 {
		// Nothing survives: recycle every slab wholesale. This also keeps
		// the steady-state append/trim cycle allocation-free (the slab
		// list's backing array is reused).
		a.recycleAll()
		return
	}
	old := a.slabs
	a.slabs = nil
	a.used = 0
	live := a.live
	a.live = 0
	s.rewritePayloads(s.lp)
	s.rewritePayloads(s.lg)
	if a.live != live {
		panic("ftrma: log compaction changed the live word count")
	}
	for _, sl := range old {
		a.recycle(sl)
	}
}

func (s *LogStore) rewritePayloads(m map[int]*peerLog) {
	for _, pl := range m {
		for seg := pl.head; seg != nil; seg = seg.next {
			for i := 0; i < seg.n; i++ {
				r := &seg.recs[i]
				sl, off := s.arena.alloc(r.n)
				copy(sl.data[off:off+r.n], r.payload())
				r.sl, r.off = sl, off
				s.arena.copied += r.n
			}
		}
	}
}

// largestPeer returns the rank whose logs occupy the most bytes here (the
// demand-checkpoint victim of §6.2) and that size. The per-peer byte
// aggregates are maintained incrementally by append and trim, so the scan
// is O(peers) — independent of the record count.
func (s *LogStore) largestPeer() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestBytes := -1, 0
	for q, pl := range s.lp {
		b := pl.bytes
		if gl := s.lg[q]; gl != nil {
			b += gl.bytes
		}
		if b > bestBytes {
			best, bestBytes = q, b
		}
	}
	for q, gl := range s.lg {
		if s.lp[q] != nil {
			continue
		}
		if gl.bytes > bestBytes {
			best, bestBytes = q, gl.bytes
		}
	}
	return best, bestBytes
}

// liveFootprint recomputes the summed record footprints from scratch (the
// slow O(records) walk the byte counters replace); tests assert it equals
// bytes() after every mutation — the byte-accounting invariant.
func (s *LogStore) liveFootprint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, m := range []map[int]*peerLog{s.lp, s.lg} {
		for _, pl := range m {
			for seg := pl.head; seg != nil; seg = seg.next {
				for i := 0; i < seg.n; i++ {
					total += seg.recs[i].footprint()
				}
			}
		}
	}
	return total
}
