package fabric

import (
	"math"
	"time"

	"repro/internal/ftrma"
	"repro/internal/machine"
	"repro/internal/rma"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Fabric frame types, 0x40–0x50 (0x44, 0x47 and 0x4B retired), disjoint
// from the tcp peer protocol's 0x10–0x16 so a misdirected frame fails loudly
// instead of aliasing.
// docs/WIRE.md §3 is the normative payload spec; the enc/dec helpers in
// this file are the implementation of record, and TestWireDocMatchesFrames
// holds the two to the same catalog.
const (
	// fJoin (call, joiner → seed or any live node): {addr}. A long poll:
	// the reply comes when there is one to give and carries a mode byte,
	// jmRedirect{addr} or jmWorld{world, install?} — the world snapshot
	// doubles as the crisis install channel for a replacement rank, which
	// rebuilds its state and confirms on the same connection with a second
	// fJoin {addr, phase}, answered empty once the arbiter has published it.
	fJoin = 0x40
	// fHello (notify, first frame on a peer conn): {rank, incarnation}
	// attributes the connection so its death is charged to the right
	// member.
	fHello = 0x41
	// fGossip (notify): {members} anti-entropy broadcast; also a parity
	// host's readiness to the other hosts, carrying its groups' members'
	// entries once every member's fold of a phase is in.
	fGossip = 0x42
	// fBatch (call, source → target): one epoch close worth of puts and
	// gets: {src, inc, phase, puts{off, words}*, gets{off, n, localOff+1,
	// gc}*}; the reply concatenates the get data in order.
	fBatch = 0x43
	// fParityFold (call, member → group host): {rank, inc, group,
	// memberIdx, phase, snap{ec*, gc}, ranges{off, delta-words}*}. The
	// host folds the deltas into the group parity and stores the snap
	// atomically; a duplicate (same member, same phase) is acked without
	// re-applying, which makes a retry after a lost ack safe as long as it
	// carries the words of the first attempt (checkpoint diffs once per
	// phase and re-ships that). Applied or deduplicated, the fold is also
	// the member's ready to its host, which merges (rank, inc)'s watermark
	// phase+1 (monotone, so a retry re-merges it harmlessly), and the reply
	// {status} is the member's release from the gsync barrier: foldReleased
	// once every rank has folded phase, foldHeld when a crisis began first.
	fParityFold = 0x45
	// fParityFetch (call, replacement → group host): {group} → {k, m,
	// snaps k×{phase+1, ec*, gc}, shards m×words}.
	fParityFetch = 0x46
	// fBaseFetch (call, replacement → member): {} → {phase+1, ec*, gc,
	// base-words}: the member's last committed base under the checkpoint
	// lock, so it is consistent with the group parity; the window with the
	// saved chunks laid over it, gathered under the window lock too.
	fBaseFetch = 0x48
	// fLogFetch (call, arbiter → survivor): {victim} → {n, m, lp*, lg*}:
	// everything the survivor logged by or about the victim.
	fLogFetch = 0x49
	// fCrisisBegin (call, arbiter → survivor): {victim, inc}. The ack
	// means the survivor marked the victim dead, answered the folds it
	// holds, and has no checkpoint fold of its own in flight; folds stay
	// parked until fCrisisEnd.
	fCrisisBegin = 0x4A
	// fCrisisEnd (notify, arbiter → survivors): {members} publishes the
	// post-crisis world and unparks checkpoints.
	fCrisisEnd = 0x4C
	// fMembers (call, anyone → node): {} → {members, hostings} snapshot
	// (observability; the smoke tests collect through it).
	fMembers = 0x4D
	// fWindowFetch (call, anyone → node): {} → {window-words} snapshot
	// under the window lock (observability/collection).
	fWindowFetch = 0x4E
	// fShutdown (notify): orderly end of the run; AwaitShutdown returns.
	fShutdown = 0x4F
	// fCrisisFail (notify, arbiter → survivors): {msg}. The crisis is
	// unrecoverable (correlated loss, a second death mid-recovery);
	// survivors fail their run immediately instead of waiting forever at
	// the watermark barrier for a replacement that cannot come.
	fCrisisFail = 0x50
)

// fJoin reply modes. 0 was "retry in {delayMs}" before joins were held
// open and stays reserved.
const (
	jmRedirect = 1 // not the arbiter: {addr of current arbiter}
	jmWorld    = 2 // welcome: {world, install?}
)

// snap is a member's counter snapshot at its last committed checkpoint:
// the phase the base covers, the per-target epoch counters, and the get
// counter. It rides every fold so the host can reconstruct not just the
// victim's words but its position in the causal order.
type snap struct {
	phase int // -1 before the first checkpoint
	ec    []int
	gc    int
}

// encoder is what the payload encoders write to: a wire.Enc for a
// notification, a wire.Vec for a reply or a vectored call, whose Words
// gathers the run instead of copying it.
type encoder interface {
	B(byte)
	U(uint64)
	I(int)
	Str(string)
	Words([]uint64)
}

func encBool(e encoder, b bool) {
	if b {
		e.B(1)
	} else {
		e.B(0)
	}
}

func encSnap(e encoder, s snap) {
	e.I(s.phase + 1)
	e.I(len(s.ec))
	for _, v := range s.ec {
		e.I(v)
	}
	e.I(s.gc)
}

func decSnap(d *wire.Dec) (snap, bool) {
	var s snap
	s.phase = d.I() - 1
	n := d.I()
	if d.Failed() || n < 0 || n > wire.MaxFrame/8 {
		return s, false
	}
	s.ec = make([]int, n)
	for i := range s.ec {
		s.ec[i] = d.I()
	}
	s.gc = d.I()
	return s, !d.Failed()
}

func encMembers(e encoder, ms []Member) {
	e.I(len(ms))
	for _, m := range ms {
		e.I(m.Rank)
		e.Str(m.Addr)
		e.I(m.Incarnation)
		encBool(e, m.Alive)
		e.I(m.Watermark)
	}
}

func decMembers(d *wire.Dec) ([]Member, bool) {
	n := d.I()
	if d.Failed() || n < 0 || n > wire.MaxFrame/8 {
		return nil, false
	}
	ms := make([]Member, n)
	for i := range ms {
		ms[i].Rank = d.I()
		ms[i].Addr = d.Str()
		ms[i].Incarnation = d.I()
		ms[i].Alive = d.B() != 0
		ms[i].Watermark = d.I()
	}
	return ms, !d.Failed()
}

// decTables decodes the {members, hostings} pair of an fMembers reply.
func decTables(d *wire.Dec) ([]Member, []Hosting, bool) {
	ms, ok1 := decMembers(d)
	hs, ok2 := decHostings(d)
	return ms, hs, ok1 && ok2
}

func encHostings(e encoder, hs []Hosting) {
	e.I(len(hs))
	for _, h := range hs {
		e.I(h.Group)
		e.I(h.Host)
	}
}

func decHostings(d *wire.Dec) ([]Hosting, bool) {
	n := d.I()
	if d.Failed() || n < 0 || n > wire.MaxFrame/8 {
		return nil, false
	}
	hs := make([]Hosting, n)
	for i := range hs {
		hs[i].Group = d.I()
		hs[i].Host = d.I()
	}
	return hs, !d.Failed()
}

// encRecord writes one logged access (WIRE.md §3's record): the install
// and fLogFetch replies carry lists of them.
func encRecord(e encoder, r ftrma.LogRecord) {
	e.B(byte(r.Kind))
	e.I(r.Src)
	e.I(r.Trg)
	e.I(r.Off)
	e.I(r.LocalOff + 1) // -1 (private destination) encodes as 0
	e.B(byte(r.Op))
	encBool(e, r.Combine)
	e.I(r.EC)
	e.I(r.GC)
	e.I(r.SC)
	e.I(r.GNC)
	e.Words(r.Data)
}

func encRecordList(e encoder, recs []ftrma.LogRecord) {
	e.I(len(recs))
	for _, r := range recs {
		encRecord(e, r)
	}
}

func decRecord(d *wire.Dec) (ftrma.LogRecord, bool) {
	var r ftrma.LogRecord
	r.Kind = ftrma.LogKind(d.B())
	r.Src = d.I()
	r.Trg = d.I()
	r.Off = d.I()
	r.LocalOff = d.I() - 1
	op := d.B()
	if !transport.ValidRed(op) {
		return r, false
	}
	r.Op = rma.ReduceOp(op)
	r.Combine = d.B() != 0
	r.EC = d.I()
	r.GC = d.I()
	r.SC = d.I()
	r.GNC = d.I()
	r.Data = d.Words()
	return r, !d.Failed()
}

func decRecordList(d *wire.Dec) ([]ftrma.LogRecord, bool) {
	count := d.I()
	if d.Failed() || count < 0 || count > wire.MaxFrame/16 {
		return nil, false
	}
	out := make([]ftrma.LogRecord, 0, count)
	for i := 0; i < count; i++ {
		rec, ok := decRecord(d)
		if !ok {
			return nil, false
		}
		out = append(out, rec)
	}
	return out, true
}

// world is the static shape of the run every join reply carries.
type world struct {
	rank        int
	n           int
	windowWords int
	groups      int
	tuning      Tuning
	meta        []byte
	members     []Member
	hostings    []Hosting
}

func encWorld(e encoder, w world) {
	e.I(w.rank)
	e.I(w.n)
	e.I(w.windowWords)
	e.I(w.groups)
	e.U(uint64(w.tuning.LeaseInterval))
	e.I(w.tuning.LeaseMiss)
	e.U(uint64(w.tuning.GossipInterval))
	e.Str(string(w.meta))
	encMembers(e, w.members)
	encHostings(e, w.hostings)
}

func decWorld(d *wire.Dec) (world, bool) {
	var w world
	w.rank = d.I()
	w.n = d.I()
	w.windowWords = d.I()
	w.groups = d.I()
	// Durations ride as full-width nanoseconds (Dec.I stops at 2^32, i.e.
	// 4.3 s); anything above MaxInt64 — a negative one included — is refused.
	lease := d.U()
	w.tuning.LeaseMiss = d.I()
	gossip := d.U()
	if lease > math.MaxInt64 || gossip > math.MaxInt64 {
		return w, false
	}
	w.tuning.LeaseInterval, w.tuning.GossipInterval = time.Duration(lease), time.Duration(gossip)
	w.meta = []byte(d.Str())
	var ok bool
	if w.members, ok = decMembers(d); !ok {
		return w, false
	}
	if w.hostings, ok = decHostings(d); !ok {
		return w, false
	}
	return w, !d.Failed()
}

// install is what a replacement rank receives inside its join reply: every
// record the survivors logged by or about the victim, as the crisis gathered
// them. The replacement rebuilds its base and committed counters from the
// survivors (Node.restore) and replays from these the records its committed
// phase has not seen.
type install struct {
	puts []ftrma.LogRecord
	gets []ftrma.LogRecord
}

func encInstall(e encoder, in *install) {
	encRecordList(e, in.puts)
	encRecordList(e, in.gets)
}

func decInstall(d *wire.Dec) (*install, bool) {
	var in install
	var ok bool
	if in.puts, ok = decRecordList(d); !ok {
		return nil, false
	}
	if in.gets, ok = decRecordList(d); !ok {
		return nil, false
	}
	return &in, !d.Failed()
}

// fabricGrouping is the fabric's parity grouping: rank r in group
// r mod groups, one parity shard per group.
func fabricGrouping(n, groups int) machine.Grouping {
	return machine.Grouping{NumCompute: n, NumGroups: groups, M: 1}
}
