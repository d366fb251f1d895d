package ftrma

// Recovery decisions. Which crash is recoverable how (§4.3, §5.1) and the
// order logged accesses replay in (Theorem 4.2) are pure functions of
// counters and placements: no clock, no I/O, no System. This file is the
// only statement of each; the in-process System, the fabric's crisis
// arbiter and the resilience predictor only gather inputs and call them.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/machine"
)

// Verdict classifies the recovery one fail-stop crash admits.
type Verdict int

const (
	// VerdictCausal: one rank died and its logs and parity survive;
	// causal replay restores it without rollback.
	VerdictCausal Verdict = iota
	// VerdictFallback: causal replay is impossible, but every group can
	// rebuild its lost members from the coordinated level.
	VerdictFallback
	// VerdictCatastrophic: some group lost more state than its parity
	// covers; no software recovery exists.
	VerdictCatastrophic
)

func (v Verdict) String() string {
	switch v {
	case VerdictCausal:
		return "causal"
	case VerdictFallback:
		return "fallback"
	case VerdictCatastrophic:
		return "catastrophic"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Classify decides the recovery a simultaneous crash of the dead ranks
// admits. host(group, level) is the rank hosting that parity level of the
// group (-1: an infallible checksum process); levels is how many parity
// levels the runtime keeps — NumLevels in-process, 1 on the fabric, which
// has no coordinated level and so never falls back. flagged reports an N
// or M flag about the victim at some survivor.
//
// One unflagged dead rank whose group's uncoordinated parity host lives is
// causal. Otherwise the crash falls back if every group with dead members
// keeps a live coordinated host and loses at most M members; anything else
// is catastrophic.
func Classify(g machine.Grouping, host func(group, level int) int, levels int, dead []int, flagged bool) Verdict {
	gone := func(r int) bool { return r >= 0 && slices.Contains(dead, r) }
	if len(dead) == 1 && !flagged && !gone(host(g.GroupOf(dead[0]), LevelUC)) {
		return VerdictCausal
	}
	if levels < NumLevels {
		return VerdictCatastrophic
	}
	missing := make(map[int]int, len(dead))
	for _, r := range dead {
		missing[g.GroupOf(r)]++
	}
	for grp, k := range missing {
		if g.M < k || gone(host(grp, LevelCC)) {
			return VerdictCatastrophic
		}
	}
	return VerdictFallback
}

// ReplayLogs holds the logs fetched during recovery of a failed rank,
// already causally ordered (Algorithms 2 and 3): puts sorted by
// (GNC, SC, EC), gets by (GNC, GC). Replaying in this order preserves the
// cohb order introduced by gsyncs (Theorem 4.2), the so order introduced by
// locks, and the co order of epochs, while leaving ||co accesses in an
// arbitrary (access-deterministic) order.
type ReplayLogs struct {
	Puts []LogRecord
	Gets []LogRecord
}

// ReplayOrder selects and orders fetched logs for replay, in place. It
// keeps the records with GNC ≥ from (all for a negative from): the phases
// lost since the victim's checkpoint at phase from, plus the straggler
// deliveries that checkpoint missed — replay is idempotent under the
// causal model, so the overlap is safe. It sorts puts by (GNC, SC, EC) and
// gets by (GNC, GC), stably: records the counters do not order keep their
// fetch order.
func ReplayOrder(puts, gets []LogRecord, from int) *ReplayLogs {
	if from >= 0 {
		stale := func(r LogRecord) bool { return r.GNC < from }
		puts = slices.DeleteFunc(puts, stale)
		gets = slices.DeleteFunc(gets, stale)
	}
	sort.SliceStable(puts, func(i, j int) bool {
		a, b := puts[i], puts[j]
		if a.GNC != b.GNC {
			return a.GNC < b.GNC
		}
		if a.SC != b.SC {
			return a.SC < b.SC
		}
		return a.EC < b.EC
	})
	sort.SliceStable(gets, func(i, j int) bool {
		a, b := gets[i], gets[j]
		if a.GNC != b.GNC {
			return a.GNC < b.GNC
		}
		return a.GC < b.GC
	})
	return &ReplayLogs{Puts: puts, Gets: gets}
}

// Len returns the total number of records to replay.
func (l *ReplayLogs) Len() int { return len(l.Puts) + len(l.Gets) }

// MaxGNC returns the largest gsync phase among the records, or -1 when
// empty. Applications replay phase by phase, interleaving recomputation.
func (l *ReplayLogs) MaxGNC() int {
	max := -1
	for _, r := range l.Puts {
		if r.GNC > max {
			max = r.GNC
		}
	}
	for _, r := range l.Gets {
		if r.GNC > max {
			max = r.GNC
		}
	}
	return max
}

// The gsync barrier through the parity hosts (§4–§5: gsync needs only the
// counters each checkpoint already carries to its group's checksum host).
// Every rank folds phase p to its group's host and that call is its ready;
// wm(r) is what one host knows of rank r: the number of phases whose fold
// from r has been received — by this host, or by r's own host, which told
// it. A dead rank's wm is frozen at its last received fold.
//
// GsyncReady is when a host tells the other hosts: every member of each
// group it hosts (hosts(group)) has folded phase p. It counts folds
// received, never folds released: a host is also a member of a group some
// other host holds, and a rule that waited for its own release there would
// wait for itself. GsyncRelease is when a host answers the folds of p it
// holds — the answer is the members' barrier pass: every rank of the world
// has folded p. A rank that has not (a dead one included, until its
// replacement folds) holds every release.
func GsyncReady(g machine.Grouping, hosts func(group int) bool, wm func(rank int) int, p int) bool {
	for r := 0; r < g.NumCompute; r++ {
		if hosts(g.GroupOf(r)) && wm(r) <= p {
			return false
		}
	}
	return true
}

// GsyncRelease reports whether every rank has folded phase p (GsyncReady
// over all groups).
func GsyncRelease(g machine.Grouping, wm func(rank int) int, p int) bool {
	for r := 0; r < g.NumCompute; r++ {
		if wm(r) <= p {
			return false
		}
	}
	return true
}
