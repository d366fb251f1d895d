// Package fabric is the symmetric, coordinatorless runtime of the
// cluster: every worker hosts its own rank's window, access logs, and the
// share of checkpoint parity the seed placed at its rank, and the ranks
// speak the wire protocol directly to each other — epoch closes, the gsync
// barrier, checkpoint folds, membership gossip, and crisis recovery all
// flow peer-to-peer. The only asymmetric piece left is the bootstrap Seed, a
// pure join directory that hands each worker its rank and the initial
// membership table and is never contacted again (workers close their seed
// connection right after joining, so the steady-state put/get path has
// zero coordinator round trips by construction — the frame accounting in
// rankd's coordinatorless smoke test asserts it).
//
// # Who hosts what
//
//   - Window: each rank's window lives in its own process. Remote puts
//     and gets arrive as fBatch frames (one per epoch close, the same
//     batching contract as the tcp transport).
//   - Access logs: each rank logs its own puts towards every target
//     (LP, source-side) and the gets peers issue against its window (LG,
//     target-side) in a local ftrma.LogStore. A rank's death therefore
//     loses none of the logs needed to replay it: they all live on
//     survivors.
//   - Checkpoint parity: ranks form Groups groups (rank r belongs to
//     group r mod Groups); each group's m=1 parity shard set is hosted
//     on a rank the seed elects once (ftrma.ElectParityHost), preferring
//     hosts outside the group so one failure never takes a member's
//     committed base down together with the parity guarding it. The
//     hosting table never changes after: a rank's replacement inherits
//     its share, as the paper's new process inherits the failed one's
//     checksum duty. At every phase boundary
//     each rank diffs its window against its last committed base and
//     ships the (off, delta) ranges to its group's host in one
//     fParityFold frame; the host applies them with
//     erasure.UpdateParityWords (ftrma.FoldDelta) — at m = 1 the code's
//     one parity row is all ones, so the fold is the paper's plain XOR —
//     and records the member's counter snapshot atomically with the
//     fold, so parity = XOR(members' committed bases) holds at every
//     instant the checkpoint lock is free.
//
// # Membership, leases, gossip
//
// Liveness is lease-based: every peer connection carries wire heartbeats
// with a rolling read deadline of LeaseInterval × LeaseMiss, and a
// connection going down (reset, or lease expiry on a silent peer) marks
// the peer dead under the fail-stop model — safely, because a node holds
// one connection per (rank, incarnation), dialed single-flight, and closes
// it only by dying or by verdict. Deaths and gsync watermarks spread by
// gossip (fGossip) every GossipInterval; entries merge by incarnation (higher wins; within one
// incarnation a death verdict is sticky and watermarks are monotone).
// Gossip is anti-entropy only: everything a recovery waits for is pushed
// when it happens, so GossipInterval is not a term of the recovery time.
//
// The gsync barrier goes through the parity hosts. A fold leaves only
// once every batch of phase p is acked, so it is the member's ready: the
// host merges the member's watermark p+1 when it folds. Once every member
// of the groups it hosts has folded p (ftrma.GsyncReady), the host sends
// each other host one targeted fGossip with those members' entries; it
// answers the folds of p it holds once its table shows every rank at p+1
// (ftrma.GsyncRelease), so the fold's answer is the member's release. A
// held fold waits on the host's list, not on a goroutine, and whoever
// merges the deciding watermark answers it. A dead rank's watermark
// freezes, holding every release until the replacement folds — nobody
// ever impersonates the victim.
//
// # Crisis
//
// The arbiter — the lowest-ranked survivor, recomputed from the local
// table so arbitration survives the arbiter's own death — drives
// recovery: quiesce checkpoint folds (fCrisisBegin to every survivor at
// once: a host answers the folds it holds, and each survivor acks once its
// own fold is answered and committed, or failed; no new fold starts until
// fCrisisEnd), gather the victim's logs from every survivor (fLogFetch,
// which waits out a batch the victim acked that is not logged yet),
// classify the crash, and hand the gathered records to the replacement
// when it joins (the fJoin reply doubles as the install frame). No window
// passes through the arbiter: the replacement rebuilds its own state from
// the survivors, still quiesced — the shard of every group its rank hosts,
// the XOR of the members' committed bases (fBaseFetch), and its committed
// base and counters, the XOR of its group's parity (fParityFetch) and the
// other members' bases, each XOR done in place in the first buffer
// fetched (the fabric's parity is RS(k, 1)) — replays the records with
// GNC ≥ its committed phase in causal order (ftrma.ReplayOrder), and
// confirms with a second fJoin on the same connection, on which the
// arbiter publishes it and ends the crisis. A replacement that hangs up
// before it confirms leaves the install parked for the next one.
//
// Every wait on that path is for an event, none for a clock. fJoin is a
// long poll: a member that is not the arbiter redirects at once, and the
// arbiter holds the request open — through the verdict and the log gather,
// if the join came first — until the install is parked, then answers with
// it; its install wait ends on the confirm. The arbiter publishes the
// replacement by a gossip round and fCrisisEnd, and every parity host
// resends its readiness to a replacement that hosts;
// that wakes the survivors' parked flushes towards the victim, which
// redeliver to the replacement (the disjoint write-once causal workload
// makes redelivery and re-execution idempotent). A frame that reaches the
// replacement before it has applied its install is held there until it is
// live and then served, never refused. A checkpoint fold that fails keeps
// its diff and is re-shipped, word for word, once the host's membership
// entry has moved or a crisis has closed — the host dedupes a retry by
// phase, so a retry diffed afresh could commit words parity never saw. The one
// clock-based wait left is the back-off after a failed dial (nothing
// follows a refused dial that one could wait for), counted in
// fabric.retry.backoffs; a kill and its recovery leave it at zero.
//
// The fabric is deliberately scoped to the paper's cheap path: causal
// (conflict-free) workloads, coordinated checkpoints at every gsync, one
// failure at a time. A Node serves rma.API, the interface the paper's
// stencil and FFT are written against, and not rma.FullAPI: combining
// accumulates, atomics, structure locks, and demand checkpoints stay on
// the in-process ftrma stack. Survivability is
// ftrma.Classify over the membership and hosting tables with one parity
// level: there is no coordinated level to roll back to, so every verdict
// but causal — several ranks dead at once (a second failure mid-crisis
// included), an N/M-flagged victim, a group that lost a member and its
// parity host — is reported as an error rather than recovered, until the
// fabric gains that level (ROADMAP item 5, step 0). An arbiter death
// mid-crisis is reported likewise.
//
// docs/WIRE.md §3 is the normative spec of the fabric frames (0x40–0x50);
// docs/ARCHITECTURE.md draws the hub-free topology.
package fabric

import (
	"fmt"
	"time"
)

// Member is one rank's membership entry as this node sees it.
type Member struct {
	// Rank is the slot; Addr the address its fabric listener is dialed
	// at (dialer-specific syntax, see transport.Dialer).
	Rank int
	Addr string
	// Incarnation counts replacements of the slot: the seed assigns 0,
	// every crisis install bumps it. Higher incarnations win merges.
	Incarnation int
	// Alive is the fail-stop verdict. Within one incarnation a death is
	// sticky: only a new incarnation revives the slot.
	Alive bool
	// Watermark is the rank's gsync progress: the number of phases it
	// has completed and committed a checkpoint for. Monotone within an
	// incarnation.
	Watermark int
}

// Hosting is one entry of the parity hosting table: group's shards live
// at Host. The seed places every group once (ftrma.ElectParityHost) and the
// table never changes after: a rank's replacement inherits its rank's share
// and rebuilds it, so hosting never moves.
type Hosting struct {
	Group int
	Host  int
}

// Tuning groups the fabric's membership timing knobs: the lease that
// detects silent peers and the gossip cadence that spreads verdicts.
// SeedConfig.Tuning carries one of these; the seed distributes it so
// every rank runs identical timings.
type Tuning struct {
	// LeaseInterval is the heartbeat period on peer connections; with
	// LeaseMiss it sets the failure detector's patience (a peer silent
	// for LeaseInterval × LeaseMiss is declared dead). Default 50ms.
	LeaseInterval time.Duration
	// LeaseMiss is how many silent lease intervals condemn a peer.
	// Default 10.
	LeaseMiss int
	// GossipInterval is the membership gossip period. Default 25ms.
	GossipInterval time.Duration
}

// WithDefaults resolves zero values to the defaults.
func (t Tuning) WithDefaults() Tuning {
	if t.LeaseInterval == 0 {
		t.LeaseInterval = 50 * time.Millisecond
	}
	if t.LeaseMiss == 0 {
		t.LeaseMiss = 10
	}
	if t.GossipInterval == 0 {
		t.GossipInterval = 25 * time.Millisecond
	}
	return t
}

// Validate rejects nonsensical tunings with descriptive errors.
func (t Tuning) Validate() error {
	if t.LeaseInterval < 0 {
		return fmt.Errorf("fabric: negative Fabric.LeaseInterval %v", t.LeaseInterval)
	}
	if t.LeaseMiss < 0 {
		return fmt.Errorf("fabric: negative Fabric.LeaseMiss %d", t.LeaseMiss)
	}
	if t.GossipInterval < 0 {
		return fmt.Errorf("fabric: negative Fabric.GossipInterval %v", t.GossipInterval)
	}
	return nil
}
