// Package fabric is the symmetric, coordinatorless runtime of the
// cluster: every worker hosts its own rank's window, access logs, and an
// elected share of checkpoint parity, and the ranks speak the wire
// protocol directly to each other — epoch closes, gsync readies,
// checkpoint folds, membership gossip, and crisis recovery all flow
// peer-to-peer. The only asymmetric piece left is the bootstrap Seed, a
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
//     target-side) in a local ftrma.LogHost. A rank's death therefore
//     loses none of the logs needed to replay it: they all live on
//     survivors.
//   - Checkpoint parity: ranks form Groups groups (rank r belongs to
//     group r mod Groups); each group's m=1 parity shard set is hosted
//     on a rank elected by ftrma.ElectParityHost, preferring hosts
//     outside the group so one failure never takes a member's base copy
//     down together with the parity guarding it. At every phase boundary
//     each rank diffs its window against its last committed base and
//     ships the (off, delta) ranges to its group's host in one
//     fParityFold frame; the host applies them with
//     erasure.UpdateParityWords (ftrma.FoldDelta) and records the
//     member's counter snapshot atomically with the fold, so
//     parity = encode(members' committed bases) holds at every instant
//     the checkpoint lock is free.
//
// # Membership, leases, gossip
//
// Liveness is lease-based: every peer connection carries wire heartbeats
// with a rolling read deadline of LeaseInterval × LeaseMiss, and a
// connection going down (reset, or lease expiry on a silent peer) marks
// the peer dead under the fail-stop model — safely, because a node holds
// one connection per (rank, incarnation), dialed single-flight, and closes
// it only by dying or by verdict. Deaths, gsync watermarks, and
// the parity hosting table spread by gossip (fGossip) every
// GossipInterval; entries merge by incarnation (higher wins; within one
// incarnation a death verdict is sticky and watermarks are monotone).
// Gossip is anti-entropy only: everything a recovery waits for is pushed
// when it happens, so GossipInterval is not a term of the recovery time.
//
// The gsync barrier itself is hub-free: a rank finishing phase p sends
// fGsyncReady with watermark p+1 to every peer but the host its fold
// reached, and passes the barrier when its local view shows every rank's
// watermark ≥ p+1. The host needs no ready: a fold leaves only once every
// batch of p is acked, so the host merges the member's watermark p+1 when
// it folds, before it acks. A dead rank's watermark freezes, parking
// survivors at most one phase ahead until the replacement climbs past
// them — nobody ever impersonates the victim.
//
// # Crisis
//
// The arbiter — the lowest-ranked survivor, recomputed from the local
// table so arbitration survives the arbiter's own death — drives
// recovery: quiesce checkpoint folds (fCrisisBegin, acked by each
// survivor once no fold is in flight; no new fold can start because the
// next one needs a barrier pass that the victim's frozen watermark
// blocks), gather the victim's logs from every survivor (fLogFetch),
// re-elect and rebuild any parity the victim hosted (fBaseFetch +
// fParityInstall), reconstruct the victim's base from its group's parity
// and the surviving members' bases (erasure.ReconstructWords), and hand
// the reconstructed state — base, counter snapshot, and the causally
// sorted replay records with GNC ≥ the committed phase — to the
// replacement when it joins (the fJoin reply doubles as the install
// frame).
//
// Every wait on that path is for an event, none for a clock. fJoin is a
// long poll: a member that is not the arbiter redirects at once, and the
// arbiter holds the request open — through the verdict and the rebuild, if
// the join came first — until the install is parked, then answers with it.
// The arbiter publishes the replacement by a gossip round and fCrisisEnd;
// that wakes the survivors' parked flushes towards the victim, which
// redeliver to the replacement (the disjoint write-once causal workload
// makes redelivery and re-execution idempotent). A frame that reaches the
// replacement before it has applied its install is held there until it is
// live and then served, never refused. A checkpoint fold that fails keeps
// its diff and is re-shipped, word for word, once the hosting table or the
// host's membership entry has moved — the host dedupes a retry by phase, so
// a retry diffed afresh could commit words parity never saw. The one
// clock-based wait left is the back-off after a failed dial (nothing
// follows a refused dial that one could wait for), counted in
// fabric.retry.backoffs; a kill and its recovery leave it at zero.
//
// The fabric is deliberately scoped to the paper's cheap path: causal
// (conflict-free) workloads, coordinated checkpoints at every gsync, one
// failure at a time. Combining accumulates, structure locks, and demand
// checkpoints stay on the in-process ftrma stack. Survivability is
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

	"repro/internal/rma"
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
// at Host. The table is explicit state — gossiped, versioned, and
// reassigned only by a crisis arbiter — never recomputed from the live
// set, so hosting cannot silently move without a shard handoff.
type Hosting struct {
	Group   int
	Host    int
	Version int
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

// Membership is a node's view of the world: who holds each rank, whether
// they are alive, and how far they have progressed.
type Membership interface {
	// Self returns this node's own entry.
	Self() Member
	// Members returns a snapshot of the full table, indexed by rank.
	Members() []Member
	// Hostings returns a snapshot of the parity hosting table.
	Hostings() []Hosting
}

// Epoch is the peer-to-peer bulk-synchronous surface: the phase cursor
// and the gsync that closes it (checkpoint fold, readies to the peers,
// watermark barrier, log trim).
type Epoch interface {
	// Phase returns the phase the node executes next (its watermark).
	Phase() int
	// Sync closes the current phase. It is rma.API's Gsync with an error
	// return: crisis waits happen inside, and unrecoverable states
	// (double failure) surface here instead of panicking.
	Sync() error
}

// Crisis is the recovery surface of a node.
type Crisis interface {
	// InCrisis reports whether a recovery is pending somewhere in the
	// world (checkpoint folds are parked while it is).
	InCrisis() bool
	// Recoveries counts the crises this node has observed complete.
	Recoveries() int
}

// Fabric is the full runtime surface a worker programs against: the rma
// API for its application work plus the fabric's membership, epoch, and
// crisis views. *Node is the implementation.
type Fabric interface {
	rma.API
	Membership
	Epoch
	Crisis
	// Meta returns the opaque workload blob the seed distributed.
	Meta() []byte
	// Addr returns the address this node advertises.
	Addr() string
	// AwaitShutdown blocks until a peer sends fShutdown or the node is
	// closed.
	AwaitShutdown()
	// Close tears the node down (without marking it failed to peers
	// beyond the fail-stop signal of its connections dropping).
	Close() error
}
