package fabric

import (
	"os"

	"repro/internal/obs"
)

// nodeMetrics is the fabric's pre-resolved instrument set: every name in
// the catalog's fabric section (docs/OBSERVABILITY.md §2) is registered
// at node construction — so a scrape always exposes the full set, zeros
// included — and the hot paths pay one atomic add, never a lookup.
type nodeMetrics struct {
	batchSent   *obs.Counter // fabric.batch.sent
	batchRecv   *obs.Counter // fabric.batch.recv
	foldsSent   *obs.Counter // fabric.fold.sent
	foldsHosted *obs.Counter // fabric.fold.hosted
	condemned   *obs.Counter // fabric.condemnations
	nearMiss    *obs.Counter // fabric.lease.close_calls
	crises      *obs.Counter // fabric.crises

	parityRebuilds *obs.Counter // fabric.parity.rebuilds
	replayPuts     *obs.Counter // fabric.replay.puts
	replayGets     *obs.Counter // fabric.replay.gets
	replayChunks   *obs.Counter // fabric.replay.chunks

	// Checkpoint cost vs change: words a diff compared against the base,
	// and delta words the committed folds shipped.
	ckptScanned *obs.Counter // fabric.ckpt.words.scanned
	ckptFolded  *obs.Counter // fabric.ckpt.words.folded

	// Waits on a clock, not an event: only a failed dial has one left.
	backoffs *obs.Counter // fabric.retry.backoffs

	wireOut *obs.Counter // fabric.wire.bytes.sent
	wireIn  *obs.Counter // fabric.wire.bytes.recv

	flushUs  *obs.Histogram // fabric.flush.us
	gsyncUs  *obs.Histogram // fabric.gsync.wait.us
	foldUs   *obs.Histogram // fabric.fold.us
	ckptUs   *obs.Histogram // fabric.ckpt.us
	replayUs *obs.Histogram // fabric.replay.install.us

	// crisis spans by obs.CrisisStage: crisis.<stage>.us.
	crisis []*obs.Histogram
}

func newNodeMetrics(r *obs.Registry) *nodeMetrics {
	m := &nodeMetrics{
		batchSent:      r.Counter("fabric.batch.sent"),
		batchRecv:      r.Counter("fabric.batch.recv"),
		foldsSent:      r.Counter("fabric.fold.sent"),
		foldsHosted:    r.Counter("fabric.fold.hosted"),
		condemned:      r.Counter("fabric.condemnations"),
		nearMiss:       r.Counter("fabric.lease.close_calls"),
		crises:         r.Counter("fabric.crises"),
		parityRebuilds: r.Counter("fabric.parity.rebuilds"),
		replayPuts:     r.Counter("fabric.replay.puts"),
		replayGets:     r.Counter("fabric.replay.gets"),
		replayChunks:   r.Counter("fabric.replay.chunks"),
		ckptScanned:    r.Counter("fabric.ckpt.words.scanned"),
		ckptFolded:     r.Counter("fabric.ckpt.words.folded"),
		backoffs:       r.Counter("fabric.retry.backoffs"),
		wireOut:        r.Counter("fabric.wire.bytes.sent"),
		wireIn:         r.Counter("fabric.wire.bytes.recv"),
		flushUs:        r.Histogram("fabric.flush.us"),
		gsyncUs:        r.Histogram("fabric.gsync.wait.us"),
		foldUs:         r.Histogram("fabric.fold.us"),
		ckptUs:         r.Histogram("fabric.ckpt.us"),
		replayUs:       r.Histogram("fabric.replay.install.us"),
	}
	m.crisis = make([]*obs.Histogram, len(obs.CrisisStages))
	for i, st := range obs.CrisisStages {
		m.crisis[i] = r.Histogram(st.HistName())
	}
	return m
}

// Obs returns the node's metrics registry (never nil once joined).
func (nd *Node) Obs() *obs.Registry { return nd.obs }

// Flight returns the node's flight recorder (never nil once joined; may
// be disabled).
func (nd *Node) Flight() *obs.Recorder { return nd.fr }

// initObs resolves the observability configuration before the join
// handshake, so even a replacement's install replay is instrumented.
// Unlabeled instruments are relabeled by applyWorld once the join
// handshake assigns the rank.
func (nd *Node) initObs(reg *obs.Registry, fr *obs.Recorder, flightDir string) {
	nd.obs = reg
	nd.fr = fr
	nd.flightDir = flightDir
	if nd.flightDir == "" {
		nd.flightDir = os.Getenv(obs.EnvFlightDir)
	}
	if nd.obs == nil {
		nd.obs = obs.New(-1)
	}
	if nd.fr == nil {
		nd.fr = obs.RecorderFromEnv(-1)
	}
	nd.om = newNodeMetrics(nd.obs)
}

// dumpFlight writes the flight ring to the configured dump directory
// (REPRO_FLIGHTREC_DIR or JoinConfig.FlightDir); no-op when unset. The
// fabric calls it on every crisis close so a post-mortem always has the
// per-rank timeline of the recovery.
func (nd *Node) dumpFlight(tag string) {
	if nd.flightDir == "" || !nd.fr.Enabled() {
		return
	}
	if path, err := nd.fr.DumpTo(nd.flightDir, tag); err != nil {
		nd.logf("fabric: rank %d flight dump failed: %v", nd.rank, err)
	} else {
		nd.logf("fabric: rank %d flight ring dumped to %s", nd.rank, path)
	}
}
