package soak

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Report is one soak run's SPEChpc-style result: five sections, each
// fed from the ranks' obs registries. Wall-clock figures are
// machine-dependent diagnostics; the deterministic counts (ops, kills,
// node kills, mutes, recoveries, fallbacks) are what the soak tests
// assert exactly.
type Report struct {
	Transport string `json:"transport"`
	Ranks     int    `json:"ranks"`
	Phases    int    `json:"phases"`
	Seed      int64  `json:"seed"`

	Throughput ThroughputSection `json:"throughput"`
	Latency    LatencySection    `json:"latency"`
	Recovery   RecoverySection   `json:"recovery"`
	Checkpoint CheckpointSection `json:"checkpoint"`
	Wire       WireSection       `json:"wire"`
	Chaos      ChaosSection      `json:"chaos"`
}

// ThroughputSection is steady-state delivered work.
type ThroughputSection struct {
	Ops         uint64  `json:"ops"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_s"`
}

// WindowLatency is the flush-latency distribution of one window class,
// aggregated across every rank alive during it.
type WindowLatency struct {
	Count  uint64 `json:"count"`
	P50Us  uint64 `json:"p50_us"`
	P99Us  uint64 `json:"p99_us"`
	P999Us uint64 `json:"p999_us"`
}

// LatencySection contrasts quiet windows against kill/recover windows:
// the same fabric.flush.us histograms, split at crisis boundaries.
type LatencySection struct {
	Quiet  WindowLatency `json:"quiet"`
	Crisis WindowLatency `json:"crisis"`
}

// StageStats is one crisis stage's timing across every crisis of the run.
type StageStats struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P99Us  uint64  `json:"p99_us"`
}

// RecoverySection is recovery time per crisis stage (quiesce, gather,
// rebuild, install, total), keyed by stage name in timeline order.
type RecoverySection struct {
	Stages map[string]StageStats `json:"stages"`
}

// CheckpointSection is the Sync-time checkpoint cost: total time spent
// folding parity, and that time as a percentage of aggregate rank-time.
type CheckpointSection struct {
	Count       uint64  `json:"count"`
	TotalUs     uint64  `json:"total_us"`
	OverheadPct float64 `json:"overhead_pct"`
}

// WireSection is bytes on the wire (data frames, headers included,
// heartbeats excluded) per delivered workload op.
type WireSection struct {
	BytesSent  uint64  `json:"bytes_sent"`
	BytesRecv  uint64  `json:"bytes_recv"`
	BytesPerOp float64 `json:"bytes_per_op"`
}

// ChaosSection is the injected schedule and the fabric's deterministic
// response to it. Fallbacks counts departures from the causal path and
// must stay zero on causal-only schedules — the soak tests pin it.
type ChaosSection struct {
	Kills      int      `json:"kills"`
	NodeKills  int      `json:"node_kills"`
	Mutes      int      `json:"mutes"`
	Recoveries int      `json:"recoveries"`
	Fallbacks  uint64   `json:"fallbacks"`
	Events     []string `json:"events,omitempty"`
}

// WriteJSON serializes the report, indented.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the report as the human-readable per-section summary
// the soak targets print.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak %s: %d ranks, %d phases, seed %d\n", r.Transport, r.Ranks, r.Phases, r.Seed)
	fmt.Fprintf(&b, "  throughput: %.0f ops/s (%d ops in %.2fs)\n",
		r.Throughput.OpsPerSec, r.Throughput.Ops, r.Throughput.WallSeconds)
	fmt.Fprintf(&b, "  latency quiet:  p50 %dus p99 %dus p999 %dus (%d flushes)\n",
		r.Latency.Quiet.P50Us, r.Latency.Quiet.P99Us, r.Latency.Quiet.P999Us, r.Latency.Quiet.Count)
	fmt.Fprintf(&b, "  latency crisis: p50 %dus p99 %dus p999 %dus (%d flushes)\n",
		r.Latency.Crisis.P50Us, r.Latency.Crisis.P99Us, r.Latency.Crisis.P999Us, r.Latency.Crisis.Count)
	stages := make([]string, 0, len(r.Recovery.Stages))
	for s := range r.Recovery.Stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		st := r.Recovery.Stages[s]
		fmt.Fprintf(&b, "  recovery %-8s mean %.0fus p99 %dus (%d)\n", s+":", st.MeanUs, st.P99Us, st.Count)
	}
	fmt.Fprintf(&b, "  checkpoint: %d folds, %dus total, %.2f%% of rank-time\n",
		r.Checkpoint.Count, r.Checkpoint.TotalUs, r.Checkpoint.OverheadPct)
	fmt.Fprintf(&b, "  wire: %d sent / %d recv = %.0f bytes/op\n",
		r.Wire.BytesSent, r.Wire.BytesRecv, r.Wire.BytesPerOp)
	fmt.Fprintf(&b, "  chaos: %d kills, %d node-kills, %d mutes -> %d recoveries, %d fallbacks\n",
		r.Chaos.Kills, r.Chaos.NodeKills, r.Chaos.Mutes, r.Chaos.Recoveries, r.Chaos.Fallbacks)
	return b.String()
}

// mergeHist sums one named histogram across rank snapshots.
func mergeHist(snaps []obs.Snapshot, name string) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Buckets: map[int]uint64{}}
	for _, s := range snaps {
		hs, ok := s.Histograms[name]
		if !ok {
			continue
		}
		out.Count += hs.Count
		out.Sum += hs.Sum
		for k, v := range hs.Buckets {
			out.Buckets[k] += v
		}
	}
	return out
}

// sumCounter sums one named counter across rank snapshots.
func sumCounter(snaps []obs.Snapshot, name string) uint64 {
	var out uint64
	for _, s := range snaps {
		out += s.Counters[name]
	}
	return out
}

// sumCountersMatching sums every counter whose name contains substr.
func sumCountersMatching(snaps []obs.Snapshot, substr string) uint64 {
	var out uint64
	for _, s := range snaps {
		for n, v := range s.Counters {
			if strings.Contains(n, substr) {
				out += v
			}
		}
	}
	return out
}

func windowLatency(hs obs.HistogramSnapshot) WindowLatency {
	return WindowLatency{
		Count:  hs.Count,
		P50Us:  hs.Quantile(0.50),
		P99Us:  hs.Quantile(0.99),
		P999Us: hs.Quantile(0.999),
	}
}

// buildReport assembles the sections from final rank snapshots plus the
// crisis-window flush histogram accumulated by the chaos controller.
func buildReport(tr Transport, wl Workload, seed int64, wallSec float64,
	ops uint64, snaps []obs.Snapshot, crisisFlush obs.HistogramSnapshot,
	chaos ChaosSection) Report {

	totalFlush := mergeHist(snaps, "fabric.flush.us")
	quiet := totalFlush.Delta(crisisFlush)

	rec := RecoverySection{Stages: map[string]StageStats{}}
	for _, st := range obs.CrisisStages {
		hs := mergeHist(snaps, st.HistName())
		rec.Stages[st.String()] = StageStats{
			Count:  hs.Count,
			MeanUs: hs.Mean(),
			P99Us:  hs.Quantile(0.99),
		}
	}

	ckpt := mergeHist(snaps, "fabric.ckpt.us")
	rankTimeUs := wallSec * 1e6 * float64(wl.Ranks)
	overhead := 0.0
	if rankTimeUs > 0 {
		overhead = float64(ckpt.Sum) / rankTimeUs * 100
	}

	sent := sumCounter(snaps, "fabric.wire.bytes.sent")
	recv := sumCounter(snaps, "fabric.wire.bytes.recv")
	perOp := 0.0
	if ops > 0 {
		perOp = float64(sent) / float64(ops)
	}

	chaos.Fallbacks = sumCountersMatching(snaps, "fallback")

	r := Report{
		Transport: tr.String(),
		Ranks:     wl.Ranks,
		Phases:    wl.Phases,
		Seed:      seed,
		Throughput: ThroughputSection{
			Ops:         ops,
			WallSeconds: wallSec,
			OpsPerSec:   float64(ops) / wallSec,
		},
		Latency: LatencySection{
			Quiet:  windowLatency(quiet),
			Crisis: windowLatency(crisisFlush),
		},
		Recovery:   rec,
		Checkpoint: CheckpointSection{Count: ckpt.Count, TotalUs: ckpt.Sum, OverheadPct: overhead},
		Wire:       WireSection{BytesSent: sent, BytesRecv: recv, BytesPerOp: perOp},
		Chaos:      chaos,
	}
	return r
}
