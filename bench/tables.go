package main

import "time"

// Sizes of a full run. A run is warmBlocks warm-up blocks plus timedBlocks
// timed blocks at -seconds 20; -seconds scales the number of timed blocks,
// never the size of a block.
const (
	warmBlocks     = 2
	timedBlocks    = 20
	nominalSeconds = 20
	// tracedBlocks is the number of traced blocks of a traced run; as many
	// untraced ones alternate with them.
	tracedBlocks = 5
	// tracedKills is the number of short kill blocks a traced run of a
	// workload without kills appends, so the recovery and crisis metrics are
	// measured on every workload's state size and never reported as 0.
	tracedKills   = 3
	blockDeadline = 10 * time.Second
	// blockRetries is how many failed blocks of one run are run again on a
	// fresh fabric. The fabric's recovery fails about one kill in 500 on the
	// seed code; a block that completes on its second attempt is a block the
	// workload completed, and the first attempt is reported as a failed block
	// (fabric.blocks_failed, blocks_failed), not as failed ops. Ops fail when
	// this budget is spent.
	blockRetries = 3
	// scratchDir holds shm ring files and span files; run.sh builds into it.
	scratchDir = ".bench_build"
	// A driver run must end within 180 s: the workload children and the child
	// that follows them — set-up or probes — together stay under runBudget.
	runBudget        = 165 * time.Second
	workloadDeadline = 110 * time.Second
	setupDeadline    = 30 * time.Second
	probeDeadline    = 50 * time.Second
	// rerunNeeds is how much of the budget must be left for a workload whose
	// child died to be run once more in a fresh process.
	rerunNeeds = 45 * time.Second
	// -quick: one warm-up block, two timed blocks a quarter the size.
	quickDivisor     = 4
	quickTimedBlocks = 2
)

// quietSteal is the steal share — CPU time the hypervisor gave to another
// guest, from /proc/stat — up to which a block or a set-up counts as
// measured on a quiet machine. Rates fall by 5 % at 5 % steal and by half at
// 25 %, in stretches of 5–20 s that a run of this length cannot average out.
const quietSteal = 0.02

// e2eMetric is one end-to-end metric: its unit, direction and two bounds.
// bound is the share of the parent's median the metric may worsen by before
// the driver rejects a change; BENCHMARK.json repeats it (a unit test keeps
// the two in step) and the driver refuses a benchmark whose own run-to-run
// spread exceeds it, so it is what the reference box's noise allows. target
// is the bound the issue set; -stability judges against it.
type e2eMetric struct {
	name, unit    string
	higher        bool
	bound, target float64
	// killOnly metrics exist only on workloads that kill ranks. The driver
	// wants every gated metric on every workload, so BENCHMARK.json lists
	// them per-layer; -stability gates them.
	killOnly bool
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25, 0.10, false},
	{"phases_per_s", "1/s", true, 0.25, 0.07, false},
	{"phase_ms_p50", "ms", false, 0.25, 0.07, false},
	{"peak_rss_mb", "MiB", false, 0.10, 0.10, false},
	{"recovery_ms_p50", "ms", false, 0.10, 0.10, true},
}

// layerMetric is one per-layer metric of the traced run. Per-layer metrics
// have no bound: they explain an end-to-end move, they do not gate it.
type layerMetric struct {
	name, unit string
	higher     bool
}

var perLayer = []layerMetric{
	// measured by the traced workload child, around its fabric calls
	{"fabric.issue_us_p50", "us", false},
	{"fabric.issue_us_mean", "us", false},
	{"fabric.flush_us_p50", "us", false},
	{"fabric.flush_us_mean", "us", false},
	{"fabric.batches_per_phase", "count", false},
	{"fabric.sync_us_p50", "us", false},
	{"fabric.ckpt_us_mean", "us", false},
	{"fabric.gsync_wait_us_mean", "us", false},
	{"fabric.sync_other_us_mean", "us", false},
	{"fabric.fold_us_mean", "us", false},
	{"fabric.wire_bytes_per_phase", "B", false},
	{"fabric.phase_ms_p99", "ms", false},
	{"recovery_ms_p50", "ms", false},
	{"fabric.recover.detect_ms_p50", "ms", false},
	{"fabric.recover.join_ms_p50", "ms", false},
	{"fabric.recover.catchup_ms_p50", "ms", false},
	{"fabric.recover.resume_ms_p50", "ms", false},
	{"fabric.crisis.quiesce_us_mean", "us", false},
	{"fabric.crisis.gather_us_mean", "us", false},
	{"fabric.crisis.rebuild_us_mean", "us", false},
	{"fabric.crisis.install_us_mean", "us", false},
	{"fabric.crisis.total_us_mean", "us", false},
	{"fabric.replay.records_per_kill", "count", false},
	{"fabric.blocks_failed", "count", false},
	{"trace.overhead_pct", "%", false},
	// measured by the probe child, one layer at a time
	{"fabric.bootstrap_ms_p50", "ms", false},
	{"erasure.update_parity_mb_s", "MB/s", true},
	{"erasure.reconstruct_mb_s", "MB/s", true},
	{"ftrma.log_append_ns_8w", "ns", false},
	{"ftrma.log_append_ns_4096w", "ns", false},
	{"ftrma.log_trim_ns", "ns", false},
	{"ftrma.fold_delta_mb_s", "MB/s", true},
	{"wire.call_us_8w", "us", false},
	{"wire.call_us_4096w", "us", false},
	{"wire.encode_ns_8w", "ns", false},
	{"tcp.flush_us_8w", "us", false},
	{"tcp.flush_us_4096w", "us", false},
	{"shm.flush_us_8w", "us", false},
	{"shm.flush_us_4096w", "us", false},
	{"loopback.flush_us_8w", "us", false},
	{"rma.noft_phase_us", "us", false},
	{"rma.epoch_close_us_loopback", "us", false},
	{"ft.overhead_pct", "%", false},
	{"obs.observe_ns", "ns", false},
}
