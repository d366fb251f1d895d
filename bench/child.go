package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupSample is one measured set-up and the steal share while it ran.
type setupSample struct {
	Seconds float64 `json:"seconds"`
	Steal   float64 `json:"steal"`
}

// workloadResult is what one child run of one workload reports.
type workloadResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Stamp    stamps `json:"stamp"`
	// Correct: every get arrived with the expected words and every final
	// window equals the oracle.
	Correct   bool   `json:"correct"`
	Error     string `json:"error,omitempty"`
	Attempted int64  `json:"ops_attempted"`
	Failed    int64  `json:"ops_failed"`
	// Setup is this child's own set-up; the parent measures a second one in
	// a child of its own and puts the combined setup_s into EndToEnd.
	Setup setupSample `json:"setup"`
	// EndToEnd holds the end-to-end metrics (untraced runs).
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	// Detail carries what is printed beside the end-to-end metrics: block
	// quartiles, sample counts, quiet and failed blocks.
	Detail map[string]metric `json:"detail"`
	// Layer holds the fabric.* per-layer metrics and trace.overhead_pct
	// (traced runs).
	Layer map[string]metric `json:"per_layer,omitempty"`
	// BlockRates is phases/s of every timed block that completed, in order,
	// and BlockSteal the steal share while each ran.
	BlockRates []float64 `json:"block_rates"`
	BlockSteal []float64 `json:"block_steal"`
	// SpanSelf is the per-span summary of the traced blocks.
	SpanSelf []spanSummary `json:"span_self,omitempty"`
	SpanFile string        `json:"span_file,omitempty"`
}

// counters are the fabric instruments a traced block is bracketed with,
// summed over every registry of the world.
type counters struct{ foldSum, foldCount, wireBytes, batches uint64 }

func (w *world) counters() counters {
	var c counters
	c.foldSum, c.foldCount = w.hist("fabric.fold.us")
	c.wireBytes, c.batches = w.counter("fabric.wire.bytes.sent"), w.counter("fabric.batch.sent")
	return c
}

func (c *counters) addDelta(after, before counters) {
	c.foldSum += after.foldSum - before.foldSum
	c.foldCount += after.foldCount - before.foldCount
	c.wireBytes += after.wireBytes - before.wireBytes
	c.batches += after.batches - before.batches
}

// blockStat is what one completed timed block measured.
type blockStat struct {
	traced  bool
	rate    float64 // phases/s
	steal   float64 // steal share while the block ran
	peakRSS float64 // the block's own VmHWM, MiB
	phaseNs []int64 // the phase times of every rank
}

// tally accumulates what the completed blocks of a run measured.
type tally struct {
	okOps        int64
	blocksFailed int
	mismatches   int
	// rssNotReset counts the blocks whose VmHWM could not be reset at their
	// start and so is the peak since process start.
	rssNotReset int
	blocks      []blockStat
	recs        []recovery
	// The rest is filled by traced blocks only: the phases' stamps (kill
	// phases left out), counter deltas, spans.
	stamps       []stamp
	tracedPhases int
	counters     counters
	log          spanLog
}

// add folds one completed block in. from is the block's first phase. A
// kill probe — a short kill block a traced run appends — contributes its
// recovery only.
func (t *tally) add(wl *workload, spec blockSpec, r *blockResult, from int, probe bool) {
	t.okOps += int64(spec.phases) * nRanks * int64(wl.callsPerPhase)
	for rk := range r.mismatch {
		t.mismatches += r.mismatch[rk]
	}
	if spec.kill {
		t.recs = append(t.recs, r.rec)
		if spec.traced {
			addRecoverySpans(&t.log, r.rec)
		}
	}
	if probe {
		return
	}
	b := blockStat{traced: spec.traced, rate: float64(spec.phases) / (float64(r.wallNs) / 1e9), steal: r.steal, peakRSS: r.peakRSS}
	if !r.rssReset {
		t.rssNotReset++
	}
	for rk := range r.phaseNs {
		b.phaseNs = append(b.phaseNs, r.phaseNs[rk]...)
	}
	t.blocks = append(t.blocks, b)
	if !spec.traced {
		return
	}
	t.tracedPhases += spec.phases
	for rk := range r.stamps {
		for i, s := range r.stamps[rk] {
			addPhaseSpans(&t.log, rk, from+i, s)
			if !(spec.kill && i == spec.killAt) {
				t.stamps = append(t.stamps, s)
			}
		}
	}
}

// quiet returns the blocks with the given traced flag that ran on a quiet
// machine (quietOnes), in the order they ran.
func (t *tally) quiet(traced bool) []blockStat {
	var of []blockStat
	var steal []float64
	for _, b := range t.blocks {
		if b.traced == traced {
			of = append(of, b)
			steal = append(steal, b.steal)
		}
	}
	idx := quietOnes(steal)
	sort.Ints(idx)
	out := make([]blockStat, len(idx))
	for i, j := range idx {
		out[i] = of[j]
	}
	return out
}

// phaseMs pools the phase times of blocks, in ms.
func phaseMs(blocks []blockStat) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, nsToFloats(b.phaseNs, 1e6)...)
	}
	return out
}

// progressLine is one attempt at a timed block of an untraced run. The child
// appends each to its progress file as it goes, so a child that dies — the
// fabric can panic on a kill, and a panic takes the process with it — leaves
// behind what it measured, and the child that replaces it carries on after
// the last block on record.
type progressLine struct {
	Block      int     `json:"block"`
	OK         bool    `json:"ok"`
	Rate       float64 `json:"rate,omitempty"`
	Steal      float64 `json:"steal,omitempty"`
	PeakRSS    float64 `json:"peak_rss,omitempty"`
	RSSReset   bool    `json:"rss_reset,omitempty"`
	PhaseNs    []int64 `json:"phase_ns,omitempty"`
	Mismatches int     `json:"mismatches,omitempty"`
	RecoveryNs int64   `json:"recovery_ns,omitempty"` // 0 without a kill
}

// record appends one attempt at timed block b to the progress file: the
// block the tally took in last, or a failed attempt.
func (t *tally) record(path string, b int, ok bool, r *blockResult) {
	if path == "" {
		return
	}
	l := progressLine{Block: b, OK: ok}
	if ok {
		st := t.blocks[len(t.blocks)-1]
		l.Rate, l.Steal, l.PeakRSS, l.RSSReset, l.PhaseNs = st.rate, st.steal, st.peakRSS, r.rssReset, st.phaseNs
		for _, n := range r.mismatch {
			l.Mismatches += n
		}
		l.RecoveryNs = r.rec.resume - r.rec.close
	}
	line, err := json.Marshal(l)
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			// The leading newline ends a line the last child's death cut short.
			_, err = f.Write([]byte("\n" + string(line) + "\n"))
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: progress file: %v\n", err)
	}
}

// resume takes in the attempts an earlier child of this run recorded, the
// way the timed loop would have, and returns the timed block to carry on
// with. A line cut short by a child's death does not decode and is left out.
func (t *tally) resume(cfg *runConfig) (next int) {
	f, err := os.Open(cfg.progress)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var l progressLine
		if json.Unmarshal(sc.Bytes(), &l) != nil {
			continue
		}
		if !l.OK {
			t.blocksFailed++
			next = l.Block
			if t.blocksFailed > cfg.blockRetries {
				next++ // given up
			}
			continue
		}
		t.okOps += int64(cfg.phasesPerBlock) * nRanks * int64(cfg.wl.callsPerPhase)
		t.mismatches += l.Mismatches
		t.blocks = append(t.blocks, blockStat{rate: l.Rate, steal: l.Steal, peakRSS: l.PeakRSS, phaseNs: l.PhaseNs})
		if !l.RSSReset {
			t.rssNotReset++
		}
		if l.RecoveryNs > 0 {
			t.recs = append(t.recs, recovery{resume: l.RecoveryNs})
		}
		next = l.Block + 1
	}
	return next
}

// runner drives one child's blocks on its current world.
type runner struct {
	cfg *runConfig
	w   *world
}

// block runs one block. A failed block has killed its world, which is
// replaced by a fresh one outside every timed region: ok is then false, and
// err is set only when that re-bootstrap failed too and the run is over.
func (rn *runner) block(what string, b int, spec blockSpec) (blockSpec, *blockResult, bool, error) {
	if spec.kill {
		spec = rn.w.killSpec(spec)
	}
	r := rn.w.runBlock(spec)
	if r.err == nil {
		return spec, r, true, nil
	}
	fmt.Fprintf(os.Stderr, "bench: %s %s block %d failed: %v\n", rn.cfg.wl.name, what, b, r.err)
	rn.w.closeAll()
	w, err := bootstrap(rn.cfg)
	if err != nil {
		return spec, r, false, fmt.Errorf("re-bootstrap: %w", err)
	}
	rn.w = w
	return spec, r, false, nil
}

// setUp is what setup_s times: child-process start → first timed phase, that
// is listeners, seed, four joins, the window fill and the warm-up blocks.
func setUp(cfg *runConfig) (*runner, setupSample, error) {
	w, err := bootstrap(cfg)
	if err != nil {
		return nil, setupSample{}, fmt.Errorf("bootstrap: %w", err)
	}
	rn := &runner{cfg: cfg, w: w}
	for b := 0; b < cfg.warmBlocks; b++ {
		spec := blockSpec{phases: cfg.phasesPerBlock, kill: cfg.wl.killEveryBlock}
		if _, _, _, err := rn.block("warm-up", b, spec); err != nil {
			return nil, setupSample{}, err
		}
	}
	return rn, setupSample{time.Since(cfg.spawned).Seconds(), stealShare(cpuAtStart, readCPUTimes())}, nil
}

// runSetup is the body of a set-up child process: the set-up and nothing
// else, so the parent has a second, independent sample of setup_s.
func runSetup(cfg runConfig) (setupSample, error) {
	defer os.RemoveAll(cfg.scratch)
	rn, s, err := setUp(&cfg)
	if err != nil {
		return s, err
	}
	rn.w.closeAll()
	return s, nil
}

// runWorkload is the body of a workload child process: set-up, timed blocks,
// the oracle check, and the numbers.
func runWorkload(cfg runConfig, spanPath string) *workloadResult {
	wl := cfg.wl
	res := &workloadResult{Workload: wl.name, Traced: cfg.traced, Stamp: collectStamps(cfg.seed),
		Detail: map[string]metric{}}
	defer os.RemoveAll(cfg.scratch)
	// Every planned call counts as attempted; the ones outside a block that
	// completed — a block's that failed with the retry budget spent, or all
	// that follow an abandoned run — count as failed.
	var t tally
	defer func() {
		res.Attempted = plannedOps(cfg)
		res.Failed = res.Attempted - t.okOps
	}()

	rn, setup, err := setUp(&cfg)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Setup = setup
	// timed runs one block after the warm-up and folds it into the tally. A
	// block that fails is run again on the fresh fabric while the run's retry
	// budget lasts; after that its ops are failed and the run moves on.
	timed := func(what string, b int, plan blockSpec, probe bool) error {
		for attempt := 0; ; attempt++ {
			spec := plan
			spec.wedge = plan.wedge && attempt == 0
			var before counters
			if spec.traced && !probe {
				before = rn.w.counters()
			}
			spec, r, ok, err := rn.block(what, b, spec)
			if ok {
				t.add(wl, spec, r, rn.w.next-spec.phases, probe)
				if spec.traced && !probe {
					t.counters.addDelta(rn.w.counters(), before)
				}
				if !probe {
					t.record(cfg.progress, b, true, r)
				}
				return nil
			}
			t.blocksFailed++
			if !probe {
				t.record(cfg.progress, b, false, r)
			}
			if err != nil || t.blocksFailed > cfg.blockRetries {
				return err
			}
		}
	}
	for b := t.resume(&cfg); b < cfg.timedBlocks && err == nil; b++ {
		err = timed("timed", b, blockSpec{phases: cfg.phasesPerBlock, traced: cfg.traced && b%2 == 1,
			kill: wl.killEveryBlock, wedge: wl.killEveryBlock && b == cfg.wedgeBlock}, false)
	}
	for k := 0; k < cfg.killProbes && err == nil; k++ {
		err = timed("kill probe", k, blockSpec{phases: cfg.killProbePhases(), traced: true, kill: true}, true)
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	w := rn.w
	defer w.closeAll()

	verr := w.verify()
	res.Correct = verr == nil && t.mismatches == 0
	if verr != nil {
		res.Error = "oracle mismatch: " + verr.Error()
	} else if t.mismatches > 0 {
		res.Error = fmt.Sprintf("%d phases returned get data that differs from the oracle", t.mismatches)
	}

	// Rates and phase times come from the quiet blocks; every block's rate
	// and steal share is in the result beside them.
	var steal float64
	var blockRSS []float64
	for _, b := range t.blocks {
		blockRSS = append(blockRSS, b.peakRSS)
		res.BlockRates = append(res.BlockRates, b.rate)
		res.BlockSteal = append(res.BlockSteal, b.steal)
		steal += b.steal
	}
	plain, traced := t.quiet(false), t.quiet(true)
	var rates []float64
	for _, b := range plain {
		rates = append(rates, b.rate)
	}
	plainMs, tracedMs := phaseMs(plain), phaseMs(traced)
	allMs := append(append([]float64(nil), plainMs...), tracedMs...)
	var recMs []float64
	for _, rc := range t.recs {
		recMs = append(recMs, float64(rc.resume-rc.close)/1e6)
	}
	res.Detail["phases_per_s_q1"] = metric{quantile(rates, 0.25), "1/s"}
	res.Detail["phases_per_s_q3"] = metric{quantile(rates, 0.75), "1/s"}
	res.Detail["blocks_ok"] = metric{float64(len(t.blocks)), "count"}
	res.Detail["blocks_quiet"] = metric{float64(len(plain) + len(traced)), "count"}
	res.Detail["blocks_failed"] = metric{float64(t.blocksFailed), "count"}
	res.Detail["steal_pct"] = metric{100 * ratio(steal, float64(len(t.blocks))), "%"}
	res.Detail["peak_rss_mb_max"] = metric{quantile(blockRSS, 1), "MiB"}
	res.Detail["peak_rss_not_reset"] = metric{float64(t.rssNotReset), "count"}
	if t.rssNotReset > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: /proc/self/clear_refs refused %d resets; peak_rss_mb is the peak since process start at the median block\n", wl.name, t.rssNotReset)
	}
	res.Detail["phase_samples"] = metric{float64(len(allMs)), "count"}
	res.Detail["phase_ms_p99"] = metric{quantile(allMs, 0.99), "ms"}
	if len(recMs) > 0 {
		res.Detail["recovery_samples"] = metric{float64(len(recMs)), "count"}
		res.Detail["recovery_ms_q1"] = metric{quantile(recMs, 0.25), "ms"}
		res.Detail["recovery_ms_q3"] = metric{quantile(recMs, 0.75), "ms"}
	}
	if !cfg.traced {
		res.EndToEnd = map[string]metric{
			"setup_s":      {setup.Seconds, "s"},
			"phases_per_s": {median(rates), "1/s"},
			"phase_ms_p50": {median(plainMs), "ms"},
			"peak_rss_mb":  {median(blockRSS), "MiB"},
		}
		if len(recMs) > 0 {
			res.EndToEnd["recovery_ms_p50"] = metric{median(recMs), "ms"}
		}
		return res
	}

	res.Layer = layerMetrics(w, &t)
	res.Layer["fabric.phase_ms_p99"] = metric{quantile(allMs, 0.99), "ms"}
	if len(recMs) > 0 {
		res.Layer["recovery_ms_p50"] = metric{median(recMs), "ms"}
	}
	// Tracing overhead is the traced blocks' median phase time against the
	// untraced blocks' that alternate with them: one rank's phases per
	// second, which a kill's stall (one phase in hundreds) does not move.
	tr, pl := median(tracedMs), median(plainMs)
	res.Layer["trace.overhead_pct"] = metric{100 * (ratio(tr, pl) - 1), "%"}
	res.Detail["traced_phase_ms_p50"] = metric{tr, "ms"}
	res.Detail["untraced_phase_ms_p50"] = metric{pl, "ms"}
	res.SpanSelf = summarize(t.log.spans)
	if spanPath != "" {
		err := os.MkdirAll(filepath.Dir(spanPath), 0o755)
		if err == nil {
			err = t.log.writeJSONL(spanPath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
		} else {
			res.SpanFile = spanPath
		}
	}
	return res
}

// addPhaseSpans materializes one traced phase: phase ⊃ issue (⊃ the
// blocking gets), flush, sync (⊃ ckpt, gsync_wait). The ckpt and gsync_wait
// durations are the node's own histogram sums for that Sync; their
// placement inside sync is nominal (checkpoint first, barrier wait last).
func addPhaseSpans(l *spanLog, rank, phase int, s stamp) {
	ph := l.add("phase", 0, rank, phase, s.t0, s.t3)
	is := l.add("issue", ph, rank, phase, s.t0, s.t1)
	for k := 0; k < s.nsub; k++ {
		l.add("get_blocking", is, rank, phase, s.sub[k][0], s.sub[k][1])
	}
	l.add("flush", ph, rank, phase, s.t1, s.t2)
	sy := l.add("sync", ph, rank, phase, s.t2, s.t3)
	l.add("ckpt", sy, rank, phase, s.t2, s.t2+s.ckptUs*1000)
	l.add("gsync_wait", sy, rank, phase, s.t3-s.waitUs*1000, s.t3)
}

// addRecoverySpans materializes a kill's timeline: Close → a survivor sees
// the victim dead → Join returns → the replacement passes its first Sync →
// all four ranks have.
func addRecoverySpans(l *spanLog, rc recovery) {
	root := l.add("recovery", 0, rc.victim, rc.phase, rc.close, rc.resume)
	l.add("recover.detect", root, rc.victim, rc.phase, rc.close, rc.detect)
	l.add("recover.join", root, rc.victim, rc.phase, rc.detect, rc.join)
	l.add("recover.catchup", root, rc.victim, rc.phase, rc.join, rc.catchup)
	l.add("recover.resume", root, rc.victim, rc.phase, rc.catchup, rc.resume)
}

// layerMetrics derives the fabric.* per-layer numbers of a traced run. The
// *_mean splits leave out the phase a kill lands in, so a 0.5 s stall does
// not drown the quiet-phase cost; the p50s need no such care.
func layerMetrics(w *world, t *tally) map[string]metric {
	ss, phases := t.stamps, float64(t.tracedPhases)
	issue := make([]float64, len(ss))
	flush := make([]float64, len(ss))
	sync := make([]float64, len(ss))
	var ckptUs, waitUs float64
	for i, s := range ss {
		issue[i] = float64(s.t1-s.t0) / 1e3
		flush[i] = float64(s.t2-s.t1) / 1e3
		sync[i] = float64(s.t3-s.t2) / 1e3
		ckptUs += float64(s.ckptUs)
		waitUs += float64(s.waitUs)
	}
	n := float64(len(ss))
	if n == 0 {
		n = 1
	}
	m := map[string]metric{
		"fabric.issue_us_p50":         {median(issue), "us"},
		"fabric.flush_us_p50":         {median(flush), "us"},
		"fabric.sync_us_p50":          {median(sync), "us"},
		"fabric.ckpt_us_mean":         {ckptUs / n, "us"},
		"fabric.gsync_wait_us_mean":   {waitUs / n, "us"},
		"fabric.sync_other_us_mean":   {mean(sync) - ckptUs/n - waitUs/n, "us"},
		"fabric.issue_us_mean":        {mean(issue), "us"},
		"fabric.flush_us_mean":        {mean(flush), "us"},
		"fabric.blocks_failed":        {float64(t.blocksFailed), "count"},
		"fabric.batches_per_phase":    {ratio(float64(t.counters.batches), phases), "count"},
		"fabric.wire_bytes_per_phase": {ratio(float64(t.counters.wireBytes), phases), "B"},
		"fabric.fold_us_mean":         {ratio(float64(t.counters.foldSum), float64(t.counters.foldCount)), "us"},
	}
	// What a kill costs is reported only by runs that killed: a 0 would read
	// as a perfect score.
	if len(t.recs) == 0 {
		return m
	}
	var detect, join, catchup, resume []float64
	for _, rc := range t.recs {
		detect = append(detect, float64(rc.detect-rc.close)/1e6)
		join = append(join, float64(rc.join-rc.detect)/1e6)
		catchup = append(catchup, float64(rc.catchup-rc.join)/1e6)
		resume = append(resume, float64(rc.resume-rc.catchup)/1e6)
	}
	m["fabric.recover.detect_ms_p50"] = metric{median(detect), "ms"}
	m["fabric.recover.join_ms_p50"] = metric{median(join), "ms"}
	m["fabric.recover.catchup_ms_p50"] = metric{median(catchup), "ms"}
	m["fabric.recover.resume_ms_p50"] = metric{median(resume), "ms"}
	for _, stage := range []string{"quiesce", "gather", "rebuild", "install", "total"} {
		sum, count := w.hist("crisis." + stage + ".us")
		m["fabric.crisis."+stage+"_us_mean"] = metric{ratio(float64(sum), float64(count)), "us"}
	}
	replayed := w.counter("fabric.replay.puts") + w.counter("fabric.replay.gets")
	m["fabric.replay.records_per_kill"] = metric{ratio(float64(replayed), float64(w.kills)), "count"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS resets VmHWM to the current resident set (Linux: writing 5
// to clear_refs) and reports whether the kernel let it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM, the peak resident set since the last reset; 0
// where /proc/self/status has none.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// benchProcs is GOMAXPROCS = min(nproc, 4): one P per rank where the box
// has them, and the same value on every box that does.
func benchProcs() int {
	if n := runtime.NumCPU(); n < nRanks {
		return n
	}
	return nRanks
}
