package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/rma"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(xs, 0.25); got != 3 {
		t.Errorf("q25 = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); !near(got, 8.92) {
		t.Errorf("p99 = %v, want 8.92", got)
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 5, 3, 7}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if median(nil) != 0 {
		t.Errorf("median of nothing must be 0")
	}
}

// TestPythonQuartiles pins quartilesExclusive to the values Python's
// statistics.quantiles(xs, n=4) returns.
func TestPythonQuartiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartilesExclusive(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartilesExclusive([]float64{2, 4, 4, 5, 9})
	if !near(q1, 3) || !near(q2, 4) || !near(q3, 7) {
		t.Errorf("quartiles of [2 4 4 5 9] = %v %v %v, want 3 4 7", q1, q2, q3)
	}
	if got := iqrShare(ten); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := rangeShare([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("rangeShare = %v, want 0.2", got)
	}
}

func TestQuietOnes(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0.01, 0.3, 0.02, 0.021, 0, 0.1, 0}, []int{0, 5, 7, 1, 3}}, // all at or below 2 %
		{[]float64{0.2, 0.05, 0.3, 0.04, 0.1, 0.5, 0.6, 0.7}, []int{3, 1}},      // none quiet: the least-stolen quarter
		{[]float64{0.5, 0.001}, []int{1}},                                       // two set-ups, one quiet
		{[]float64{0, 0}, []int{0, 1}},                                          // no /proc/stat: everything is quiet
	} {
		if got := quietOnes(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quietOnes(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
	if got := stealShare(cpuTimes{}, cpuTimes{}); got != 0 {
		t.Errorf("steal share without readings = %v, want 0", got)
	}
	if got := stealShare(cpuTimes{total: 1000, steal: 10}, cpuTimes{total: 1200, steal: 60}); !near(got, 0.25) {
		t.Errorf("steal share = %v, want 0.25", got)
	}
}

func TestLastPhase(t *testing.T) {
	for last := 0; last < 60; last++ {
		for j := 0; j < ringSlots; j++ {
			want := 0
			for p := 1; p <= last; p++ {
				if p%ringSlots == j {
					want = p
				}
			}
			if got := lastPhase(last, j, ringSlots); got != want {
				t.Fatalf("lastPhase(%d, %d) = %d, want %d", last, j, got, want)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	var l spanLog
	addPhaseSpans(&l, 2, 7, stamp{t0: 0, t1: 100, t2: 300, t3: 1000, ckptUs: 0, waitUs: 0})
	ph := l.add("phase", 0, 0, 8, 1000, 1400)
	l.add("issue", ph, 0, 8, 1000, 1100)
	got := map[string]spanSummary{}
	for _, s := range summarize(l.spans) {
		got[s.Name] = s
	}
	if s := got["phase"]; s.Count != 2 || !near(s.TotalMs, 1400e-6) || !near(s.SelfMs, 300e-6) {
		t.Errorf("phase summary = %+v, want 2 spans, 1400 ns total, 300 ns self", s)
	}
	if s := got["sync"]; !near(s.TotalMs, 700e-6) || !near(s.SelfMs, 700e-6) {
		t.Errorf("sync summary = %+v, want 700 ns total and self", s)
	}
	if sp := l.spans[1]; sp.Parent != l.spans[0].ID || sp.Rank != 2 || sp.Phase != 7 {
		t.Errorf("issue span = %+v, want parent %d and id (2, 7)", sp, l.spans[0].ID)
	}
}

// TestOracleAgainstRMAWorld cross-checks the closed-form oracle of every
// pattern against a 4-rank in-process rma.World that really runs it.
func TestOracleAgainstRMAWorld(t *testing.T) {
	const seed, phases = 42, 37 // not a multiple of either ring depth
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			w := rma.NewWorld(rma.Config{N: nRanks, WindowWords: wl.windowWords})
			defer w.Close()
			w.Run(func(r int) {
				p := w.Proc(r)
				fill := make([]uint64, wl.windowWords)
				for i := range fill {
					fill[i] = fillWord(seed, r, i)
				}
				p.WriteAt(0, fill)
				p.Gsync()
				st := newRankState(wl, seed, r)
				for ph := 1; ph <= phases; ph++ {
					fillPayload(st.buf, seed, r, ph)
					wl.issue(st, p, ph)
					p.FlushAll()
					p.Gsync()
					if !wl.check(st, ph) {
						t.Errorf("rank %d phase %d: gets returned unexpected data", r, ph)
					}
				}
			})
			for r := 0; r < nRanks; r++ {
				got := w.Proc(r).ReadAt(0, wl.windowWords)
				if d := diffWindow(got, oracleWindow(wl, seed, r, phases)); d != "" {
					t.Errorf("rank %d: %s", r, d)
				}
			}
		})
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "halo-tcp", "--trace", "0", "--seed", "3", "-trace"})
	want := []string{"--workload", "halo-tcp", "--trace=0", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables the
// program reports from.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, want %d", file.RunSeconds, nominalSeconds)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var wantW, wantE, wantL []entry
	for _, wl := range workloads {
		wantW = append(wantW, entry{Name: wl.name, Why: wl.why})
	}
	for _, m := range endToEnd {
		if m.killOnly {
			continue // listed per-layer: not every workload has it
		}
		bound := m.bound
		wantE = append(wantE, entry{Name: m.name, Unit: m.unit, Better: better(m.higher), Bound: &bound})
	}
	for _, m := range perLayer {
		wantL = append(wantL, entry{Name: m.name, Unit: m.unit, Better: better(m.higher)})
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("workloads = %+v\nwant %+v", file.Workloads, wantW)
	}
	if !reflect.DeepEqual(file.EndToEnd, wantE) {
		t.Errorf("end_to_end differs from the endToEnd table")
	}
	if !reflect.DeepEqual(file.PerLayer, wantL) {
		t.Errorf("per_layer differs from the perLayer table")
	}
}

// testConfig is a shrunken run on the real fabric: the halo pattern on a
// small window, kills included, and with the real retry budget: on so small
// a window a few kills in a hundred fail on the seed code.
func testConfig(t *testing.T, kills bool) runConfig {
	wl := *findWorkload("sparse-kill-tcp")
	wl.windowWords = 4096
	wl.killEveryBlock = kills
	return runConfig{
		wl: &wl, seed: 7, phasesPerBlock: 60,
		blockDeadline: 5 * time.Second, blockRetries: blockRetries, wedgeBlock: -1,
		scratch: t.TempDir(), spawned: time.Now(),
	}
}

// TestTracedRunSchema drives small traced runs end to end — one that kills in
// every block, one that kills only in its kill probes — and checks each result
// carries every fabric.* per-layer metric, the end-to-end schema of an
// untraced run being covered by TestWedgedBlockIsRetried.
func TestTracedRunSchema(t *testing.T) {
	for _, kills := range []bool{true, false} {
		cfg := testConfig(t, kills)
		cfg.timedBlocks, cfg.traced = 2, true
		wantOps := int64(2 * 60 * nRanks * 6)
		if !kills {
			cfg.killProbes = 2
			wantOps += int64(2 * 15 * nRanks * 6)
		}
		res := runWorkload(cfg, "")
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("kills=%v: run not clean: correct=%v failed=%d error=%q", kills, res.Correct, res.Failed, res.Error)
		}
		if res.Attempted != wantOps {
			t.Errorf("kills=%v: attempted = %d, want %d", kills, res.Attempted, wantOps)
		}
		if got := res.Detail["recovery_samples"].Value; got != 2 {
			t.Errorf("kills=%v: %v recoveries measured, want 2", kills, got)
		}
		probes := false
		for _, m := range perLayer {
			if m.name == "fabric.bootstrap_ms_p50" {
				probes = true // the rest of the table comes from the probe child
			}
			if got, ok := res.Layer[m.name]; probes == ok {
				t.Errorf("kills=%v: per-layer metric %s: present=%v, want %v", kills, m.name, ok, !probes)
			} else if ok && got.Unit != m.unit {
				t.Errorf("kills=%v: per-layer metric %s has unit %q, want %q", kills, m.name, got.Unit, m.unit)
			}
		}
		if got := res.Layer["fabric.batches_per_phase"].Value; got != 8 {
			t.Errorf("kills=%v: batches per phase = %v, want exactly 8 (two neighbours × four ranks)", kills, got)
		}
		var names []string
		for _, s := range res.SpanSelf {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		want := []string{"ckpt", "flush", "gsync_wait", "issue", "phase", "recover.catchup", "recover.detect", "recover.join", "recover.resume", "recovery", "sync"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("kills=%v: span names = %v, want %v", kills, names, want)
		}
	}
}

// TestWedgedBlockIsCounted wedges the one kill block (the victim is never
// replaced) of a run with no retry budget: the block must hit its deadline
// and count as failed ops, and the run must end on a fresh fabric that
// verifies.
func TestWedgedBlockIsCounted(t *testing.T) {
	cfg := testConfig(t, true)
	cfg.timedBlocks, cfg.wedgeBlock, cfg.blockRetries = 1, 0, 0
	cfg.blockDeadline = 2 * time.Second
	start := time.Now()
	res := runWorkload(cfg, "")
	if took := time.Since(start); took > 6*time.Second {
		t.Errorf("run took %v; the wedged block should cost its 2 s deadline, not more", took)
	}
	perBlock := int64(60 * nRanks * 6)
	if res.Attempted != perBlock || res.Failed != perBlock {
		t.Errorf("attempted/failed = %d/%d, want %d/%d", res.Attempted, res.Failed, perBlock, perBlock)
	}
	if !res.Correct {
		t.Errorf("the fresh fabric must still verify: %s", res.Error)
	}
	if got := res.Detail["blocks_failed"].Value; got != 1 {
		t.Errorf("blocks_failed = %v, want 1", got)
	}
}

// TestWedgedBlockIsRetried gives such a run its retry budget: the wedged
// block is run again on the fresh fabric, so no op fails, both kills are
// measured, the failed attempt is still reported, and the result carries
// every end-to-end metric.
func TestWedgedBlockIsRetried(t *testing.T) {
	cfg := testConfig(t, true)
	cfg.timedBlocks, cfg.wedgeBlock = 2, 0
	cfg.blockDeadline = 2 * time.Second
	res := runWorkload(cfg, "")
	if want := int64(2 * 60 * nRanks * 6); res.Attempted != want || res.Failed != 0 {
		t.Errorf("attempted/failed = %d/%d, want %d/0", res.Attempted, res.Failed, want)
	}
	if !res.Correct {
		t.Errorf("the run must verify: %s", res.Error)
	}
	if got := res.Detail["blocks_failed"].Value; got < 1 {
		t.Errorf("blocks_failed = %v, want the wedged attempt counted", got)
	}
	if got := res.Detail["recovery_samples"].Value; got != 2 {
		t.Errorf("%v recoveries measured, want 2", got)
	}
	for _, m := range endToEnd {
		if got, ok := res.EndToEnd[m.name]; !ok || got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v (present=%v), want a positive value in %s", m.name, got, ok, m.unit)
		}
	}
}

// TestResumeFromProgressFile plays a child's death: a first run records one
// timed block and is cut off in the middle of writing the next; the run that
// replaces it takes the recorded block in, leaves the cut-off line out, and
// runs only the blocks that remain.
func TestResumeFromProgressFile(t *testing.T) {
	cfg := testConfig(t, true)
	cfg.progress = filepath.Join(t.TempDir(), "progress.jsonl")
	cfg.timedBlocks = 1
	if res := runWorkload(cfg, ""); !res.Correct || res.Failed != 0 {
		t.Fatalf("first run not clean: correct=%v failed=%d error=%q", res.Correct, res.Failed, res.Error)
	}
	f, err := os.OpenFile(cfg.progress, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"block":1,"ok":true,"rate":12`)
	f.Close()

	cfg.scratch, cfg.timedBlocks = t.TempDir(), 3
	res := runWorkload(cfg, "")
	if want := int64(3 * 60 * nRanks * 6); res.Attempted != want || res.Failed != 0 || !res.Correct {
		t.Errorf("attempted/failed/correct = %d/%d/%v, want %d/0/true (%s)", res.Attempted, res.Failed, res.Correct, want, res.Error)
	}
	for name, want := range map[string]float64{"blocks_ok": 3, "recovery_samples": 3, "phase_samples": 3 * 60 * nRanks} {
		if got := res.Detail[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	var again tally
	if next := again.resume(&cfg); next != 3 || len(again.blocks) != 3 {
		t.Errorf("the progress file resumes at block %d with %d blocks on record, want 3 and 3", next, len(again.blocks))
	}
}
