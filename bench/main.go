// Command bench is the repo benchmark: four fixed-work fabric workloads,
// five end-to-end metrics, layer probes and a traced run. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the repo
// root is the contract the driver checks it against.
//
//	bash bench/run.sh                          every workload, end-to-end metrics
//	bash bench/run.sh -quick                   2 short blocks per workload, < 15 s
//	bash bench/run.sh -trace                   plus traced runs, layer probes, span files
//	bash bench/run.sh -stability 5             two interleaved sets of 5 full runs
//	bash bench/run.sh --workload halo-tcp --seed 7 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	quick      bool
	stability  int
	wedgeBlock int
	// internal
	child    string
	spawned  int64
	progress string
}

func main() { os.Exit(run(os.Args[1:])) }

// normalizeArgs lets -trace be both a bare switch (go run ./bench -trace)
// and the driver's two-token form (--trace 0, --trace 1).
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all): "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of payload values, read-target order, victim order and kill offsets")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "nominal run length; scales the number of timed blocks (20 at 20 s)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: spans, per-layer metrics, layer probes")
	fs.BoolVar(&o.quick, "quick", false, "2 short timed blocks per workload")
	fs.IntVar(&o.stability, "stability", 0, "run two interleaved sets of N full runs and compare them")
	fs.IntVar(&o.wedgeBlock, "wedge-block", -1, "test hook: never replace the victim of the first attempt at this timed block of a kill workload")
	fs.StringVar(&o.child, "child", "", "internal: run as a child process (workload|setup|probes)")
	fs.Int64Var(&o.spawned, "spawned", 0, "internal: parent's spawn time, unix ns")
	fs.StringVar(&o.progress, "progress", "", "internal: file a workload child records its timed blocks in and resumes from")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %v\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	switch {
	case o.child == "workload":
		return childWorkload(o)
	case o.child == "setup":
		return childSetup(o)
	case o.child == "probes":
		return childProbes(o)
	case o.stability > 0:
		return runStability(o)
	}
	return runParent(o)
}

// ---- Children ---------------------------------------------------------------

func (o options) runConfig() runConfig {
	wl := findWorkload(o.workload)
	cfg := runConfig{
		wl: wl, seed: o.seed,
		warmBlocks:     warmBlocks,
		timedBlocks:    (timedBlocks*o.seconds + nominalSeconds/2) / nominalSeconds,
		phasesPerBlock: wl.phasesPerBlock,
		traced:         o.trace,
		blockDeadline:  blockDeadline,
		blockRetries:   blockRetries,
		wedgeBlock:     o.wedgeBlock,
		scratch:        childScratch(os.Getpid()),
		progress:       o.progress,
		spawned:        time.Unix(0, o.spawned),
	}
	if cfg.timedBlocks < 1 {
		cfg.timedBlocks = 1
	}
	if o.trace {
		cfg.warmBlocks = 1
		cfg.timedBlocks = 2 * tracedBlocks
		if !wl.killEveryBlock {
			cfg.killProbes = tracedKills
		}
	}
	if o.quick {
		cfg.warmBlocks = 1
		cfg.timedBlocks = quickTimedBlocks
		if o.trace {
			cfg.timedBlocks = 2 * quickTimedBlocks
		}
		cfg.phasesPerBlock /= quickDivisor
	}
	if o.spawned == 0 {
		cfg.spawned = processStart
	}
	return cfg
}

// childScratch is the directory a child keeps its shm ring files in.
func childScratch(pid int) string {
	return filepath.Join(scratchDir, fmt.Sprintf("run-%d", pid))
}

func (o options) spanPath() string {
	return filepath.Join(scratchDir, "spans-"+o.workload+".jsonl")
}

func childWorkload(o options) int {
	runtime.GOMAXPROCS(benchProcs())
	spans := ""
	if o.trace {
		spans = o.spanPath()
	}
	res := runWorkload(o.runConfig(), spans)
	return emit(res)
}

func childSetup(o options) int {
	runtime.GOMAXPROCS(benchProcs())
	s, err := runSetup(o.runConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: set-up: %v\n", err)
		return 1
	}
	return emit(s)
}

func childProbes(o options) int {
	runtime.GOMAXPROCS(benchProcs())
	m, err := runProbes(childScratch(os.Getpid()), o.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
		return 1
	}
	return emit(m)
}

func emit(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// spawn re-executes the binary as a child with its own address space, so
// peak RSS and goroutines a closed node leaves behind never carry over from
// one workload to the next. The child gets a whole-run deadline; a child
// that overruns it is killed and reported, never waited on forever.
func spawn(o options, kind string, deadline time.Duration, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-child", kind, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace=" + strconv.FormatBool(o.trace), "-quick=" + strconv.FormatBool(o.quick),
		"-wedge-block", strconv.Itoa(o.wedgeBlock), "-progress", o.progress,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10)}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	// A killed child cannot remove its own scratch directory.
	defer os.RemoveAll(childScratch(cmd.Process.Pid))
	select {
	case err = <-done:
	case <-time.After(deadline):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s child exceeded its %v deadline and was killed", kind, deadline.Round(time.Second))
	}
	if err != nil {
		return fmt.Errorf("%s child: %w", kind, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], into); err != nil {
		return fmt.Errorf("%s child printed no result: %w", kind, err)
	}
	return nil
}

// runOne runs one workload in a child. A child that dies — the fabric can
// panic on a kill, and a panic takes the process with it — is the
// process-sized case of a failed block that is run again: while runBudget
// leaves room for it, a fresh child takes its place, with the lost children
// counted beside the result (children_lost). An untraced child records every
// timed block in a progress file as it goes, so its replacement sets up and
// carries on after the last block on record; a traced child's replacement
// starts over. When the budget is spent the run still yields a result:
// nothing correct, everything attempted failed.
// An untraced run is followed by a set-up child, which sets up once more
// and exits: setup_s is the median of the two set-ups that ran on a quiet
// machine, or the one with the least steal when neither did.
func runOne(o options, name string, traced bool) *workloadResult {
	o.workload, o.trace = name, traced
	// What follows the workload child keeps its share of the budget.
	reserve := probeDeadline
	if !traced {
		reserve = setupDeadline
		o.progress = filepath.Join(scratchDir, fmt.Sprintf("progress-%d.jsonl", os.Getpid()))
		os.Remove(o.progress)
		defer os.Remove(o.progress)
	}
	left := func(start time.Time) time.Duration { return runBudget - reserve - time.Since(start) }
	start := time.Now()
	res := &workloadResult{}
	err := spawn(o, "workload", workloadDeadline, res)
	lost := 0
	for err != nil && left(start) >= rerunNeeds {
		fmt.Fprintf(os.Stderr, "bench: %s: %v; a fresh child takes over\n", name, err)
		lost++
		res = &workloadResult{}
		err = spawn(o, "workload", min(workloadDeadline, left(start)), res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		planned := plannedOps(o.runConfig())
		return &workloadResult{Workload: name, Traced: traced, Stamp: collectStamps(o.seed),
			Error: err.Error(), Attempted: planned, Failed: planned, Detail: map[string]metric{}}
	}
	res.Detail["children_lost"] = metric{float64(lost), "count"}
	if traced || res.EndToEnd == nil {
		return res
	}
	setups := []setupSample{res.Setup}
	var again setupSample
	if err := spawn(o, "setup", setupDeadline, &again); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
	} else {
		setups = append(setups, again)
	}
	var secs, steal []float64
	for _, s := range setups {
		steal = append(steal, s.Steal)
	}
	for _, i := range quietOnes(steal) {
		secs = append(secs, setups[i].Seconds)
	}
	res.EndToEnd["setup_s"] = metric{median(secs), "s"}
	res.Detail["setup_samples"] = metric{float64(len(setups)), "count"}
	res.Detail["setup_quiet"] = metric{float64(len(secs)), "count"}
	return res
}

// ---- Parent -----------------------------------------------------------------

// fullResult is everything one invocation measured.
type fullResult struct {
	Workloads []*workloadResult
	Traced    []*workloadResult
	Probes    map[string]metric
}

func runParent(o options) int {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	names := workloadNames()
	single := o.workload != ""
	if single {
		names = []string{o.workload}
	}
	full := &fullResult{}
	printStamp(collectStamps(o.seed))
	// A single-workload run is what the driver invokes: untraced with
	// --trace 0, traced with --trace 1. With no workload named, -trace
	// adds the traced runs after the untraced ones, because end-to-end
	// numbers always come from untraced runs.
	for _, name := range names {
		if !single || !o.trace {
			r := runOne(o, name, false)
			full.Workloads = append(full.Workloads, r)
			printEndToEnd(r)
		}
		if o.trace {
			r := runOne(o, name, true)
			full.Traced = append(full.Traced, r)
			printTraced(r)
		}
	}
	if o.trace {
		full.Probes = map[string]metric{}
		if err := spawn(o, "probes", probeDeadline, &full.Probes); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printProbes(full.Probes)
	}
	if err := printContractLine(full, single && o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// printContractLine prints the last line of standard output: one JSON
// object with correct, attempted, failed and metrics. For a single
// workload the metrics are the end-to-end metrics BENCHMARK.json lists
// (untraced) or every per-layer metric (traced); for a run of all workloads
// they are keyed "<workload>/<metric>".
func printContractLine(full *fullResult, tracedSingle bool) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	runs := full.Workloads
	if tracedSingle {
		runs = full.Traced
	}
	single := len(runs) == 1
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		src := r.EndToEnd
		if tracedSingle {
			src = r.Layer
		}
		for k, v := range src {
			if !single {
				k = r.Workload + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	if tracedSingle {
		for k, v := range full.Probes {
			out.Metrics[k] = v
		}
	}
	if out.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	if single {
		var want []string
		if tracedSingle {
			for _, m := range perLayer {
				want = append(want, m.name)
			}
		} else {
			for _, m := range endToEnd {
				if m.killOnly {
					delete(out.Metrics, m.name) // BENCHMARK.json lists it per-layer
				} else {
					want = append(want, m.name)
				}
			}
		}
		for _, name := range want {
			if _, ok := out.Metrics[name]; !ok {
				fmt.Fprintf(os.Stderr, "bench: metric %s is missing from the result\n", name)
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
