package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamps identifies the machine, toolchain, code and seed a result came
// from. Every result file carries one.
type stamps struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func collectStamps(seed uint64) stamps {
	s := stamps{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs(),
		Go: runtime.Version(), Commit: "unknown", Seed: seed}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is whatever the build stamped: a checkout that is not a
	// git repository (the driver's) has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty && s.Commit != "unknown" {
			s.Commit += "+dirty"
		}
	}
	return s
}

func printStamp(s stamps) {
	fmt.Printf("# cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d\n",
		s.CPU, s.NProc, s.GOMAXPROCS, s.Go, s.Commit, s.Seed)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(indent string, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("%s%-34s %14.4f %s\n", indent, k, m[k].Value, m[k].Unit)
	}
}

func printVerdict(r *workloadResult) {
	verdict := "correct (windows equal the oracle)"
	if !r.Correct {
		verdict = "NOT CORRECT: " + r.Error
	}
	fmt.Printf("  %-34s %s\n", "oracle", verdict)
	fmt.Printf("  %-34s %d attempted, %d failed\n", "ops", r.Attempted, r.Failed)
}

func printEndToEnd(r *workloadResult) {
	fmt.Printf("\n== %s (end to end, untraced) ==\n", r.Workload)
	printVerdict(r)
	printMetrics("  ", r.EndToEnd)
	fmt.Println("  -- beside them --")
	printMetrics("  ", r.Detail)
}

func printTraced(r *workloadResult) {
	fmt.Printf("\n== %s (traced) ==\n", r.Workload)
	printVerdict(r)
	printMetrics("  ", r.Layer)
	printMetrics("  ", r.Detail)
	if len(r.SpanSelf) > 0 {
		var phaseTotal float64
		for _, s := range r.SpanSelf {
			if s.Name == "phase" {
				phaseTotal = s.TotalMs
			}
		}
		fmt.Println("  -- span self time (span minus its children) --")
		fmt.Printf("  %-18s %10s %14s %14s %8s\n", "span", "count", "total ms", "self ms", "% phase")
		for _, s := range r.SpanSelf {
			share := "-"
			if phaseTotal > 0 && !strings.HasPrefix(s.Name, "recover") {
				share = fmt.Sprintf("%.1f", 100*s.SelfMs/phaseTotal)
			}
			fmt.Printf("  %-18s %10d %14.2f %14.2f %8s\n", s.Name, s.Count, s.TotalMs, s.SelfMs, share)
		}
		if r.SpanFile != "" {
			fmt.Printf("  spans written to %s\n", r.SpanFile)
		}
	}
}

func printProbes(m map[string]metric) {
	fmt.Println("\n== layer probes ==")
	printMetrics("  ", m)
}

// plannedOps is the number of rma.API calls a run issues after its set-up:
// in its timed blocks and, where it has them, its kill probes.
func plannedOps(cfg runConfig) int64 {
	phases := cfg.timedBlocks*cfg.phasesPerBlock + cfg.killProbes*cfg.killProbePhases()
	return int64(phases) * nRanks * int64(cfg.wl.callsPerPhase)
}
