package main

import (
	"fmt"
	"math"
	"os"
)

// maxRange is the within-set (max-min)/median a pair may show and pass.
const maxRange = 0.10

// runStability runs two interleaved sets of N full runs of this binary —
// A1 B1 A2 B2 ..., every run on its own seed — and prints, per workload ×
// end-to-end metric, the two set medians, their relative difference, each
// set's (max-min)/median and (Q3-Q1)/median, and two verdicts. The first is
// the issue's: PASS when the medians differ by less than the metric's target
// bound and neither set's range exceeds maxRange. The second is the rule the
// benchmark's driver applies, to ten runs a set and BENCHMARK.json's bound:
// the second median not worse than the first by more than the bound and,
// except for setup_s, both interquartile spreads inside it. The exit status
// follows the first. The output is markdown; STABILITY.md is this output for
// the seed code.
func runStability(o options) int {
	n := o.stability
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	var failedOps, incorrect int64
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	for i := 0; i < n; i++ {
		for s := 0; s < 2; s++ {
			oo := o
			oo.seed = o.seed + uint64(2*i+s)
			for _, name := range names {
				r := runOne(oo, name, false)
				fmt.Fprintf(os.Stderr, "stability: set %c run %d %s seed %d done\n", 'A'+s, i+1, name, oo.seed)
				failedOps += r.Failed
				if !r.Correct {
					incorrect++
				}
				if values[s][name] == nil {
					values[s][name] = map[string][]float64{}
				}
				for k, v := range r.EndToEnd {
					values[s][name][k] = append(values[s][name][k], v.Value)
				}
			}
		}
	}
	st := collectStamps(o.seed)
	fmt.Printf("# Stability of the benchmark on unchanged code\n\n")
	fmt.Printf("Two interleaved sets (A, B) of %d full runs of one binary, seeds %d..%d.\n\n", n, o.seed, o.seed+uint64(2*n-1))
	fmt.Printf("- cpu: %s\n- nproc: %d, GOMAXPROCS: %d\n- go: %s\n- commit: %s\n- runs not correct: %d, ops failed: %d\n\n",
		st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Commit, incorrect, failedOps)
	fmt.Printf("`diff` is (median B − median A) / median A; `range` is (max−min)/median within a set; `iqr` is (Q3−Q1)/median with Python's `statistics.quantiles(n=4)`. "+
		"`verdict` is the issue's rule against the issue's bound (`target`): PASS when |diff| < target and both ranges ≤ %.0f%%. "+
		"`driver` is the rule the benchmark's driver applies with BENCHMARK.json's bound (`bound`): B not worse than A by more than the bound and, except for `setup_s`, both iqr ≤ bound.\n\n", 100*maxRange)
	fmt.Println("| workload | metric | unit | median A | median B | diff | range A | range B | iqr A | iqr B | target | verdict | bound | driver |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	word := map[bool]string{true: "PASS", false: "FAIL"}
	pairs, passed, driverPassed := 0, 0, 0
	for _, name := range names {
		for _, m := range endToEnd {
			if m.killOnly && !findWorkload(name).killEveryBlock {
				continue
			}
			pairs++
			a, b := values[0][name][m.name], values[1][name][m.name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("| %s | %s | %s | - | - | - | - | - | - | - | %.0f%% | FAIL (no data) | %.0f%% | FAIL |\n", name, m.name, m.unit, 100*m.target, 100*m.bound)
				continue
			}
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			pass := math.Abs(diff) < m.target && rangeShare(a) <= maxRange && rangeShare(b) <= maxRange
			worse := diff
			if m.higher {
				worse = -diff
			}
			driver := worse <= m.bound && (m.name == "setup_s" || (iqrShare(a) <= m.bound && iqrShare(b) <= m.bound))
			if pass {
				passed++
			}
			if driver {
				driverPassed++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s | %.0f%% | %s |\n",
				name, m.name, m.unit, ma, mb, 100*diff, 100*rangeShare(a), 100*rangeShare(b),
				100*iqrShare(a), 100*iqrShare(b), 100*m.target, word[pass], 100*m.bound, word[driver])
		}
	}
	fmt.Printf("\n%d of %d pairs PASS the issue's rule; %d of %d pass the driver's.\n", passed, pairs, driverPassed, pairs)
	if passed < pairs {
		return 1
	}
	return 0
}
