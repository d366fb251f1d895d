// Package harness regenerates every table and figure of the paper's
// evaluation (§7): the failure-distribution fits (Figs. 10a/10b), the
// P_cf reliability study (Fig. 10c), the NAS 3D FFT performance figures
// (Figs. 10d, 11a, 11b, 12), the key-value-store logging figure (Fig. 11c),
// and the operation taxonomy (Table 1). Each experiment returns a Result
// whose series mirror the paper's plot series; cmd/ftrma prints them and
// harness_test.go checks each figure's expected shape.
//
// Absolute numbers come from the virtual-time machine model, not a Cray
// XE6, so only the *shape* of each figure is expected to match the paper
// (see EXPERIMENTS.md for the paper-vs-measured record).
package harness

import (
	"fmt"
	"io"
	"sort"
)

// Point is one sample of a series.
type Point struct {
	X     float64
	Y     float64
	Label string // optional annotation (e.g. demand-checkpoint count)
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string // e.g. "fig10d"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Print renders the result as an aligned text table, one row per X value
// and one column per series — the same rows/series the paper plots.
func (r Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	// Collect the x values.
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	fmt.Fprintf(w, "%-14s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, " %16s", s.Name)
	}
	fmt.Fprintf(w, "    [%s]\n", r.YLabel)
	for _, x := range sorted {
		fmt.Fprintf(w, "%-14.6g", x)
		for _, s := range r.Series {
			found := false
			for _, p := range s.Points {
				if p.X == x {
					if p.Label != "" {
						fmt.Fprintf(w, " %10.5g (%s)", p.Y, p.Label)
					} else {
						fmt.Fprintf(w, " %16.6g", p.Y)
					}
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes. The paper ran 100-500 processes of NAS
// class A/C on a Cray; the defaults here are laptop-sized but preserve the
// figures' shapes.
type Scale struct {
	// FFTProcs are the rank counts for the FFT figures; each must be a
	// perfect square whose root divides FFTN.
	FFTProcs []int
	// FFTN is the FFT cube edge (a power of two).
	FFTN int
	// FFTIters is the number of FFT iterations per run.
	FFTIters int
	// KVProcs are the rank counts for the key-value-store figure.
	KVProcs []int
	// KVInsertsPerRank is the number of inserts each rank performs.
	KVInsertsPerRank int
	// HistoryDays is the synthetic failure-history length for
	// Figs. 10a/10b.
	HistoryDays int
}

// QuickScale is used by unit benches and smoke tests.
func QuickScale() Scale {
	return Scale{
		FFTProcs:         []int{4, 16},
		FFTN:             16,
		FFTIters:         4,
		KVProcs:          []int{4, 8},
		KVInsertsPerRank: 48,
		HistoryDays:      20000,
	}
}

// DefaultScale regenerates the figures at a laptop-feasible size.
func DefaultScale() Scale {
	return Scale{
		FFTProcs:         []int{16, 64, 256},
		FFTN:             64,
		FFTIters:         10,
		KVProcs:          []int{16, 64, 128},
		KVInsertsPerRank: 64,
		HistoryDays:      200000,
	}
}
