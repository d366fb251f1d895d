package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/apps/kvstore"
	"repro/internal/failure"
	"repro/internal/ftrma"
	"repro/internal/machine"
	"repro/internal/mlog"
	"repro/internal/reliability"
	"repro/internal/rma"
	"repro/internal/trace"
)

// Fig10ab regenerates the failure-distribution fits of Figs. 10a (nodes,
// level 1) and 10b (PSUs, level 2): a synthetic history is drawn from the
// published PDF, binned, and re-fitted; the series show the histogram rate
// and the fitted exponential.
func Fig10ab(level int, sc Scale) Result {
	pdfs := failure.TSUBAMEPDFs()
	names := machine.TSUBAME2().LevelNames
	pdf := pdfs[level-1]
	id := "fig10a"
	if level == 2 {
		id = "fig10b"
	}
	res := Result{
		ID:     id,
		Title:  fmt.Sprintf("Distribution of simultaneous %s failures (samples and fit)", names[level-1]),
		XLabel: fmt.Sprintf("Simultaneous %s failures", names[level-1]),
		YLabel: "P per day",
	}
	rng := rand.New(rand.NewSource(int64(level)))
	const maxSize = 7
	// Rarer hierarchy levels need a longer observation period to populate
	// several histogram bins (the paper had 1962 real crashes).
	days := sc.HistoryDays
	for l := 1; l < level; l++ {
		days *= 8
	}
	evs := failure.GenerateHistory(rng, []failure.PDF{pdf}, days, maxSize)
	hist := failure.Histogram(evs, 1, maxSize)
	sampled := Series{Name: "samples"}
	for x := 1; x <= maxSize; x++ {
		sampled.Points = append(sampled.Points, Point{
			X: float64(x), Y: float64(hist[x]) / float64(days),
		})
	}
	fit, err := failure.FitExponential(hist, days)
	fitted := Series{Name: "fit"}
	if err == nil {
		for x := 1; x <= maxSize; x++ {
			fitted.Points = append(fitted.Points, Point{X: float64(x), Y: fit.At(x)})
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("fitted: %s", fit),
			fmt.Sprintf("paper:  %s", pdf))
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("fit failed: %v", err))
	}
	res.Series = []Series{sampled, fitted}
	return res
}

// Fig10c regenerates the probability-of-catastrophic-failure figure:
// P_cf per day against |CH| for the five t-awareness strategies, with
// N = 4000 processes on the TSUBAME2.0 hierarchy.
func Fig10c() Result {
	res := Result{
		ID:     "fig10c",
		Title:  "Probability of a catastrophic failure, TSUBAME2.0, N=4000",
		XLabel: "|CH| (% of N)",
		YLabel: "P_cf / day",
	}
	fdh := machine.TSUBAME2()
	pdfs := failure.TSUBAMEPDFs()
	strategies := []struct {
		name  string
		level int
	}{
		{"no-topo", 0}, {"nodes", 1}, {"PSUs", 2}, {"switches", 3}, {"racks", 4},
	}
	for _, st := range strategies {
		pts, err := reliability.Curve(fdh, pdfs, 4000, st.level, 20, 10)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %v", st.name, err))
			continue
		}
		s := Series{Name: st.name}
		for _, p := range pts {
			s.Points = append(s.Points, Point{X: p.CHPercent, Y: p.Pcf})
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"expected shape (paper Fig. 10c): no-topo flat; t-aware curves fall with |CH|; higher levels 1-3 orders of magnitude better")
	return res
}

// Fig11c regenerates the key-value-store logging figure: aggregate
// inserts/s for no-FT, f-puts, f-puts-gets, and the ML baseline.
func Fig11c(sc Scale) Result {
	res := Result{
		ID:     "fig11c",
		Title:  "Key-value store fault-free runs: access logging",
		XLabel: "Processes",
		YLabel: "Inserts/s (virtual)",
	}
	kinds := []string{"no-FT", "f-puts", "f-puts-gets", "ML"}
	for _, kind := range kinds {
		s := Series{Name: kind}
		for _, p := range sc.KVProcs {
			s.Points = append(s.Points, Point{X: float64(p), Y: runKV(kind, p, sc)})
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"expected shape (paper Fig. 11c, N=256): overhead vs no-FT ~12% f-puts, ~33% f-puts-gets, ~40% ML")
	return res
}

// runKV measures aggregate inserts per virtual second under one protocol.
func runKV(kind string, p int, sc Scale) float64 {
	cfg := kvstore.Config{
		TableSlots: 4 * sc.KVInsertsPerRank,
		HeapCells:  4 * sc.KVInsertsPerRank,
		ThinkScale: 40e-6, // §7.2.2: inserts are a small fraction of runtime
		ThinkRate:  1,
	}
	w := rma.NewWorld(rma.Config{N: p, WindowWords: cfg.WindowWords()})
	var apiFor func(r int) rma.FullAPI
	switch kind {
	case "no-FT":
		apiFor = func(r int) rma.FullAPI { return w.Proc(r) }
	case "f-puts", "f-puts-gets":
		sys, err := ftrma.NewSystem(w, ftrma.Config{
			Groups: chGroups(p, 12.5), ChecksumsPerGroup: 1,
			Log: ftrma.LogConfig{Puts: true, Gets: kind == "f-puts-gets"},
		})
		if err != nil {
			panic(err)
		}
		apiFor = func(r int) rma.FullAPI { return sys.Process(r) }
	case "ML":
		sys, err := mlog.NewSystem(w, mlog.Config{RanksPerLogger: 8, LogGets: true})
		if err != nil {
			panic(err)
		}
		apiFor = func(r int) rma.FullAPI { return sys.Process(r) }
	default:
		panic("harness: unknown kv protocol " + kind)
	}
	total := 0
	stores := make([]*kvstore.Store, p)
	w.Run(func(r int) {
		s, err := kvstore.New(apiFor(r), cfg, int64(r)*7919)
		if err != nil {
			panic(err)
		}
		stores[r] = s
		for i := 0; i < sc.KVInsertsPerRank; i++ {
			s.Insert(uint64(r*sc.KVInsertsPerRank+i) + 1)
		}
	})
	for _, s := range stores {
		total += s.Inserted
	}
	return float64(total) / w.MaxTime()
}

// Table1 renders the operation-categorization table (Table 1 of the
// paper): every MPI-3 One Sided / UPC / Fortran 2008 operation and its
// category in the model.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== table1: Categorization of RMA operations in the model ==\n")
	fmt.Fprintf(&b, "%-24s %s\n", "operation", "category")
	for _, op := range trace.Table1Ops() {
		fmt.Fprintf(&b, "%-24s %s\n", op, trace.Categorize(op))
	}
	return b.String()
}
