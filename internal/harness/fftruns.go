package harness

import (
	"fmt"
	"math"

	"repro/internal/apps/fft"
	"repro/internal/ftrma"
	"repro/internal/mlog"
	"repro/internal/rma"
	"repro/internal/scr"
)

// fftProto names a protocol configuration of the FFT experiments.
type fftProto struct {
	name string
	// build wraps the world with the protocol and returns the per-rank
	// API plus an optional post-run stats hook.
	build func(w *rma.World, cal fftCalibration) (func(r int) rma.FullAPI, func() string)
}

// fftCalibration carries run-derived scheduling constants so every
// protocol checkpoints at comparable cadences.
type fftCalibration struct {
	iterTime  float64 // virtual seconds per iteration, no-FT
	ckptDelta float64 // estimated checkpoint cost
	groups    int
}

// calibrateFFT measures the no-FT per-iteration virtual time (iteration
// portion only; initialization excluded).
func calibrateFFT(cfg fft.Config) fftCalibration {
	w := rma.NewWorld(rma.Config{N: cfg.Q * cfg.Q, WindowWords: cfg.WindowWords()})
	w.Run(func(r int) { fft.Init(w.Proc(r), cfg) })
	t0 := w.MaxTime()
	w.Run(func(r int) { fft.Run(w.Proc(r), cfg, 0, 2) })
	params := w.Params()
	bytes := 8 * cfg.WindowWords()
	return fftCalibration{
		iterTime:  (w.MaxTime() - t0) / 2,
		ckptDelta: params.CopyTime(bytes) + params.TransferTime(bytes),
	}
}

// runFFT executes the benchmark under one protocol and returns GFlop/s
// (total flops over the virtual time of the iteration portion, matching the
// paper's steady-state fault-free measurement) and an annotation.
func runFFT(cfg fft.Config, proto fftProto, cal fftCalibration) (float64, string) {
	p := cfg.Q * cfg.Q
	w := rma.NewWorld(rma.Config{N: p, WindowWords: cfg.WindowWords()})
	apiFor, note := proto.build(w, cal)
	w.Run(func(r int) { fft.Init(apiFor(r), cfg) })
	t0 := w.MaxTime()
	w.Run(func(r int) { fft.Run(apiFor(r), cfg, 0, cfg.Iters) })
	gflops := cfg.TotalFlops(cfg.Iters) / (w.MaxTime() - t0) / 1e9
	annotation := ""
	if note != nil {
		annotation = note()
	}
	return gflops, annotation
}

// chGroups returns the group count giving |CH| = pct% of |CM| (at least 1).
func chGroups(p int, pct float64) int {
	g := int(float64(p) * pct / 100)
	if g < 1 {
		g = 1
	}
	return g
}

// The protocol lineup of Fig. 10d. The fixed interval is 2.5 no-FT
// iterations (a frequent-checkpoint regime, like the paper's ~2.7 s); the
// Daly configuration derives its longer interval from an MTBF chosen so
// that sqrt(2*delta*M) spans several iterations — checkpointing rarely,
// which is the point of Daly's formula.
func fig10dProtos(p int) []fftProto {
	return []fftProto{
		{name: "no-FT", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			return func(r int) rma.FullAPI { return w.Proc(r) }, nil
		}},
		{name: "f-daly", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			interval := 8 * cal.iterTime
			mtbf := interval * interval / (2 * cal.ckptDelta)
			sys, err := ftrma.NewSystem(w, ftrma.Config{
				Groups: chGroups(p, 12.5), ChecksumsPerGroup: 1,
				UseDaly: true, MTBF: mtbf,
			})
			if err != nil {
				panic(err)
			}
			return func(r int) rma.FullAPI { return sys.Process(r) },
				func() string { return fmt.Sprintf("cc=%d", sys.Stats().CCCheckpoints) }
		}},
		{name: "f-no-daly", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			sys, err := ftrma.NewSystem(w, ftrma.Config{
				Groups: chGroups(p, 12.5), ChecksumsPerGroup: 1,
				FixedInterval: 2.5 * cal.iterTime,
			})
			if err != nil {
				panic(err)
			}
			return func(r int) rma.FullAPI { return sys.Process(r) },
				func() string { return fmt.Sprintf("cc=%d", sys.Stats().CCCheckpoints) }
		}},
		{name: "SCR-RAM", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			sys, err := scr.NewSystem(w, scr.Config{
				Mode: scr.RAM, Interval: 2.5 * cal.iterTime, Groups: chGroups(p, 12.5),
			})
			if err != nil {
				panic(err)
			}
			return func(r int) rma.FullAPI { return sys.Process(r) }, nil
		}},
		{name: "SCR-PFS", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			sys, err := scr.NewSystem(w, scr.Config{
				Mode: scr.PFS, Interval: 2.5 * cal.iterTime, Groups: chGroups(p, 12.5),
			})
			if err != nil {
				panic(err)
			}
			return func(r int) rma.FullAPI { return sys.Process(r) }, nil
		}},
	}
}

// Fig10d regenerates the coordinated-checkpointing performance figure:
// NAS FFT fault-free GFlop/s for no-FT, ftRMA with and without Daly's
// interval, SCR-RAM, and SCR-PFS.
func Fig10d(sc Scale) Result {
	res := Result{
		ID:     "fig10d",
		Title:  "NAS 3D FFT fault-free runs: coordinated checkpointing",
		XLabel: "Processes",
		YLabel: "GFlop/s (virtual)",
	}
	type cell struct {
		x, y float64
		note string
	}
	series := map[string][]cell{}
	order := []string{}
	for _, p := range sc.FFTProcs {
		q := intSqrt(p)
		cfg := fft.Config{N: sc.FFTN, Q: q, Iters: sc.FFTIters}
		cal := calibrateFFT(cfg)
		for _, proto := range fig10dProtos(p) {
			g, note := runFFT(cfg, proto, cal)
			if _, ok := series[proto.name]; !ok {
				order = append(order, proto.name)
			}
			series[proto.name] = append(series[proto.name], cell{float64(p), g, note})
		}
	}
	for _, name := range order {
		s := Series{Name: name}
		for _, c := range series[name] {
			s.Points = append(s.Points, Point{X: c.x, Y: c.y, Label: c.note})
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"expected shape (paper §7.2.1): no-FT > f-daly > f-no-daly > SCR-RAM > SCR-PFS",
		"paper overheads vs no-FT: f-daly 1-5%, f-no-daly 1-15%, SCR-RAM 21-37%, SCR-PFS 46-67%")
	return res
}

// Fig11a regenerates the demand-checkpointing figure: FFT performance
// against the per-process log memory budget, annotated with the number of
// demand-checkpoint requests (the bar labels of the paper's plot).
func Fig11a(sc Scale) Result {
	res := Result{
		ID:     "fig11a",
		Title:  "NAS 3D FFT fault-free runs: demand checkpointing",
		XLabel: "Log budget [KiB/process]",
		YLabel: "GFlop/s (virtual)",
	}
	p := sc.FFTProcs[len(sc.FFTProcs)-1]
	q := intSqrt(p)
	cfg := fft.Config{N: sc.FFTN, Q: q, Iters: sc.FFTIters}
	// Budgets straddling the natural per-rank log volume.
	natural := estimateLogBytes(cfg)
	budgets := []int{natural / 8, natural / 4, natural / 2, natural, 2 * natural}
	s := Series{Name: "ftRMA (f-puts)"}
	for _, budget := range budgets {
		w := rma.NewWorld(rma.Config{N: p, WindowWords: cfg.WindowWords()})
		sys, err := ftrma.NewSystem(w, ftrma.Config{
			Groups: chGroups(p, 12.5), ChecksumsPerGroup: 1,
			Log: ftrma.LogConfig{Puts: true, BudgetBytes: budget},
		})
		if err != nil {
			panic(err)
		}
		w.Run(func(r int) { fft.Init(sys.Process(r), cfg) })
		t0 := w.MaxTime()
		w.Run(func(r int) { fft.Run(sys.Process(r), cfg, 0, cfg.Iters) })
		g := cfg.TotalFlops(cfg.Iters) / (w.MaxTime() - t0) / 1e9
		s.Points = append(s.Points, Point{
			X:     float64(budget) / 1024,
			Y:     g,
			Label: fmt.Sprintf("%d demand ckpts", sys.Stats().DemandRequests),
		})
	}
	res.Series = []Series{s}
	res.Notes = append(res.Notes,
		"expected shape (paper Fig. 11a): small budgets trigger demand checkpoints and cost performance; above the natural log volume none occur")
	return res
}

// estimateLogBytes estimates the per-rank put-log volume of a full run.
func estimateLogBytes(cfg fft.Config) int {
	// 3 transposes x Q blocks x blockBytes per iteration, plus record
	// overhead.
	perIter := 3 * cfg.Q * (8*2*(cfg.N/cfg.Q)*(cfg.N/cfg.Q)*(cfg.N/cfg.Q) + 64)
	return perIter * cfg.Iters
}

// Fig11b regenerates the FFT access-logging figure: no-FT vs ftRMA put
// logging vs the message-logging baseline.
func Fig11b(sc Scale) Result {
	res := Result{
		ID:     "fig11b",
		Title:  "NAS 3D FFT fault-free runs: access logging",
		XLabel: "Processes",
		YLabel: "GFlop/s (virtual)",
	}
	protos := []fftProto{
		{name: "no-FT", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			return func(r int) rma.FullAPI { return w.Proc(r) }, nil
		}},
		{name: "ftRMA", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			sys, err := ftrma.NewSystem(w, ftrma.Config{
				Groups: cal.groups, ChecksumsPerGroup: 1,
				Log: ftrma.LogConfig{Puts: true},
			})
			if err != nil {
				panic(err)
			}
			return func(r int) rma.FullAPI { return sys.Process(r) }, nil
		}},
		{name: "ML", build: func(w *rma.World, cal fftCalibration) (func(int) rma.FullAPI, func() string) {
			sys, err := mlog.NewSystem(w, mlog.Config{RanksPerLogger: 8})
			if err != nil {
				panic(err)
			}
			return func(r int) rma.FullAPI { return sys.Process(r) }, nil
		}},
	}
	for _, proto := range protos {
		s := Series{Name: proto.name}
		for _, p := range sc.FFTProcs {
			q := intSqrt(p)
			cfg := fft.Config{N: sc.FFTN, Q: q, Iters: sc.FFTIters}
			cal := calibrateFFT(cfg)
			cal.groups = chGroups(p, 12.5)
			g, _ := runFFT(cfg, proto, cal)
			s.Points = append(s.Points, Point{X: float64(p), Y: g})
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"expected shape (paper Fig. 11b): ftRMA adds ~8-9% over no-FT and consistently outperforms ML by ~9%")
	return res
}

// Fig12 regenerates the recovery-from-demand-checkpoint figure: the FFT
// with a forced checkpoint/checksum transfer after every iteration, under
// |CH| = 12.5% and 6.25% of |CM| — fewer checksum processes mean more
// contention on each and a slower run.
func Fig12(sc Scale) Result {
	res := Result{
		ID:     "fig12",
		Title:  "NAS 3D FFT: recovery from a demand checkpoint (checksum transfers each iteration)",
		XLabel: "Processes",
		YLabel: "GFlop/s (virtual)",
	}
	type variant struct {
		name string
		pct  float64
	}
	variants := []variant{{"no-FT", 0}, {"f-12.5-nodes", 12.5}, {"f-6.25-nodes", 6.25}}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, p := range sc.FFTProcs {
			q := intSqrt(p)
			cfg := fft.Config{N: sc.FFTN, Q: q, Iters: sc.FFTIters}
			w := rma.NewWorld(rma.Config{N: p, WindowWords: cfg.WindowWords()})
			var sys *ftrma.System
			if v.pct > 0 {
				var err error
				sys, err = ftrma.NewSystem(w, ftrma.Config{
					Groups: chGroups(p, v.pct), ChecksumsPerGroup: 1,
				})
				if err != nil {
					panic(err)
				}
			}
			apiFor := func(r int) rma.FullAPI {
				if sys != nil {
					return sys.Process(r)
				}
				return w.Proc(r)
			}
			w.Run(func(r int) { fft.Init(apiFor(r), cfg) })
			t0 := w.MaxTime()
			w.Run(func(r int) {
				api := apiFor(r)
				for it := 0; it < cfg.Iters; it++ {
					fft.Run(api, cfg, it, it+1)
					if sys != nil {
						// The per-iteration checksum transfer of §7.2.1.
						sys.Process(r).UCCheckpoint()
					}
				}
			})
			g := cfg.TotalFlops(cfg.Iters) / (w.MaxTime() - t0) / 1e9
			s.Points = append(s.Points, Point{X: float64(p), Y: g})
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"expected shape (paper Fig. 12): no-FT fastest; f-12.5 above f-6.25 (fewer CHs serialize more checkpoint traffic)")
	return res
}

// Overheads derives the §7.2.1 overhead percentages from Fig. 10d/11b runs.
func Overheads(sc Scale) Result {
	res := Result{
		ID:     "overheads",
		Title:  "Fault-tolerance overheads vs no-FT (derived from fig10d/fig11b)",
		XLabel: "Processes",
		YLabel: "overhead %",
	}
	f10 := Fig10d(sc)
	base := f10.Series[0]
	for _, s := range f10.Series[1:] {
		os := Series{Name: s.Name}
		for i, pt := range s.Points {
			ov := (base.Points[i].Y - pt.Y) / base.Points[i].Y * 100
			os.Points = append(os.Points, Point{X: pt.X, Y: ov})
		}
		res.Series = append(res.Series, os)
	}
	res.Notes = append(res.Notes,
		"paper §7.2.1: f-daly 1-5%, f-no-daly 1-15%, SCR-RAM 21-37%, SCR-PFS 46-67%")
	return res
}

// intSqrt returns the integer square root of a perfect square.
func intSqrt(p int) int {
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		panic(fmt.Sprintf("harness: %d is not a perfect square", p))
	}
	return q
}
