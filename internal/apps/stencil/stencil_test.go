package stencil

import (
	"math"
	"testing"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Width: 16, RowsPerRank: 4, K: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Width: 2, RowsPerRank: 4, K: 0.2},
		{Width: 16, RowsPerRank: 0, K: 0.2},
		{Width: 16, RowsPerRank: 4, K: 0.5},
		{Width: 16, RowsPerRank: 4, K: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func runDistributed(t *testing.T, cfg Config, n int) *rma.World {
	t.Helper()
	w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
	w.Run(func(r int) {
		p := w.Proc(r)
		Init(p, cfg)
		Run(p, cfg, 0, cfg.Iters)
	})
	return w
}

func TestMatchesSerialReference(t *testing.T) {
	cfg := Config{Width: 24, RowsPerRank: 5, Iters: 7, K: 0.2}
	const n = 4
	w := runDistributed(t, cfg, n)
	got := Gather(w, cfg, n, cfg.Iters)
	want := SerialReference(cfg, n, cfg.Iters)
	for i := range want {
		if got[i] != want[i] { // identical arithmetic: bit-exact
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEnergyBounded(t *testing.T) {
	// Diffusion with zero boundaries must not increase the max
	// temperature.
	cfg := Config{Width: 16, RowsPerRank: 4, Iters: 20, K: 0.25}
	const n = 3
	w := runDistributed(t, cfg, n)
	got := Gather(w, cfg, n, cfg.Iters)
	maxInit := 0.0
	for i := 0; i < n*cfg.RowsPerRank; i++ {
		for j := 0; j < cfg.Width; j++ {
			if v := math.Abs(InitialValue(i, j)); v > maxInit {
				maxInit = v
			}
		}
	}
	for i, v := range got {
		if math.Abs(v) > maxInit+1e-9 {
			t.Fatalf("cell %d = %g exceeds initial max %g", i, v, maxInit)
		}
	}
}

func TestCausalRecoveryMatchesFaultFree(t *testing.T) {
	cfg := Config{Width: 16, RowsPerRank: 4, Iters: 8, K: 0.2}
	const n, killAt, victim = 4, 5, 2

	ref := runDistributed(t, cfg, n)
	want := Gather(ref, cfg, n, cfg.Iters)

	w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{Groups: 1, ChecksumsPerGroup: 1, Log: ftrma.LogConfig{Puts: true}})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		Init(p, cfg)
		Run(p, cfg, 0, killAt)
	})
	w.Kill(victim)
	res, err := sys.Recover(victim)
	if err != nil {
		t.Fatal(err)
	}
	w.RunRank(victim, func() { Recover(res.Proc, res.Logs, cfg) })
	w.Run(func(r int) { Run(sys.Process(r), cfg, killAt, cfg.Iters) })

	got := Gather(w, cfg, n, cfg.Iters)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecoveryAfterDemandCheckpoint(t *testing.T) {
	// With a tiny log budget, demand checkpoints trim the logs mid-run;
	// recovery then starts from the latest demand checkpoint rather than
	// iteration 0, and must still reproduce the fault-free state.
	cfg := Config{Width: 16, RowsPerRank: 4, Iters: 10, K: 0.2}
	const n, killAt, victim = 3, 8, 1

	ref := runDistributed(t, cfg, n)
	want := Gather(ref, cfg, n, cfg.Iters)

	w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Log: ftrma.LogConfig{Puts: true, BudgetBytes: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		Init(p, cfg)
		Run(p, cfg, 0, killAt)
	})
	if sys.Stats().UCCheckpoints <= n {
		t.Fatalf("expected demand checkpoints beyond the initial ones, got %d", sys.Stats().UCCheckpoints)
	}
	w.Kill(victim)
	res, err := sys.Recover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proc.GNC() == 0 {
		t.Log("victim restored from iteration 0 (no demand checkpoint hit it)")
	}
	w.RunRank(victim, func() { Recover(res.Proc, res.Logs, cfg) })
	w.Run(func(r int) { Run(sys.Process(r), cfg, killAt, cfg.Iters) })

	got := Gather(w, cfg, n, cfg.Iters)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSingleRankRun(t *testing.T) {
	cfg := Config{Width: 8, RowsPerRank: 3, Iters: 4, K: 0.1}
	w := runDistributed(t, cfg, 1)
	got := Gather(w, cfg, 1, cfg.Iters)
	want := SerialReference(cfg, 1, cfg.Iters)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
}
