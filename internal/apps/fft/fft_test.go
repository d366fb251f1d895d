package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

func TestFFT1DKnownValues(t *testing.T) {
	// FFT of a constant signal: all energy in bin 0.
	a := []complex128{1, 1, 1, 1}
	FFT1D(a, false)
	want := []complex128{4, 0, 0, 0}
	for i := range a {
		if cmplx.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("FFT(const) = %v", a)
		}
	}
	// FFT of a unit impulse: flat spectrum.
	b := []complex128{1, 0, 0, 0}
	FFT1D(b, false)
	for i := range b {
		if cmplx.Abs(b[i]-1) > 1e-12 {
			t.Fatalf("FFT(impulse) = %v", b)
		}
	}
}

func TestFFT1DMatchesNaiveDFT(t *testing.T) {
	const n = 16
	a := make([]complex128, n)
	for i := range a {
		a[i] = InitialValue(i, 0, 0, n)
	}
	naive := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			naive[k] += a[j] * cmplx.Exp(complex(0, ang))
		}
	}
	FFT1D(a, false)
	for k := range a {
		if cmplx.Abs(a[k]-naive[k]) > 1e-9 {
			t.Fatalf("bin %d: fft %v, naive %v", k, a[k], naive[k])
		}
	}
}

func TestFFT1DRoundTrip(t *testing.T) {
	prop := func(seed uint32) bool {
		const n = 32
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = InitialValue(i, int(seed%97), 0, n)
			orig[i] = a[i]
		}
		FFT1D(a, false)
		FFT1D(a, true)
		for i := range a {
			if cmplx.Abs(a[i]/complex(float64(n), 0)-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFT1DRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted length 6")
		}
	}()
	FFT1D(make([]complex128, 6), false)
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 16, Q: 2}).Validate(4); err != nil {
		t.Fatal(err)
	}
	if (Config{N: 16, Q: 2}).Validate(5) == nil {
		t.Error("accepted non-square rank count")
	}
	if (Config{N: 12, Q: 2}).Validate(4) == nil {
		t.Error("accepted non-power-of-two N")
	}
	if (Config{N: 16, Q: 3}).Validate(9) == nil {
		t.Error("accepted N not divisible by Q")
	}
}

// runDistributed runs a forward FFT on a fresh world and returns it.
func runDistributed(t *testing.T, cfg Config) *rma.World {
	t.Helper()
	w := rma.NewWorld(rma.Config{N: cfg.Q * cfg.Q, WindowWords: cfg.WindowWords()})
	w.Run(func(r int) {
		p := w.Proc(r)
		Init(p, cfg)
		Run(p, cfg, 0, cfg.Iters)
	})
	return w
}

func TestDistributedMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{N: 8, Q: 2, Iters: 1},
		{N: 16, Q: 2, Iters: 1},
		{N: 16, Q: 4, Iters: 1},
	} {
		w := runDistributed(t, cfg)
		got := Gather(w, cfg)

		ref := make([]complex128, cfg.N*cfg.N*cfg.N)
		for z := 0; z < cfg.N; z++ {
			for y := 0; y < cfg.N; y++ {
				for x := 0; x < cfg.N; x++ {
					ref[(z*cfg.N+y)*cfg.N+x] = InitialValue(x, y, z, cfg.N)
				}
			}
		}
		Serial3D(ref, cfg.N)
		for i := range ref {
			if got[i] != ref[i] { // same kernel, same order: bit-identical
				t.Fatalf("cfg %+v: element %d = %v, want %v", cfg, i, got[i], ref[i])
			}
		}
	}
}

func TestMultipleIterationsDeterministic(t *testing.T) {
	cfg := Config{N: 8, Q: 2, Iters: 3, Evolve: true, Alpha: 1e-4}
	w1 := runDistributed(t, cfg)
	w2 := runDistributed(t, cfg)
	a := Gather(w1, cfg)
	b := Gather(w2, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	cfg := Config{N: 16, Q: 2, Iters: 2}
	w := runDistributed(t, cfg)
	if w.MaxTime() <= 0 {
		t.Fatal("no virtual time charged")
	}
	// Twice the iterations, roughly twice the time.
	cfg2 := cfg
	cfg2.Iters = 4
	w2 := runDistributed(t, cfg2)
	ratio := w2.MaxTime() / w.MaxTime()
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("time ratio for 2x iterations = %g", ratio)
	}
}

func TestFFTWithFtRMACausalRecovery(t *testing.T) {
	// The headline integration test: run the FFT under ftRMA with put
	// logging, kill a rank at an iteration boundary, causally recover it,
	// finish the run, and compare bit-for-bit with a fault-free run.
	cfg := Config{N: 8, Q: 2, Iters: 4}
	const killAt, victim = 2, 3

	// Fault-free reference.
	ref := runDistributed(t, cfg)
	want := Gather(ref, cfg)

	w := rma.NewWorld(rma.Config{N: 4, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 1, ChecksumsPerGroup: 1, Log: ftrma.LogConfig{Puts: true},
	})
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
	if res.FellBack {
		t.Fatal("unexpected fallback (no gets, no atomics in this run)")
	}
	// App-assisted causal recovery: re-execute lost phases, replaying
	// remote accesses from the logs (the victim's own transpose blocks are
	// recomputed — their source-side logs died with it).
	w.RunRank(victim, func() { Recover(res.Proc, res.Logs, cfg) })
	// All ranks (p_new included) resume at iteration killAt.
	w.Run(func(r int) {
		Run(sys.Process(r), cfg, killAt, cfg.Iters)
	})
	got := Gather(w, cfg)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered run differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if sys.Stats().Recoveries != 1 {
		t.Errorf("stats: %+v", sys.Stats())
	}
}

func TestFFTWithDemandCheckpointsStaysCorrect(t *testing.T) {
	// A tight log budget forces demand checkpoints mid-run; the numeric
	// result must be unaffected.
	cfg := Config{N: 8, Q: 2, Iters: 3}
	ref := runDistributed(t, cfg)
	want := Gather(ref, cfg)

	w := rma.NewWorld(rma.Config{N: 4, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Log: ftrma.LogConfig{Puts: true, BudgetBytes: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		Init(p, cfg)
		Run(p, cfg, 0, cfg.Iters)
	})
	got := Gather(w, cfg)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("demand-checkpointed run differs at %d", i)
		}
	}
	if sys.Stats().UCCheckpoints == 0 {
		t.Error("tight budget triggered no demand checkpoints")
	}
}

func TestLoggingOverheadOrdering(t *testing.T) {
	// Virtual-time sanity for Fig. 11b: no-FT < ftRMA logging.
	cfg := Config{N: 16, Q: 2, Iters: 2}
	plain := runDistributed(t, cfg).MaxTime()

	w := rma.NewWorld(rma.Config{N: 4, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{Groups: 1, ChecksumsPerGroup: 1, Log: ftrma.LogConfig{Puts: true}})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		Init(p, cfg)
		Run(p, cfg, 0, cfg.Iters)
	})
	logged := w.MaxTime()
	if logged <= plain {
		t.Errorf("logging added no overhead: %g vs %g", logged, plain)
	}
	if logged > plain*2 {
		t.Errorf("logging overhead implausibly high: %g vs %g", logged, plain)
	}
}
