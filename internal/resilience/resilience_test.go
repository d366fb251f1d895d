package resilience

import (
	"testing"

	"repro/internal/ftrma"
)

func ftCfg(groups int) ftrma.Config {
	return ftrma.Config{
		Groups:            groups,
		ChecksumsPerGroup: 1,
		Log:               ftrma.LogConfig{Puts: true},
	}
}

func TestSimulateFaultFree(t *testing.T) {
	rep, err := Simulate(Config{Ranks: 4, Iters: 6, MTBF: 0, FT: ftCfg(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || rep.CausalRecoveries != 0 {
		t.Fatalf("fault-free run reported failures: %+v", rep)
	}
	if !rep.Verified {
		t.Fatal("fault-free run does not match reference")
	}
	// The protocol (logging) costs something, so efficiency < 1; but it
	// must be substantial.
	if rep.Efficiency <= 0.3 || rep.Efficiency > 1.0000001 {
		t.Fatalf("efficiency = %g", rep.Efficiency)
	}
}

func TestSimulateWithFailures(t *testing.T) {
	// An aggressive failure rate: several crashes over the run, all
	// recovered causally, final state still exact.
	rep, err := Simulate(Config{
		Ranks: 6, Iters: 20, MTBF: 2e-4, Seed: 7, FT: ftCfg(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("aggressive MTBF injected no failures")
	}
	if rep.CausalRecoveries != rep.Failures {
		t.Fatalf("recoveries %d != failures %d (workload is fully put-written)",
			rep.CausalRecoveries, rep.Failures)
	}
	if !rep.Verified {
		t.Fatal("recovered run does not match the fault-free reference")
	}
	if rep.Efficiency >= 1 {
		t.Fatalf("failures cost nothing? efficiency = %g", rep.Efficiency)
	}
}

func TestSimulateEfficiencyDegradesWithFailureRate(t *testing.T) {
	run := func(mtbf float64) Report {
		rep, err := Simulate(Config{Ranks: 4, Iters: 24, MTBF: mtbf, Seed: 3, FT: ftCfg(1)})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("state mismatch")
		}
		return rep
	}
	rare := run(1.0) // essentially failure-free
	often := run(1e-4)
	if often.Failures <= rare.Failures {
		t.Fatalf("failure counts: rare=%d often=%d", rare.Failures, often.Failures)
	}
	if often.Efficiency >= rare.Efficiency {
		t.Fatalf("efficiency did not degrade: rare=%g often=%g", rare.Efficiency, often.Efficiency)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{Ranks: 4, Iters: 12, MTBF: 5e-4, Seed: 11, FT: ftCfg(2)}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.CausalRecoveries != b.CausalRecoveries {
		t.Fatalf("simulation not reproducible: %+v vs %+v", a, b)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(Config{Ranks: 1, Iters: 5, FT: ftCfg(1)}); err == nil {
		t.Error("accepted one rank")
	}
	if _, err := Simulate(Config{Ranks: 4, Iters: 0, FT: ftCfg(1)}); err == nil {
		t.Error("accepted zero iterations")
	}
	bad := ftCfg(1)
	bad.Groups = 9
	if _, err := Simulate(Config{Ranks: 4, Iters: 5, FT: bad}); err == nil {
		t.Error("accepted invalid FT config")
	}
}
