// recovery: a tour of the failure modes and recovery paths on the heat
// stencil — demand checkpoints under memory pressure, causal recovery with
// phase-interleaved re-execution, and the coordinated fallback when the
// N flag (an in-flight get at the moment of death) forbids causal replay.
//
// Run with: go run ./examples/recovery
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/apps/stencil"
	"repro/internal/ftrma"
	"repro/internal/rma"
)

func main() {
	cfg := stencil.Config{Width: 64, RowsPerRank: 16, Iters: 24, K: 0.2}
	const n, killAt, victim = 8, 17, 5

	want := stencil.SerialReference(cfg, n, cfg.Iters)

	// --- Causal recovery with demand checkpoints -------------------------
	w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 2, ChecksumsPerGroup: 1,
		Log: ftrma.LogConfig{
			Puts:        true,
			BudgetBytes: 8 << 10, // tiny: forces demand checkpoints
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		stencil.Init(p, cfg)
		stencil.Run(p, cfg, 0, killAt)
	})
	st := sys.Stats()
	fmt.Printf("ran %d iterations: %d demand-checkpoint requests, %d UC checkpoints, %d KiB logs trimmed\n",
		killAt, st.DemandRequests, st.UCCheckpoints, st.LogBytesTrimmed/1024)

	w.Kill(victim)
	res, err := sys.Recover(victim)
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	fmt.Printf("rank %d killed at iteration %d; restored checkpoint is from phase %d, replaying %d accesses\n",
		victim, killAt, res.Proc.GNC(), res.Logs.Len())
	w.RunRank(victim, func() { stencil.Recover(res.Proc, res.Logs, cfg) })
	w.Run(func(r int) { stencil.Run(sys.Process(r), cfg, killAt, cfg.Iters) })

	got := stencil.Gather(w, cfg, n, cfg.Iters)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("cell %d differs after recovery", i)
		}
	}
	fmt.Println("causal recovery: final grid bit-identical to the serial reference")

	// --- Coordinated fallback (N flag) -----------------------------------
	w2 := rma.NewWorld(rma.Config{N: 4, WindowWords: 64})
	sys2, err := ftrma.NewSystem(w2, ftrma.Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Log:           ftrma.LogConfig{Puts: true, Gets: true},
		FixedInterval: 1e-9, // checkpoint at (almost) every gsync
	})
	if err != nil {
		log.Fatal(err)
	}
	w2.Run(func(r int) {
		p := sys2.Process(r)
		p.Gsync() // anchors the coordinated schedule
		p.Gsync() // coordinated checkpoint
		if r == 0 {
			p.GetCopy(1, 0, 1, 0) // epoch left open: N_1[0] stays raised
		}
	})
	w2.Kill(0)
	_, err = sys2.Recover(0)
	if errors.Is(err, ftrma.ErrFallback) {
		fmt.Println("fallback: rank died with an in-flight get; system rolled back to the coordinated checkpoint")
	} else if err != nil {
		log.Fatalf("unexpected error: %v", err)
	} else {
		log.Fatal("expected the N flag to force a coordinated fallback")
	}
	fmt.Printf("protocol stats: %+v\n", sys2.Stats())
}
