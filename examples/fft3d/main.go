// fft3d: the paper's NAS-style 3D FFT workload under ftRMA, with a
// mid-computation failure and app-assisted causal recovery.
//
// A 32³ cube is transformed for 6 iterations on 16 ranks (4x4 pencil
// grid). After iteration 3 one rank is fail-stopped; recovery re-executes
// its lost work, replaying the remote transpose blocks from the access logs
// phase by phase. The final spectrum is compared bit-for-bit against a
// fault-free run.
//
// Run with: go run ./examples/fft3d
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/fft"
	"repro/internal/ftrma"
	"repro/internal/rma"
)

func main() {
	cfg := fft.Config{N: 32, Q: 4, Iters: 6}
	const p, killAt, victim = 16, 3, 9

	// Fault-free reference.
	ref := rma.NewWorld(rma.Config{N: p, WindowWords: cfg.WindowWords()})
	ref.Run(func(r int) {
		fft.Init(ref.Proc(r), cfg)
		fft.Run(ref.Proc(r), cfg, 0, cfg.Iters)
	})
	want := fft.Gather(ref, cfg)
	fmt.Printf("fault-free run: %.2f GFlop/s (virtual)\n",
		cfg.TotalFlops(cfg.Iters)/ref.MaxTime()/1e9)

	// Fault-tolerant run.
	w := rma.NewWorld(rma.Config{N: p, WindowWords: cfg.WindowWords()})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 2, ChecksumsPerGroup: 1,
		Log: ftrma.LogConfig{Puts: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	w.Run(func(r int) {
		fft.Init(sys.Process(r), cfg)
		fft.Run(sys.Process(r), cfg, 0, killAt)
	})
	fmt.Printf("iteration %d reached; killing rank %d\n", killAt, victim)
	w.Kill(victim)

	res, err := sys.Recover(victim)
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	w.RunRank(victim, func() { fft.Recover(res.Proc, res.Logs, cfg) })
	fmt.Printf("rank %d recovered: %d accesses replayed, %d lost phases re-executed\n",
		victim, res.Logs.Len(), res.Logs.MaxGNC()+1)

	w.Run(func(r int) { fft.Run(sys.Process(r), cfg, killAt, cfg.Iters) })
	got := fft.Gather(w, cfg)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("spectrum differs at element %d: %v vs %v", i, got[i], want[i])
		}
	}
	fmt.Printf("recovered run:  %.2f GFlop/s (virtual), spectrum bit-identical to fault-free\n",
		cfg.TotalFlops(cfg.Iters)/w.MaxTime()/1e9)
	st := sys.Stats()
	fmt.Printf("protocol stats: %d puts logged, %d UC checkpoints, %d recoveries\n",
		st.PutsLogged, st.UCCheckpoints, st.Recoveries)
}
