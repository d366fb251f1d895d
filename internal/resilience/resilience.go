// Package resilience is the end-to-end driver tying the stack together: it
// runs a synthetic RMA workload under the full ftRMA protocol, injects
// fail-stop failures at a configurable MTBF (exponential inter-arrival
// times over virtual time, per the failure model of §7.1), performs the
// appropriate recovery after every crash — causal replay when the logs
// allow it, coordinated rollback when an N/M flag forbids it, stable
// storage as the last resort — and reports the achieved efficiency: useful
// fault-free work over total virtual time.
//
// This is the dynamic counterpart of the paper's static analyses: Daly's
// interval (§6.1) exists precisely to maximize this efficiency, and the
// simulation lets the choice be evaluated under actual failures.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

// Config describes one simulation.
type Config struct {
	// Ranks is the number of compute processes.
	Ranks int
	// Iters is the number of workload iterations (each an all-to-all put
	// exchange closed by a gsync).
	Iters int
	// MTBF is the system-wide mean time between injected failures in
	// virtual seconds. Zero disables failure injection.
	MTBF float64
	// Seed fixes the failure times and victims.
	Seed int64
	// FT is the protocol configuration. Log.Puts should be on for causal
	// recovery to ever succeed.
	FT ftrma.Config
}

// Report summarizes a simulation.
type Report struct {
	Iterations       int
	Failures         int
	CausalRecoveries int
	Fallbacks        int
	RedoneIterations int
	TotalTime        float64 // virtual makespan including recoveries
	IdealTime        float64 // fault-free makespan of the same workload
	Efficiency       float64 // IdealTime / TotalTime
	Verified         bool    // final state matches the fault-free run
}

// windowWords is the workload's per-rank window: one slot per peer.
func windowWords(ranks int) int { return ranks }

// step runs workload iteration it on one rank: every rank puts a value
// derived from (iteration, source) into every peer's window at the source's
// slot, then gsyncs. All window state is put-written, so causal replay
// recovers a failed rank completely.
func step(p rma.API, it int) {
	for q := 0; q < p.N(); q++ {
		p.PutValue(q, p.Rank(), uint64(1000*it+10*p.Rank()+7))
	}
	rma.Compute(p, 5e5) // some local work per iteration
	p.Gsync()
}

// Simulate runs the workload under failures and returns the report.
func Simulate(cfg Config) (Report, error) {
	if cfg.Ranks < 2 {
		return Report{}, errors.New("resilience: need at least 2 ranks")
	}
	if cfg.Iters < 1 {
		return Report{}, errors.New("resilience: need at least 1 iteration")
	}

	// Fault-free reference: final state and ideal makespan.
	ref := rma.NewWorld(rma.Config{N: cfg.Ranks, WindowWords: windowWords(cfg.Ranks)})
	ref.Run(func(r int) {
		for it := 0; it < cfg.Iters; it++ {
			step(ref.Proc(r), it)
		}
	})
	ideal := ref.MaxTime()

	w := rma.NewWorld(rma.Config{N: cfg.Ranks, WindowWords: windowWords(cfg.Ranks)})
	sys, err := ftrma.NewSystem(w, cfg.FT)
	if err != nil {
		return Report{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextFailure := failureTime(rng, cfg.MTBF, 0)

	rep := Report{Iterations: cfg.Iters, IdealTime: ideal}
	it := 0
	for it < cfg.Iters {
		cur := it
		w.Run(func(r int) { step(sys.Process(r), cur) })
		it++
		// Inject at iteration boundaries whose virtual time passed the
		// scheduled failure — but not after the final iteration: pure
		// replay restores remote contributions, and the next iteration's
		// re-execution regenerates the victim's own (its self-put logs
		// died with it, Fig. 3); after the last gsync there is no next
		// iteration, which is when an application-level Recover (as in
		// apps/fft) would re-execute instead.
		if cfg.MTBF > 0 && it < cfg.Iters && w.MaxTime() >= nextFailure {
			victim := rng.Intn(cfg.Ranks)
			w.Kill(victim)
			rep.Failures++
			res, err := sys.Recover(victim)
			switch {
			case err == nil:
				w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
				rep.CausalRecoveries++
			case errors.Is(err, ftrma.ErrFallback):
				rep.Fallbacks++
				// Every rank is back at the coordinated checkpoint; its
				// gsync counter tells which iteration to redo from (one
				// gsync per iteration; checkpoint rounds add none to GNC).
				resume := res.Proc.GNC()
				if resume > it {
					return rep, fmt.Errorf("resilience: rollback to the future (GNC %d > it %d)", resume, it)
				}
				rep.RedoneIterations += it - resume
				it = resume
			default:
				return rep, err
			}
			nextFailure = failureTime(rng, cfg.MTBF, w.MaxTime())
		}
	}
	rep.TotalTime = w.MaxTime()
	if rep.TotalTime > 0 {
		rep.Efficiency = ideal / rep.TotalTime
	}

	// Verify the final state against the fault-free reference.
	rep.Verified = true
	for r := 0; r < cfg.Ranks; r++ {
		a := ref.Proc(r).ReadAt(0, windowWords(cfg.Ranks))
		b := w.Proc(r).ReadAt(0, windowWords(cfg.Ranks))
		for i := range a {
			if a[i] != b[i] {
				rep.Verified = false
			}
		}
	}
	return rep, nil
}

// failureTime draws the next failure time after now.
func failureTime(rng *rand.Rand, mtbf, now float64) float64 {
	if mtbf <= 0 {
		return 1e308
	}
	return now + rng.ExpFloat64()*mtbf
}
