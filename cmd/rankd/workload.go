package main

import (
	"fmt"
	"time"

	"repro/internal/rma"
)

// workload is rankd's bulk-synchronous benchmark. Every rank runs Phases
// rounds of per-rank work, closing each round with a gsync (where the
// fabric folds its coordinated checkpoint).
//
// The workload is globally deterministic and conflict-free: every rank
// writes per-(rank, phase) disjoint blocks, so the final window contents
// are a pure function of the phases executed, independent of inter-rank
// timing. That is what makes the kill -9 smokes' bit-identical oracle
// comparison meaningful: a run that loses a rank mid-flight and recovers
// must converge to exactly the failure-free windows. No access combines
// and every get closes its epoch in the frame that issues it, so a kill
// leaves no N or M flag behind and recovery takes the paper's
// causal-replay path.
type workload struct {
	// Ranks is the number of compute processes.
	Ranks int
	// Phases is the number of bulk-synchronous rounds.
	Phases int
	// InsertsPerPhase is the number of put words per peer per rank per
	// round.
	InsertsPerPhase int
	// PhaseDelay is wall-clock think time per rank per round; the kill -9
	// smokes use it to stretch the run so a signal lands mid-flight. Zero
	// for full speed.
	PhaseDelay time.Duration
}

// validate rejects nonsensical workloads with descriptive errors.
func (wl workload) validate() error {
	if wl.Ranks < 2 {
		return fmt.Errorf("rankd: workload needs at least 2 ranks, got %d", wl.Ranks)
	}
	if wl.Phases < 1 {
		return fmt.Errorf("rankd: workload needs at least 1 phase, got %d", wl.Phases)
	}
	if wl.InsertsPerPhase < 1 {
		return fmt.Errorf("rankd: workload needs at least 1 insert per phase, got %d", wl.InsertsPerPhase)
	}
	if wl.PhaseDelay < 0 {
		return fmt.Errorf("rankd: negative phase delay %v", wl.PhaseDelay)
	}
	return nil
}

// windowWords is the per-rank window size: one InsertsPerPhase-word block
// per (source, phase), then one scratch word per phase (the replayable
// local landing zone of the per-phase get).
func (wl workload) windowWords() int { return wl.scratchOff(wl.Phases) }

// putOff is the window offset of source src's phase-p put block: the
// blocks are disjoint per (src, phase), making every put a write-once
// replacing access.
func (wl workload) putOff(src, phase int) int {
	return (src*wl.Phases + phase) * wl.InsertsPerPhase
}

// scratchOff is the window offset of the local phase-p get landing zone,
// past all put blocks. Each phase gets its own word so replayed gets
// (which re-deposit into the scratch slot) stay write-once too.
func (wl workload) scratchOff(phase int) int {
	return wl.putOff(wl.Ranks, 0) + phase
}

// putVal is the deterministic payload rank writes in phase p, word i.
// Rank, phase, and index occupy disjoint bit ranges so a misplaced word
// is self-describing in test failures.
func putVal(rank, phase, i int) uint64 {
	return uint64(rank+1)<<40 | uint64(phase+1)<<20 | uint64(i+1)
}

// runPhase is one rank's round p: disjoint replacing puts to every peer,
// a blocking verify of the previous round's own writes, and a copy-get
// landing in the local scratch word. Every get closes its epoch in the
// frame that issues it (GetBlocking, or GetCopy followed immediately by
// Flush), so a kill can never strand an in-flight get's N flag at the
// target. The caller closes the round with a gsync.
func (wl workload) runPhase(api rma.API, rank, phase int) error {
	data := make([]uint64, wl.InsertsPerPhase)
	for i := range data {
		data[i] = putVal(rank, phase, i)
	}
	for t := 0; t < wl.Ranks; t++ {
		if t != rank {
			api.Put(t, wl.putOff(rank, phase), data)
		}
	}
	peer := (rank + 1) % wl.Ranks
	if phase > 0 {
		got := api.GetBlocking(peer, wl.putOff(rank, phase-1), wl.InsertsPerPhase)
		for i, v := range got {
			if want := putVal(rank, phase-1, i); v != want {
				return fmt.Errorf("rankd: rank %d phase %d: readback word %d = %#x, want %#x", rank, phase, i, v, want)
			}
		}
	}
	// A get that lands inside the local window: its LG record carries a
	// local offset, so replay re-deposits it (§4.1 get logs).
	api.GetCopy(peer, wl.putOff(rank, phase), 1, wl.scratchOff(phase))
	api.Flush(peer)
	if wl.PhaseDelay > 0 {
		time.Sleep(wl.PhaseDelay)
	}
	return nil
}

// oracle runs the whole workload failure-free in-process (raw runtime, no
// FT layer — the protocol layers never alter window contents) and returns
// every rank's final window: the bit-exact reference a fabric run must
// reproduce, kill -9 or not.
func (wl workload) oracle() ([][]uint64, error) {
	if err := wl.validate(); err != nil {
		return nil, err
	}
	run := wl
	run.PhaseDelay = 0
	w := rma.NewWorld(rma.Config{N: wl.Ranks, WindowWords: wl.windowWords()})
	var firstErr error
	w.Run(func(r int) {
		p := w.Proc(r)
		for phase := 0; phase < wl.Phases; phase++ {
			if err := run.runPhase(p, r, phase); err != nil {
				firstErr = err
				return
			}
			p.Gsync()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([][]uint64, wl.Ranks)
	for r := range out {
		out[r] = w.Proc(r).ReadAt(0, wl.windowWords())
	}
	return out, nil
}
