// Package soak is the one-box scale-out soak harness: it launches a
// 64–256-rank symmetric fabric in-process (real sockets over tcp, real
// mmap rings over shm, or a mix through the Dialer seam), drives a long
// mixed stencil/FFT/kvstore workload under seeded chaos — flaky
// transport faults plus single, multi, and correlated kill schedules
// drawn from internal/failure — and emits a SPEChpc-style per-section
// report (throughput, quiet-vs-crisis tail latency, per-stage recovery
// time, checkpoint overhead, bytes on wire per op) from the ranks' obs
// registries. Every survivable run is judged bit-identical against an
// in-process oracle; unsurvivable schedules must fail cleanly, never
// hang. TestSoak runs the short 64-rank leg in `go test ./...`; `make
// soak` runs the full matrix. docs/SOAK.md describes how to read the
// output.
package soak

import (
	"fmt"
	"time"

	"repro/internal/rma"
)

// Workload is the mixed soak workload: phases cycle stencil → FFT → kv,
// all in the conflict-free causal shape (per-(source, phase) disjoint
// replacing puts, a blocking verify of the previous phase's own writes,
// and a copy-get landing in a per-phase scratch word) so the identical
// access sequence drives the fabric and the raw in-process oracle to
// bit-identical windows, and any think-time kill is recoverable by
// causal replay. Only the *communication pattern* varies by phase kind:
// ring-neighbor halo exchange (stencil), butterfly partners (FFT), and
// hashed owners (kv). It is the one fabric workload: the soak, rankd and
// transport's fabric conformance suite all run it and judge it by Check.
type Workload struct {
	Ranks   int
	Phases  int
	Inserts int // words per (source, phase) block
	// PhaseDelay is per-phase think time; chaos events land inside it.
	PhaseDelay time.Duration
	// Seed drives the kv phases' owner hashing.
	Seed int64
}

// Validate checks the workload shape. The bounds are the widest any
// caller runs: rankd's two-rank, one-phase runs included.
func (w Workload) Validate() error {
	switch {
	case w.Ranks < 2:
		return fmt.Errorf("soak: workload needs at least 2 ranks, got %d", w.Ranks)
	case w.Phases < 1:
		return fmt.Errorf("soak: workload needs at least 1 phase, got %d", w.Phases)
	case w.Inserts < 1:
		return fmt.Errorf("soak: workload needs at least 1 insert per phase, got %d", w.Inserts)
	case w.PhaseDelay < 0:
		return fmt.Errorf("soak: negative phase delay %v", w.PhaseDelay)
	}
	return nil
}

// WindowWords is each rank's window size: one block per (source, phase)
// plus one scratch word per phase for the copy-get landings.
func (w Workload) WindowWords() int { return w.Ranks*w.Phases*w.Inserts + w.Phases }

func (w Workload) off(src, phase int) int { return (src*w.Phases + phase) * w.Inserts }

func (w Workload) scratch(phase int) int { return w.Ranks*w.Phases*w.Inserts + phase }

func (w Workload) val(rank, phase, i int) uint64 {
	return uint64(rank+1)<<40 | uint64(phase+1)<<20 | uint64(i+1)
}

// PhaseKind names the communication pattern of a phase.
type PhaseKind int

const (
	KindStencil PhaseKind = iota
	KindFFT
	KindKV
)

func (k PhaseKind) String() string {
	switch k {
	case KindStencil:
		return "stencil"
	case KindFFT:
		return "fft"
	case KindKV:
		return "kv"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kind returns the pattern phase p runs.
func (w Workload) Kind(p int) PhaseKind { return PhaseKind(p % 3) }

// splitmix is the kv phases' owner hash: deterministic, seed-salted,
// well-mixed (the splitmix64 finalizer).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Targets returns the distinct peers rank writes to in phase p, in issue
// order. Never empty, never containing rank itself.
func (w Workload) Targets(rank, p int) []int {
	n := w.Ranks
	var raw []int
	switch w.Kind(p) {
	case KindStencil:
		// Ring halo exchange: both neighbors.
		raw = []int{(rank + n - 1) % n, (rank + 1) % n}
	case KindFFT:
		// Butterfly: partner at a stride that doubles every FFT phase.
		bit := 1 << uint((p/3)%6)
		partner := rank ^ bit
		if partner >= n {
			partner = (rank + bit) % n
		}
		raw = []int{partner}
	case KindKV:
		// Two hashed owners, as a kvstore writing replicated entries.
		h := splitmix(uint64(w.Seed)<<32 ^ uint64(rank)<<16 ^ uint64(p))
		raw = []int{int(h % uint64(n)), int((h >> 32) % uint64(n))}
	}
	out := raw[:0]
	seen := map[int]bool{rank: true}
	for _, t := range raw {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = append(out, (rank+1)%n)
	}
	return out
}

// RunPhase issues phase p of the workload for the calling rank on api and
// returns the number of RMA operations issued: replacing puts of this
// rank's (rank, p) block to every target, a blocking readback of the
// previous phase's own writes from that phase's first target, and a
// copy-get of this phase's block landing in the per-phase scratch word,
// flushed towards the get's target. Every get closes its epoch in the
// frame that issues it, so a kill leaves no N flag behind. The caller
// closes the epoch (Sync/Gsync) afterwards; PhaseDelay is the caller's
// to spend.
func (w Workload) RunPhase(api rma.API, p int) (int, error) {
	rank := api.Rank()
	data := make([]uint64, w.Inserts)
	for i := range data {
		data[i] = w.val(rank, p, i)
	}
	targets := w.Targets(rank, p)
	ops := 0
	for _, t := range targets {
		api.Put(t, w.off(rank, p), data)
		ops++
	}
	if p > 0 {
		prev := w.Targets(rank, p-1)[0]
		got := api.GetBlocking(prev, w.off(rank, p-1), w.Inserts)
		ops++
		for i, v := range got {
			if want := w.val(rank, p-1, i); v != want {
				return ops, fmt.Errorf("soak: rank %d phase %d (%v) readback word %d = %#x, want %#x",
					rank, p, w.Kind(p), i, v, want)
			}
		}
	}
	api.GetCopy(targets[0], w.off(rank, p), 1, w.scratch(p))
	ops++
	api.Flush(targets[0])
	ops++
	return ops, nil
}

// ExpectedOps is the deterministic total operation count of a complete
// run: every (rank, phase) is issued exactly once — a victim killed at a
// phase top never issues that phase, its replacement issues it instead —
// so the count is independent of transport, schedule, and timing. The
// bench gate pins it.
func (w Workload) ExpectedOps() int {
	total := 0
	for r := 0; r < w.Ranks; r++ {
		for p := 0; p < w.Phases; p++ {
			total += len(w.Targets(r, p)) + 2
			if p > 0 {
				total++
			}
		}
	}
	return total
}

// Oracle runs the workload failure-free on the raw in-process runtime
// and returns every rank's final window — the bit-identity reference.
func (w Workload) Oracle() ([][]uint64, error) {
	world := rma.NewWorld(rma.Config{N: w.Ranks, WindowWords: w.WindowWords()})
	defer world.Close()
	errs := make(chan error, w.Ranks)
	world.Run(func(r int) {
		p := world.Proc(r)
		for phase := 0; phase < w.Phases; phase++ {
			if _, err := w.RunPhase(p, phase); err != nil {
				errs <- err
				return
			}
			p.Gsync()
		}
	})
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	out := make([][]uint64, w.Ranks)
	for r := range out {
		out[r] = world.Proc(r).ReadAt(0, w.WindowWords())
	}
	return out, nil
}

// Check runs the Oracle and compares got, every rank's final window in
// rank order, against it word for word. The error names the first rank
// and word that differ.
func (w Workload) Check(got [][]uint64) error {
	want, err := w.Oracle()
	if err != nil {
		return fmt.Errorf("soak: oracle: %w", err)
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("soak: rank %d window has %d words, want %d", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				return fmt.Errorf("soak: rank %d word %d: got %#x, oracle %#x", r, i, got[r][i], want[r][i])
			}
		}
	}
	return nil
}
