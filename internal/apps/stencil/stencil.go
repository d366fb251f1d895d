// Package stencil implements a 2D heat-diffusion kernel with a 1D row
// decomposition: every iteration each rank updates its interior rows and
// exchanges halo rows with its neighbours via non-blocking puts closed by a
// gsync. It is the third workload of this reproduction (a structured
// near-neighbour pattern complementing the FFT's all-to-all and the
// key-value store's atomics) and demonstrates the app-assisted causal
// recovery pattern on a stencil code.
package stencil

import (
	"fmt"
	"math"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

// Config describes a stencil instance.
type Config struct {
	// Width is the number of columns of the global grid.
	Width int
	// RowsPerRank is the number of interior rows each rank owns.
	RowsPerRank int
	// Iters is the number of diffusion steps.
	Iters int
	// K is the diffusion coefficient (stability requires K <= 0.25).
	K float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 3 {
		return fmt.Errorf("stencil: width %d too small", c.Width)
	}
	if c.RowsPerRank < 1 {
		return fmt.Errorf("stencil: rows per rank = %d", c.RowsPerRank)
	}
	if c.K <= 0 || c.K > 0.25 {
		return fmt.Errorf("stencil: unstable diffusion coefficient %g", c.K)
	}
	return nil
}

// bufWords returns the size of one buffer: interior rows plus two halo
// rows.
func (c Config) bufWords() int { return (c.RowsPerRank + 2) * c.Width }

// WindowWords returns the window size: two buffers (double buffering).
func (c Config) WindowWords() int { return 2 * c.bufWords() }

// rowOff returns the window offset of row i (0 = top halo,
// RowsPerRank+1 = bottom halo) of buffer b.
func (c Config) rowOff(b, i int) int { return b*c.bufWords() + i*c.Width }

// InitialValue is the deterministic initial temperature at a global cell.
func InitialValue(row, col int) float64 {
	return 50 + 40*math.Sin(float64(row)*0.31)*math.Cos(float64(col)*0.17)
}

// Checkpointer is implemented by FT layers with explicit UC checkpoints.
type Checkpointer interface{ UCCheckpoint() }

// Init fills buffer 0 — interior and halos — with the initial field. Halos
// are computable locally because the initial condition is a closed form; no
// communication is needed. The field is staged in private memory and
// stored through WriteAt. When supported, an uncoordinated checkpoint makes the initial state
// recoverable.
func Init(api rma.API, cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	win := make([]uint64, cfg.WindowWords())
	rank := api.Rank()
	for i := 0; i <= cfg.RowsPerRank+1; i++ {
		globalRow := rank*cfg.RowsPerRank + i - 1
		for j := 0; j < cfg.Width; j++ {
			v := 0.0
			if globalRow >= 0 && globalRow < api.N()*cfg.RowsPerRank {
				v = InitialValue(globalRow, j)
			}
			win[cfg.rowOff(0, i)+j] = math.Float64bits(v)
			win[cfg.rowOff(1, i)+j] = 0
		}
	}
	api.WriteAt(0, win)
	rma.Barrier(api)
	if ck, ok := api.(Checkpointer); ok {
		ck.UCCheckpoint()
	}
	rma.Barrier(api)
}

// computePhase updates the interior of buffer (it+1)%2 from buffer it%2.
// Pure local work, shared by Run and Recover.
func computePhase(win []uint64, cfg Config, it int) {
	cur, next := it%2, (it+1)%2
	w := cfg.Width
	get := func(b, i, j int) float64 { return math.Float64frombits(win[cfg.rowOff(b, i)+j]) }
	put := func(b, i, j int, v float64) { win[cfg.rowOff(b, i)+j] = math.Float64bits(v) }
	for i := 1; i <= cfg.RowsPerRank; i++ {
		put(next, i, 0, get(cur, i, 0))
		put(next, i, w-1, get(cur, i, w-1))
		for j := 1; j < w-1; j++ {
			c := get(cur, i, j)
			v := c + cfg.K*(get(cur, i-1, j)+get(cur, i+1, j)+get(cur, i, j-1)+get(cur, i, j+1)-4*c)
			put(next, i, j, v)
		}
	}
}

// Run executes iterations [from, to): compute the next buffer, push halo
// rows to the neighbours with non-blocking puts, and close the phase with a
// gsync (one gsync per iteration, so GNC equals the iteration index).
//
// Each iteration reads the window into a private snapshot, computes the
// next buffer there, and stores the updated interior back through WriteAt,
// which stamps it for the next incremental checkpoint.
func Run(api rma.API, cfg Config, from, to int) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rank, n := api.Rank(), api.N()
	w := cfg.Width
	win := make([]uint64, cfg.WindowWords())
	for it := from; it < to; it++ {
		rma.ReadWindow(api, win)
		computePhase(win, cfg, it)
		rma.Compute(api, float64(cfg.RowsPerRank*(w-2))*7) // 7 flops per cell
		next := (it + 1) % 2
		api.WriteAt(cfg.rowOff(next, 1),
			win[cfg.rowOff(next, 1):cfg.rowOff(next, cfg.RowsPerRank+1)])
		if rank > 0 {
			api.Put(rank-1, cfg.rowOff(next, cfg.RowsPerRank+1),
				win[cfg.rowOff(next, 1):cfg.rowOff(next, 1)+w])
		}
		if rank < n-1 {
			api.Put(rank+1, cfg.rowOff(next, 0),
				win[cfg.rowOff(next, cfg.RowsPerRank):cfg.rowOff(next, cfg.RowsPerRank)+w])
		}
		api.Gsync()
	}
}

// Recover re-executes a causally recovered rank's lost iterations: the
// ftRMA layer restored the last checkpoint; each lost phase recomputes the
// rank's interior (deterministic local work) and replays the neighbours'
// halo puts from the logs (their own source-side copies of this rank's
// outgoing halos are already applied at the survivors).
func Recover(p *ftrma.Process, logs *ftrma.ReplayLogs, cfg Config) {
	maxG := logs.MaxGNC()
	win := make([]uint64, cfg.WindowWords())
	for it := p.GNC(); it <= maxG; it++ {
		// Same read/compute/write cycle as Run, so the
		// recovered rank's window evolves bit-identically to the normal
		// path; the neighbours' halo puts arrive from the logs instead of
		// the wire.
		rma.ReadWindow(p, win)
		computePhase(win, cfg, it)
		next := (it + 1) % 2
		p.WriteAt(cfg.rowOff(next, 1),
			win[cfg.rowOff(next, 1):cfg.rowOff(next, cfg.RowsPerRank+1)])
		p.ReplayPhase(logs, it)
	}
}

// Gather assembles the global grid (interior rows only) from buffer
// iters%2 of every rank.
func Gather(w interface{ Proc(int) *rma.Proc }, cfg Config, n, iters int) []float64 {
	b := iters % 2
	out := make([]float64, n*cfg.RowsPerRank*cfg.Width)
	for r := 0; r < n; r++ {
		win := w.Proc(r).ReadAt(0, cfg.WindowWords())
		for i := 1; i <= cfg.RowsPerRank; i++ {
			globalRow := r*cfg.RowsPerRank + i - 1
			for j := 0; j < cfg.Width; j++ {
				out[globalRow*cfg.Width+j] = math.Float64frombits(win[cfg.rowOff(b, i)+j])
			}
		}
	}
	return out
}

// SerialReference computes the same diffusion serially for verification.
func SerialReference(cfg Config, n, iters int) []float64 {
	rows := n * cfg.RowsPerRank
	w := cfg.Width
	cur := make([]float64, rows*w)
	next := make([]float64, rows*w)
	for i := 0; i < rows; i++ {
		for j := 0; j < w; j++ {
			cur[i*w+j] = InitialValue(i, j)
		}
	}
	at := func(g []float64, i, j int) float64 {
		if i < 0 || i >= rows {
			return 0
		}
		return g[i*w+j]
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < rows; i++ {
			next[i*w] = cur[i*w]
			next[i*w+w-1] = cur[i*w+w-1]
			for j := 1; j < w-1; j++ {
				c := cur[i*w+j]
				next[i*w+j] = c + cfg.K*(at(cur, i-1, j)+at(cur, i+1, j)+cur[i*w+j-1]+cur[i*w+j+1]-4*c)
			}
		}
		cur, next = next, cur
	}
	return cur
}
