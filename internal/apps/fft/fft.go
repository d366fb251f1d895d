package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/rma"
)

// Config describes a distributed 3D FFT instance.
type Config struct {
	// N is the cube edge; the grid is N^3 complex values. Must be a power
	// of two.
	N int
	// Q is the process-grid edge: P = Q*Q ranks, rank = r*Q + c. N must
	// be divisible by Q.
	Q int
	// Iters is the number of iterations (each is one full forward 3D FFT
	// with its three all-to-all transposes).
	Iters int
	// Evolve applies the NAS FT evolution factor in spectral space each
	// iteration.
	Evolve bool
	// Alpha is the evolution diffusion constant.
	Alpha float64
}

// Validate checks the configuration for p ranks.
func (c Config) Validate(p int) error {
	if c.Q*c.Q != p {
		return fmt.Errorf("fft: %d ranks is not the square of Q=%d", p, c.Q)
	}
	if c.N <= 0 || c.N&(c.N-1) != 0 {
		return fmt.Errorf("fft: N=%d is not a power of two", c.N)
	}
	if c.N%c.Q != 0 {
		return fmt.Errorf("fft: N=%d not divisible by Q=%d", c.N, c.Q)
	}
	if c.N/c.Q < 1 {
		return fmt.Errorf("fft: empty pencils")
	}
	return nil
}

// nl returns the pencil edge N/Q.
func (c Config) nl() int { return c.N / c.Q }

// blockWords returns the size of one source block in window words
// (complex128 = 2 words).
func (c Config) blockWords() int { nl := c.nl(); return 2 * nl * nl * nl }

// regionWords returns the size of one stage region (Q source blocks).
func (c Config) regionWords() int { return c.Q * c.blockWords() }

// Stage region offsets within the window.
func (c Config) offA() int { return 0 }
func (c Config) offB() int { return c.regionWords() }
func (c Config) offC() int { return 2 * c.regionWords() }

// WindowWords returns the per-rank window size the benchmark needs.
func (c Config) WindowWords() int { return 3 * c.regionWords() }

// TotalFlops returns the flop count of the given number of iterations
// (3 dimensions x N^2 lines x 5 N log2 N).
func (c Config) TotalFlops(iters int) float64 {
	return float64(iters) * 3 * float64(c.N) * float64(c.N) * FlopsPerLine(c.N)
}

// Checkpointer is implemented by FT layers (ftrma) that support explicit
// uncoordinated checkpoints; the benchmark checkpoints once after
// initialization so the initial state is recoverable.
type Checkpointer interface{ UCCheckpoint() }

// InitialValue is the deterministic pseudo-random initial field, defined
// globally so every decomposition (and the serial reference) agrees.
func InitialValue(x, y, z, n int) complex128 {
	// A cheap splitmix-style hash of the coordinates.
	h := uint64(x) + uint64(y)*uint64(n) + uint64(z)*uint64(n)*uint64(n)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	re := float64(h&0xffff)/65536.0 - 0.5
	im := float64((h>>16)&0xffff)/65536.0 - 0.5
	return complex(re, im)
}

// word/complex conversions.

func putComplex(w []uint64, off int, v complex128) {
	w[off] = math.Float64bits(real(v))
	w[off+1] = math.Float64bits(imag(v))
}

func getComplex(w []uint64, off int) complex128 {
	return complex(math.Float64frombits(w[off]), math.Float64frombits(w[off+1]))
}

// Block element offsets (relative to the window), per stage layout:
// A block rs: (zl, yl, xl), x fastest — gathered into x lines.
// B block rs: (zl, xl, yl), y fastest — gathered into y lines.
// C block cs: (yl, xl, zl), z fastest — gathered into z lines.

func (c Config) idxA(rs, zl, yl, xl int) int {
	nl := c.nl()
	return c.offA() + rs*c.blockWords() + 2*((zl*nl+yl)*nl+xl)
}

func (c Config) idxB(rs, zl, xl, yl int) int {
	nl := c.nl()
	return c.offB() + rs*c.blockWords() + 2*((zl*nl+xl)*nl+yl)
}

func (c Config) idxC(cs, yl, xl, zl int) int {
	nl := c.nl()
	return c.offC() + cs*c.blockWords() + 2*((yl*nl+xl)*nl+zl)
}

// Init fills the rank's stage-A region with the initial field and, when the
// FT layer supports it, takes an uncoordinated checkpoint so the state is
// recoverable from time zero.
func Init(api rma.API, cfg Config) {
	rank := api.Rank()
	r, cc := rank/cfg.Q, rank%cfg.Q
	nl := cfg.nl()
	// Stage the initial field privately and store it through WriteAt.
	win := make([]uint64, cfg.WindowWords())
	for rs := 0; rs < cfg.Q; rs++ {
		for zl := 0; zl < nl; zl++ {
			for yl := 0; yl < nl; yl++ {
				for xl := 0; xl < nl; xl++ {
					v := InitialValue(rs*nl+xl, r*nl+yl, cc*nl+zl, cfg.N)
					putComplex(win, cfg.idxA(rs, zl, yl, xl), v)
				}
			}
		}
	}
	api.WriteAt(0, win)
	rma.Barrier(api)
	if ck, ok := api.(Checkpointer); ok {
		ck.UCCheckpoint()
	}
	rma.Barrier(api)
}

// Run executes iterations [from, to): each is a full forward 3D FFT whose
// three transposes are non-blocking puts closed by gsyncs. Use from=0,
// to=cfg.Iters for a whole run; recovery tests resume mid-way.
func Run(api rma.API, cfg Config, from, to int) {
	if err := cfg.Validate(api.N()); err != nil {
		panic(err)
	}
	for it := from; it < to; it++ {
		iteration(api, cfg, it)
	}
}

// fftX transforms every x line of the stage-A region in place.
func fftX(win []uint64, cfg Config, line []complex128) {
	nl := cfg.nl()
	for zl := 0; zl < nl; zl++ {
		for yl := 0; yl < nl; yl++ {
			for rs := 0; rs < cfg.Q; rs++ {
				for xl := 0; xl < nl; xl++ {
					line[rs*nl+xl] = getComplex(win, cfg.idxA(rs, zl, yl, xl))
				}
			}
			FFT1D(line, false)
			for rs := 0; rs < cfg.Q; rs++ {
				for xl := 0; xl < nl; xl++ {
					putComplex(win, cfg.idxA(rs, zl, yl, xl), line[rs*nl+xl])
				}
			}
		}
	}
}

// packA relayouts stage-A block rd into the wire format of a stage-B block.
func packA(win []uint64, cfg Config, rd int, buf []uint64) {
	nl := cfg.nl()
	for zl := 0; zl < nl; zl++ {
		for yl := 0; yl < nl; yl++ {
			for xl := 0; xl < nl; xl++ {
				src := cfg.idxA(rd, zl, yl, xl)
				dst := 2 * ((zl*nl+xl)*nl + yl)
				buf[dst] = win[src]
				buf[dst+1] = win[src+1]
			}
		}
	}
}

// fftY transforms every y line of the stage-B region in place.
func fftY(win []uint64, cfg Config, line []complex128) {
	nl := cfg.nl()
	for zl := 0; zl < nl; zl++ {
		for xl := 0; xl < nl; xl++ {
			for rs := 0; rs < cfg.Q; rs++ {
				for yl := 0; yl < nl; yl++ {
					line[rs*nl+yl] = getComplex(win, cfg.idxB(rs, zl, xl, yl))
				}
			}
			FFT1D(line, false)
			for rs := 0; rs < cfg.Q; rs++ {
				for yl := 0; yl < nl; yl++ {
					putComplex(win, cfg.idxB(rs, zl, xl, yl), line[rs*nl+yl])
				}
			}
		}
	}
}

// packB relayouts stage-B block cd into the wire format of a stage-C block.
func packB(win []uint64, cfg Config, cd int, buf []uint64) {
	nl := cfg.nl()
	for zl := 0; zl < nl; zl++ {
		for xl := 0; xl < nl; xl++ {
			for yl := 0; yl < nl; yl++ {
				src := cfg.idxB(cd, zl, xl, yl)
				dst := 2 * ((yl*nl+xl)*nl + zl)
				buf[dst] = win[src]
				buf[dst+1] = win[src+1]
			}
		}
	}
}

// fftZ transforms every z line of the stage-C region in place and applies
// the evolution factor.
func fftZ(win []uint64, cfg Config, line []complex128, r, cc, it int) {
	nl := cfg.nl()
	for yl := 0; yl < nl; yl++ {
		for xl := 0; xl < nl; xl++ {
			for cs := 0; cs < cfg.Q; cs++ {
				for zl := 0; zl < nl; zl++ {
					line[cs*nl+zl] = getComplex(win, cfg.idxC(cs, yl, xl, zl))
				}
			}
			FFT1D(line, false)
			if cfg.Evolve {
				kx := r*nl + xl
				ky := cc*nl + yl
				for z := 0; z < cfg.N; z++ {
					k2 := float64(kx*kx + ky*ky + z*z)
					line[z] *= cmplx.Exp(complex(0, -cfg.Alpha*k2*float64(it+1)))
				}
			}
			for cs := 0; cs < cfg.Q; cs++ {
				for zl := 0; zl < nl; zl++ {
					putComplex(win, cfg.idxC(cs, yl, xl, zl), line[cs*nl+zl])
				}
			}
		}
	}
}

// packC relayouts stage-C block cd into the wire format of a stage-A block.
func packC(win []uint64, cfg Config, cd int, buf []uint64) {
	nl := cfg.nl()
	for yl := 0; yl < nl; yl++ {
		for xl := 0; xl < nl; xl++ {
			for zl := 0; zl < nl; zl++ {
				src := cfg.idxC(cd, yl, xl, zl)
				dst := 2 * ((zl*nl+yl)*nl + xl)
				buf[dst] = win[src]
				buf[dst+1] = win[src+1]
			}
		}
	}
}

// iteration performs one forward 3D FFT: three local transform phases, each
// followed by an all-to-all transpose of non-blocking puts closed by a
// gsync.
func iteration(api rma.API, cfg Config, it int) {
	rank := api.Rank()
	r, cc := rank/cfg.Q, rank%cfg.Q
	line := make([]complex128, cfg.N)
	buf := make([]uint64, cfg.blockWords())
	nl := cfg.nl()
	lineFlops := FlopsPerLine(cfg.N)
	// Pack cost: every byte of the block is touched once; charged at the
	// machine's byte-per-flop ratio through Compute.
	packFlops := float64(8 * cfg.blockWords() / 2)

	// Each phase reads the window into a reused private snapshot; the
	// transposed blocks reach the windows only as runtime puts (every
	// stage region is fully rewritten by its transpose, self-block
	// included).
	win := make([]uint64, cfg.WindowWords())

	// Phase 1: FFT along x, transpose A -> B within the process row.
	rma.ReadWindow(api, win)
	fftX(win, cfg, line)
	rma.Compute(api, float64(nl*nl)*lineFlops)
	for rd := 0; rd < cfg.Q; rd++ {
		packA(win, cfg, rd, buf)
		api.Put(rd*cfg.Q+cc, cfg.offB()+r*cfg.blockWords(), buf)
		rma.Compute(api, packFlops)
	}
	api.Gsync()

	// Phase 2: FFT along y, transpose B -> C within the process column.
	rma.ReadWindow(api, win) // fresh stage B from the gsync
	fftY(win, cfg, line)
	rma.Compute(api, float64(nl*nl)*lineFlops)
	for cd := 0; cd < cfg.Q; cd++ {
		packB(win, cfg, cd, buf)
		api.Put(r*cfg.Q+cd, cfg.offC()+cc*cfg.blockWords(), buf)
		rma.Compute(api, packFlops)
	}
	api.Gsync()

	// Phase 3: FFT along z (+ evolution), transpose C -> A. The y chunk
	// this rank owns in stage C is its column index, so the destinations
	// form process row c.
	rma.ReadWindow(api, win) // fresh stage C from the gsync
	fftZ(win, cfg, line, r, cc, it)
	rma.Compute(api, float64(nl*nl)*lineFlops)
	for cd := 0; cd < cfg.Q; cd++ {
		packC(win, cfg, cd, buf)
		api.Put(cc*cfg.Q+cd, cfg.offA()+r*cfg.blockWords(), buf)
		rma.Compute(api, packFlops)
	}
	api.Gsync()
}

// windowReader exposes the two ways tests read windows: a live world or a
// plain slice table.
type windowReader interface {
	Proc(r int) *rma.Proc
}

// Gather assembles the full cube from the stage-A regions of every rank
// (the layout element (x,y,z) occupies after a completed iteration, which
// equals the initial layout). Test/verification helper.
func Gather(w windowReader, cfg Config) []complex128 {
	n := cfg.N
	nl := cfg.nl()
	cube := make([]complex128, n*n*n)
	for r := 0; r < cfg.Q; r++ {
		for cc := 0; cc < cfg.Q; cc++ {
			win := w.Proc(r*cfg.Q+cc).ReadAt(0, cfg.WindowWords())
			for rs := 0; rs < cfg.Q; rs++ {
				for zl := 0; zl < nl; zl++ {
					for yl := 0; yl < nl; yl++ {
						for xl := 0; xl < nl; xl++ {
							x := rs*nl + xl
							y := r*nl + yl
							z := cc*nl + zl
							cube[(z*n+y)*n+x] = getComplex(win, cfg.idxA(rs, zl, yl, xl))
						}
					}
				}
			}
		}
	}
	return cube
}
