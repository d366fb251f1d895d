package rma

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refModel is a sequential reference implementation of the RMA memory
// semantics: windows as plain slices, puts/gets buffered per (src, trg) and
// applied at epoch close, atomics immediate. Random programs executed
// rank-by-rank (deterministically scheduled) must produce identical memory
// on the concurrent runtime.
type refModel struct {
	n       int
	windows [][]uint64
	pending map[[2]int][]refOp
}

type refOp struct {
	isPut bool
	off   int
	data  []uint64
	dest  int // localOff for GetCopy
	op    ReduceOp
}

func newRefModel(n, words int) *refModel {
	m := &refModel{n: n, pending: map[[2]int][]refOp{}}
	m.windows = make([][]uint64, n)
	for i := range m.windows {
		m.windows[i] = make([]uint64, words)
	}
	return m
}

func (m *refModel) put(src, trg, off int, data []uint64, op ReduceOp) {
	d := append([]uint64(nil), data...)
	m.pending[[2]int{src, trg}] = append(m.pending[[2]int{src, trg}], refOp{isPut: true, off: off, data: d, op: op})
}

func (m *refModel) getCopy(src, trg, off, n, localOff int) {
	m.pending[[2]int{src, trg}] = append(m.pending[[2]int{src, trg}], refOp{off: off, data: make([]uint64, n), dest: localOff})
}

func (m *refModel) flush(src, trg int) {
	key := [2]int{src, trg}
	for _, o := range m.pending[key] {
		if o.isPut {
			for i, v := range o.data {
				m.windows[trg][o.off+i] = o.op.apply(m.windows[trg][o.off+i], v)
			}
		} else {
			copy(m.windows[src][o.dest:], m.windows[trg][o.off:o.off+len(o.data)])
		}
	}
	m.pending[key] = nil
}

func (m *refModel) fao(src, trg, off int, operand uint64, op ReduceOp) {
	m.windows[trg][off] = op.apply(m.windows[trg][off], operand)
	_ = src
}

func (m *refModel) flushAll(src int) {
	for trg := 0; trg < m.n; trg++ {
		m.flush(src, trg)
	}
}

// step is one instruction of a random program.
type step struct {
	kind    int // 0 put, 1 accumulate, 2 getCopy, 3 fao, 4 flush, 5 flushAll
	trg     int
	off     int
	n       int
	dest    int
	operand uint64
	op      ReduceOp
}

// genProgram builds a per-rank instruction list with valid offsets.
func genProgram(rng *rand.Rand, n, words, steps int) [][]step {
	progs := make([][]step, n)
	ops := []ReduceOp{OpReplace, OpSum, OpMax, OpMin, OpXor}
	for r := 0; r < n; r++ {
		for s := 0; s < steps; s++ {
			ln := 1 + rng.Intn(3)
			st := step{
				kind:    rng.Intn(6),
				trg:     rng.Intn(n),
				off:     rng.Intn(words - 4),
				n:       ln,
				dest:    rng.Intn(words - 4),
				operand: rng.Uint64() % 100,
				op:      ops[rng.Intn(len(ops))],
			}
			progs[r] = append(progs[r], st)
		}
	}
	return progs
}

// TestRuntimeMatchesReferenceModel executes random programs twice — on the
// concurrent runtime with a deterministic round-robin schedule (one rank
// acts per turn, enforced by running ranks one Run at a time) and on the
// sequential reference model — and compares all windows. Gsyncs between
// turns remove scheduling freedom, so results must be identical.
func TestRuntimeMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, words, turns = 3, 16, 12
		progs := genProgram(rng, n, words, turns)

		w := newTestWorld(n, words)
		ref := newRefModel(n, words)
		payload := func(st step, turn, r int) []uint64 {
			out := make([]uint64, st.n)
			for i := range out {
				out[i] = st.operand + uint64(1000*turn+100*r+i)
			}
			return out
		}
		for turn := 0; turn < turns; turn++ {
			// One rank at a time: fully deterministic interleaving.
			for r := 0; r < n; r++ {
				st := progs[r][turn]
				rr := r
				w.RunRank(rr, func() {
					p := w.Proc(rr)
					switch st.kind {
					case 0:
						p.Put(st.trg, st.off, payload(st, turn, rr))
						p.Flush(st.trg)
					case 1:
						p.Accumulate(st.trg, st.off, payload(st, turn, rr), st.op)
						p.Flush(st.trg)
					case 2:
						if st.trg != rr {
							p.GetCopy(st.trg, st.off, st.n, st.dest)
							p.Flush(st.trg)
						}
					case 3:
						p.FetchAndOp(st.trg, st.off, st.operand, st.op)
					case 4:
						p.Flush(st.trg)
					case 5:
						p.FlushAll()
					}
				})
				// Mirror on the reference model.
				switch st.kind {
				case 0:
					ref.put(r, st.trg, st.off, payload(st, turn, r), OpReplace)
					ref.flush(r, st.trg)
				case 1:
					ref.put(r, st.trg, st.off, payload(st, turn, r), st.op)
					ref.flush(r, st.trg)
				case 2:
					if st.trg != r {
						ref.getCopy(r, st.trg, st.off, st.n, st.dest)
						ref.flush(r, st.trg)
					}
				case 3:
					ref.fao(r, st.trg, st.off, st.operand, st.op)
				case 4:
					ref.flush(r, st.trg)
				case 5:
					ref.flushAll(r)
				}
			}
		}
		for r := 0; r < n; r++ {
			got := w.Proc(r).ReadAt(0, w.Proc(r).WindowWords())
			want := ref.windows[r]
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed %d rank %d cell %d: got %d want %d", seed, r, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
