package fabric

// The paper's applications on the fabric. stencil and fft are written
// against rma.API, which a *Node serves as it is: their barriers are the
// fabric's gsyncs (rma.Barrier), and their compute charges fall away
// (rma.Compute). A run must end in the windows the same application leaves
// on a no-FT rma.World, bit for bit, with and without a kill.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps/fft"
	"repro/internal/apps/stencil"
	"repro/internal/rma"
)

// appCase is one application as the fabric tests drive it. Init's two
// barriers are the phases 0 and 1, and iteration i opens phase
// 2 + i·perIter: a stencil iteration is one phase, an FFT iteration three
// (one per transpose).
type appCase struct {
	name    string
	words   int
	iters   int
	perIter int
	init    func(api rma.API)
	run     func(api rma.API, from, to int)
}

// killIter is the iteration whose first phase the victim dies in.
const killIter = 1

func appCases() []appCase {
	st := stencil.Config{Width: 16, RowsPerRank: 4, Iters: 6, K: 0.2}
	ff := fft.Config{N: 8, Q: 2, Iters: 3, Evolve: true, Alpha: 1e-4}
	return []appCase{{
		name: "stencil", words: st.WindowWords(), iters: st.Iters, perIter: 1,
		init: func(api rma.API) { stencil.Init(api, st) },
		run:  func(api rma.API, from, to int) { stencil.Run(api, st, from, to) },
	}, {
		name: "fft", words: ff.WindowWords(), iters: ff.Iters, perIter: 3,
		init: func(api rma.API) { fft.Init(api, ff) },
		run:  func(api rma.API, from, to int) { fft.Run(api, ff, from, to) },
	}}
}

// oracle runs the application on a 4-rank rma.World without fault
// tolerance and returns every rank's final window.
func (c appCase) oracle() [][]uint64 {
	const n = 4
	w := rma.NewWorld(rma.Config{N: n, WindowWords: c.words})
	w.Run(func(r int) {
		c.init(w.Proc(r))
		c.run(w.Proc(r), 0, c.iters)
	})
	out := make([][]uint64, n)
	for r := range out {
		out[r] = w.Proc(r).ReadAt(0, c.words)
	}
	return out
}

// errKilled unwinds the victim's application once the test has killed it.
var errKilled = errors.New("killed by the test")

// gated is the API an application runs on in a kill run: the node, except
// that its Gsync of phase `at` first closes every epoch — so this rank's
// puts of the phase are applied at their targets — and reports on reached.
// The victim's never closes them: it reports, waits for the kill and
// unwinds.
type gated struct {
	*Node
	at      int
	reached chan<- struct{}
	killed  <-chan struct{} // nil on a survivor
}

func (g gated) Gsync() {
	if g.Phase() == g.at {
		if g.killed != nil {
			g.reached <- struct{}{}
			<-g.killed
			panic(errKilled)
		}
		g.FlushAll()
		g.reached <- struct{}{}
	}
	g.Node.Gsync()
}

// runApp runs fn on its own goroutine and sends its outcome: nil, or the
// value a Gsync panicked with.
func runApp(errs chan<- error, fn func()) {
	go func() {
		var err error
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("%v", v)
				if e, ok := v.(error); ok {
					err = e
				}
			}
			errs <- err
		}()
		fn()
	}()
}

// TestAppsOnFabric runs the stencil and the FFT on four ranks in two parity
// groups, fault-free and with each rank killed in turn. The victim dies in
// the first phase of iteration killIter, after every survivor's puts of the
// phase are applied at it and before its own fold, so the install replays
// them; the replacement runs the application on from the iteration its
// Phase() opens. Every final window equals the no-FT world's, and every
// base and parity agree with the windows once a last gsync has folded the
// final puts.
func TestAppsOnFabric(t *testing.T) {
	const n = 4
	for _, c := range appCases() {
		want := c.oracle()
		killAt := 2 + killIter*c.perIter
		check := func(t *testing.T, f *testFabric) {
			t.Helper()
			for r, tn := range f.nodes {
				if got := tn.ReadAt(0, c.words); !slices.Equal(got, want[r]) {
					t.Errorf("rank %d: the final window differs from the no-FT world's", r)
				}
			}
			syncAll(t, f)
			checkCommitted(t, f, "after the run")
		}
		t.Run(c.name+"/fault-free", func(t *testing.T) {
			f := startTestFabricWords(t, newPipeNet(), n, 2, c.words, fastTuning)
			f.onlyKilledCondemned = true // nobody
			errs := make(chan error, n)
			for _, tn := range f.nodes {
				tn := tn
				runApp(errs, func() {
					c.init(tn.Node)
					c.run(tn.Node, 0, c.iters)
				})
			}
			for range f.nodes {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			check(t, f)
		})
		for victim := 0; victim < n; victim++ {
			t.Run(fmt.Sprintf("%s/victim%d", c.name, victim), func(t *testing.T) {
				f := startTestFabricWords(t, newPipeNet(), n, 2, c.words, fastTuning)
				f.onlyKilledCondemned = true // the victim alone
				errs, died := make(chan error, n), make(chan error, 1)
				reached, killed := make(chan struct{}, n), make(chan struct{})
				kill := sync.OnceFunc(func() { close(killed) })
				defer kill() // a failed run unwinds its victim too
				for r, tn := range f.nodes {
					g, out := gated{Node: tn.Node, at: killAt, reached: reached}, errs
					if r == victim {
						g.killed, out = killed, died
					}
					runApp(out, func() {
						c.init(g)
						c.run(g, 0, c.iters)
					})
				}
				for range f.nodes {
					select {
					case <-reached:
					case err := <-errs:
						t.Fatalf("a survivor ended before the kill: %v", err)
					}
				}
				repl := f.replace(t, victim)
				kill()
				if err := <-died; !errors.Is(err, errKilled) {
					t.Fatalf("the victim's application ended with %v, want the kill", err)
				}
				if got := repl.om.replayPuts.Load(); got == 0 {
					t.Fatal("the install replayed no put: the kill missed the phase's survivor puts")
				}
				phase := repl.Phase()
				if phase != killAt {
					t.Fatalf("the replacement resumes at phase %d, want %d", phase, killAt)
				}
				runApp(errs, func() { c.run(repl.Node, (phase-2)/c.perIter, c.iters) })
				for range f.nodes {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				check(t, f)
			})
		}
	}
}

// TestNodeServesTheNarrowAPI: a *Node is an rma.API and not an rma.FullAPI —
// atomics, locks, combining accumulates, the barrier and the virtual clock
// stay with the in-process runtime.
func TestNodeServesTheNarrowAPI(t *testing.T) {
	f := startTestFabric(t, newPipeNet(), 2, 1, fastTuning)
	var api rma.API = f.nodes[0].Node
	if _, ok := api.(rma.FullAPI); ok {
		t.Fatal("*Node satisfies rma.FullAPI")
	}
}

// TestGsyncPanicsWithTheSyncError: Gsync, Sync without an error return,
// panics with the error Sync returned, wrapped, so a recover can still test
// it with errors.Is.
func TestGsyncPanicsWithTheSyncError(t *testing.T) {
	f := startTestFabric(t, newPipeNet(), 2, 1, fastTuning)
	nd := f.nodes[0]
	nd.closeWithin(t, 0)
	defer func() {
		v := recover()
		if err, ok := v.(error); !ok || !errors.Is(err, ErrClosed) {
			t.Fatalf("Gsync on a closed node panicked with %#v, want an error wrapping ErrClosed", v)
		}
	}()
	nd.Gsync()
}
