package rma_test

import (
	"fmt"

	"repro/internal/rma"
)

// ExampleNewWorld shows the core RMA cycle: non-blocking puts buffer in
// the source's epoch towards the target and become visible when the
// epoch closes (Flush), exactly like MPI-3 RMA passive-target epochs.
func ExampleNewWorld() {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 8})
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 0 {
			p.Put(1, 0, []uint64{42})
			p.Flush(1) // close the epoch: the put is now applied
		}
		p.Barrier()
		if r == 1 {
			// ReadAt returns a private copy of local window words.
			fmt.Println(p.ReadAt(0, 1)[0])
		}
	})
	// Output: 42
}

// ExampleProc_GetBlocking shows the blocking read path and a fetch-and-op
// atomic. Atomics execute immediately (no epoch), like MPI_Fetch_and_op.
func ExampleProc_GetBlocking() {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 4})
	w.Run(func(r int) {
		p := w.Proc(r)
		if r == 0 {
			p.FetchAndOp(1, 0, 5, rma.OpSum) // target word += 5, returns old
			fmt.Println(p.GetBlocking(1, 0, 1)[0])
		}
	})
	// Output: 5
}
