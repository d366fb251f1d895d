// Quickstart: a minimal fault-tolerant RMA program.
//
// Eight ranks each publish a value into their right neighbour's window and
// read one back, under the full ftRMA protocol (put+get logging, XOR group
// checkpoints). One rank is then fail-stopped; the example recovers it
// causally — last uncoordinated checkpoint plus a replay of the logged
// accesses — and verifies its memory came back intact.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

func main() {
	const n = 8
	w := rma.NewWorld(rma.Config{N: n, WindowWords: 64})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups:            2, // two groups, one checksum process each
		ChecksumsPerGroup: 1,
		Log:               ftrma.LogConfig{Puts: true, Gets: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every rank puts its rank number into its right neighbour's window
	// and fetches the neighbour's cell back into its own window.
	w.Run(func(r int) {
		p := sys.Process(r)
		right := (r + 1) % n
		p.PutValue(right, 0, uint64(100+r))
		p.Flush(right)
		p.Gsync()
		p.GetCopy(right, 0, 1, 1)
		p.Flush(right)
	})

	victim := 3
	before := w.Proc(victim).ReadAt(0, 2)
	fmt.Printf("before failure: rank %d window[0]=%d window[1]=%d (virtual time %.2fus)\n",
		victim, before[0], before[1], w.MaxTime()*1e6)

	// Fail-stop the rank: its volatile memory is gone.
	w.Kill(victim)

	// Recover: fetch the reconstructed checkpoint, then replay the logged
	// puts (by the left neighbour) and gets (issued by the victim).
	res, err := sys.Recover(victim)
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })

	got := w.Proc(victim).ReadAt(0, 2)
	fmt.Printf("after recovery: rank %d window[0]=%d window[1]=%d (replayed %d accesses)\n",
		victim, got[0], got[1], res.Logs.Len())
	if got[0] != uint64(100+victim-1) || got[1] != uint64(100+victim) {
		log.Fatal("recovered state is wrong")
	}
	st := sys.Stats()
	fmt.Printf("protocol stats: %d puts logged, %d gets logged, %d recoveries\n",
		st.PutsLogged, st.GetsLogged, st.Recoveries)
	fmt.Println("OK: memory recovered exactly")
}
