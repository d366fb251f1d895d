package ftrma_test

import (
	"fmt"

	"repro/internal/ftrma"
	"repro/internal/rma"
)

// ExampleNewSystem wraps a world in the fault-tolerance protocol and runs
// a causal recovery: rank 1 is killed, its last uncoordinated checkpoint
// is reconstructed from the group parity and the survivor's copy, the
// logs about it are fetched from the survivors, and the
// replayed state is bit-identical to what the failure destroyed.
func ExampleNewSystem() {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 4})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups:            1,
		ChecksumsPerGroup: 1, // XOR parity (m = 1)
		Log:               ftrma.LogConfig{Puts: true, Gets: true},
	})
	if err != nil {
		panic(err)
	}
	// Make the initial (zero) state recoverable, as applications do.
	w.Run(func(r int) { sys.Process(r).UCCheckpoint() })

	w.Run(func(r int) {
		p := sys.Process(r) // the Process interposes logging on every call
		if r == 0 {
			p.Put(1, 0, []uint64{7})
			p.Flush(1)
		}
		p.Gsync()
	})

	w.Kill(1) // fail-stop: window contents and hosted state are lost
	res, err := sys.Recover(1)
	if err != nil {
		panic(err) // ftrma.ErrFallback would mean a coordinated rollback
	}
	w.RunRank(1, func() { res.Proc.ReplayAll(res.Logs) })
	fmt.Println(sys.Process(1).ReadAt(0, 1)[0])
	// Output: 7
}

// ExampleSystem_Recover runs a ring exchange over two groups, kills a
// rank and recovers it causally: the result reports no fallback to a
// coordinated rollback, and the replayed window holds the value its
// left neighbour put there before the failure.
func ExampleSystem_Recover() {
	const n, victim = 4, 1
	w := rma.NewWorld(rma.Config{N: n, WindowWords: 16})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups:            2,
		ChecksumsPerGroup: 1,
		Log:               ftrma.LogConfig{Puts: true, Gets: true},
	})
	if err != nil {
		panic(err)
	}
	w.Run(func(r int) {
		p := sys.Process(r)
		p.PutValue((r+1)%n, r, uint64(100+r))
		p.Gsync()
	})

	w.Kill(victim)
	res, err := sys.Recover(victim)
	if err != nil {
		panic(err)
	}
	w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
	fmt.Println(res.FellBack, w.Proc(victim).ReadAt(victim-1, 1)[0])
	// Output: false 100
}

// ExampleConfig_Validate shows the descriptive-rejection contract: zero
// values mean defaults, explicit nonsense is named.
func ExampleConfig_Validate() {
	cfg := ftrma.Config{Groups: 9, ChecksumsPerGroup: 1}
	fmt.Println(cfg.Validate(4))
	// Output: ftrma: 9 groups for 4 ranks
}

// ExampleElectParityHost shows the peer parity placement policy: hosts
// land outside the group while any out-of-group rank is alive, so one
// failure never destroys a member's checkpoint copy together with the
// parity guarding it.
func ExampleElectParityHost() {
	alive := func(int) bool { return true }
	members := []int{0, 1}
	uc := ftrma.ElectParityHost(4, members, 0, ftrma.LevelUC, alive, -1)
	cc := ftrma.ElectParityHost(4, members, 0, ftrma.LevelCC, alive, uc)
	fmt.Println(uc >= 2, cc >= 2, uc != cc)
	// Output: true true true
}
