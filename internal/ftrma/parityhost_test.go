package ftrma

import (
	"testing"

	"repro/internal/rma"
)

// TestElectParityHost pins the placement policy: out-of-group ranks are
// preferred (a host's death must not take a member copy down with the
// shards), the avoid rank (the other level's host) is skipped while
// possible, in-group hosting is the documented last resort, and the
// choice is deterministic.
func TestElectParityHost(t *testing.T) {
	all := func(int) bool { return true }
	members := []int{0, 1}

	h := ElectParityHost(4, members, 0, LevelUC, all, -1)
	if h != 2 && h != 3 {
		t.Fatalf("uc host %d is in-group although ranks 2,3 are free", h)
	}
	h2 := ElectParityHost(4, members, 0, LevelCC, all, h)
	if h2 == h {
		t.Fatalf("cc host %d collides with uc host although another rank is free", h2)
	}
	if h2 != 2 && h2 != 3 {
		t.Fatalf("cc host %d is in-group although ranks 2,3 are free", h2)
	}
	if again := ElectParityHost(4, members, 0, LevelUC, all, -1); again != h {
		t.Fatalf("election not deterministic: %d then %d", h, again)
	}

	// Only group members alive: in-group hosting is the last resort.
	memOnly := func(r int) bool { return r < 2 }
	if h := ElectParityHost(4, members, 0, LevelUC, memOnly, -1); h != 0 && h != 1 {
		t.Fatalf("no out-of-group candidate, yet host = %d", h)
	}
	// Nobody alive: no host.
	if h := ElectParityHost(4, members, 0, LevelUC, func(int) bool { return false }, -1); h != -1 {
		t.Fatalf("election over a dead world returned %d", h)
	}
}

// TestPeerParityHostsPlacement checks that Config.PeerParityHosts elects a
// host per (group, level), out-of-group and per-level distinct when the
// world allows it.
func TestPeerParityHostsPlacement(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: 32})
	sys, err := NewSystem(w, Config{Groups: 2, ChecksumsPerGroup: 1, PeerParityHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		members := sys.Grouping().ComputeMembers(g)
		inGroup := map[int]bool{}
		for _, r := range members {
			inGroup[r] = true
		}
		uc := sys.ParityHostRank(g, LevelUC)
		cc := sys.ParityHostRank(g, LevelCC)
		if uc < 0 || cc < 0 {
			t.Fatalf("group %d: unhosted parity (uc=%d cc=%d)", g, uc, cc)
		}
		if inGroup[uc] || inGroup[cc] {
			t.Fatalf("group %d hosts its own parity (uc=%d cc=%d, members=%v)", g, uc, cc, members)
		}
		if uc == cc {
			t.Fatalf("group %d: both levels at rank %d", g, uc)
		}
	}
}

// TestParityHostDeathRebuildsAndReElects kills the rank hosting group 0's
// UC parity and checks that recovery (a) rebuilds the lost shards from
// the surviving members' checkpoint copies, (b) re-elects a live host,
// and (c) still restores the machine bit-identically to the pre-kill
// phase boundary.
func TestParityHostDeathRebuildsAndReElects(t *testing.T) {
	const n, words = 4, 64
	w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
	sys, err := NewSystem(w, Config{
		Groups: 2, ChecksumsPerGroup: 1,
		Log:             LogConfig{Puts: true, Gets: true},
		PeerParityHosts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r int) { sys.Process(r).UCCheckpoint() })

	// One deterministic phase of puts (no combining ops: causal recovery
	// stays available), closed by a gsync.
	phase := func(api rma.API) {
		r := api.Rank()
		for tgt := 0; tgt < n; tgt++ {
			if tgt == r {
				continue
			}
			api.Put(tgt, 2*r, []uint64{uint64(100*r + tgt), uint64(r)})
		}
		api.Gsync()
	}
	w.Run(func(r int) { phase(sys.Process(r)) })
	boundary := snapWindows(w)

	victim := sys.ParityHostRank(0, LevelUC)
	if victim < 0 {
		t.Fatalf("group 0 UC parity has no peer host")
	}
	g0 := map[int]bool{}
	for _, r := range sys.Grouping().ComputeMembers(0) {
		g0[r] = true
	}
	if g0[victim] {
		t.Fatalf("policy placed group 0's parity at its own member %d", victim)
	}

	w.Kill(victim)
	res, err := sys.Recover(victim)
	if err != nil {
		t.Fatalf("recover (causal expected, no flags raised): %v", err)
	}
	w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
	res.Proc.gnc.Store(1)
	checkBoundary(t, w, boundary, 1, "after parity-host death")

	st := sys.Stats()
	if st.ParityRebuilds < 1 {
		t.Fatalf("host death did not rebuild any parity: %+v", st)
	}
	newHost := sys.ParityHostRank(0, LevelUC)
	if newHost == victim || newHost < 0 {
		t.Fatalf("group 0 UC parity host not re-elected: still %d", newHost)
	}

	// The rebuilt parity must be good for a second, ordinary failure: kill
	// a member of group 0 and recover it against the re-hosted shards.
	member := sys.Grouping().ComputeMembers(0)[0]
	w.Run(func(r int) { sys.Process(r).UCCheckpoint() })
	w.Run(func(r int) { phase(sys.Process(r)) })
	boundary2 := snapWindows(w)
	w.Kill(member)
	res, err = sys.Recover(member)
	if err != nil {
		t.Fatalf("recover member against rebuilt parity: %v", err)
	}
	w.RunRank(member, func() { res.Proc.ReplayAll(res.Logs) })
	res.Proc.gnc.Store(2)
	checkBoundary(t, w, boundary2, 2, "after member death on rebuilt parity")
}
