package ftrma

// The gsync release rule (GsyncReady, GsyncRelease) run as a protocol: a
// seeded simulation of one phase's barrier through the parity hosts, with
// messages delivered in random order, dead ranks, and parity hosts that die
// mid-barrier and have their groups re-homed. It holds the rule to its
// invariants: every rank is released, and no release leaves a host before
// every fold has reached a host and the releasing host has received the
// readiness of every group it does not host.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// gsyncMsg is one frame of the simulated barrier: a rank's fold to its
// group's host, or a host's readiness (its groups' watermarks) to another.
type gsyncMsg struct {
	fold     bool
	from, to int
	wm       map[int]int // readiness: the sender's entries for its groups' members
	groups   []int       // readiness: the groups the sender hosts
}

// gsyncSim is one phase (p = 0) of the barrier over a world of n ranks.
type gsyncSim struct {
	t       *testing.T
	g       machine.Grouping
	hostOf  []int          // group → host rank
	wm      [][]int        // host → its view of every rank's watermark
	heard   []map[int]bool // host → the groups whose readiness it has received
	told    []bool         // host → has announced its groups ready
	held    [][]int        // host → ranks whose folds it holds
	dead    []bool
	got     []bool // rank → its fold has reached a host
	release []bool // rank → released
	flight  []gsyncMsg
	// afterOwnRelease is the mutated rule: a host announces only once its
	// own fold has been released.
	afterOwnRelease bool
}

func newGsyncSim(t *testing.T, g machine.Grouping, hostOf []int) *gsyncSim {
	n := g.NumCompute
	s := &gsyncSim{t: t, g: g, hostOf: hostOf, wm: make([][]int, n), heard: make([]map[int]bool, n),
		told: make([]bool, n), held: make([][]int, n), dead: make([]bool, n), got: make([]bool, n), release: make([]bool, n)}
	for h := range s.wm {
		s.wm[h] = make([]int, n)
		s.heard[h] = map[int]bool{}
	}
	return s
}

func (s *gsyncSim) hosts() []int {
	var hs []int
	for _, h := range s.hostOf {
		if !slices.Contains(hs, h) {
			hs = append(hs, h)
		}
	}
	return hs
}

func (s *gsyncSim) isHost(h int) bool { return slices.Contains(s.hostOf, h) }

// sendFold puts rank r's fold on its way to its group's current host.
func (s *gsyncSim) sendFold(r int) {
	s.flight = append(s.flight, gsyncMsg{fold: true, from: r, to: s.hostOf[s.g.GroupOf(r)]})
}

// announce sends h's readiness to every other host, once its groups are
// ready (and, under the mutated rule, its own fold released).
func (s *gsyncSim) announce(h int, again bool) {
	wm := func(r int) int { return s.wm[h][r] }
	mine := func(grp int) bool { return s.hostOf[grp] == h }
	if s.dead[h] || s.told[h] && !again || !GsyncReady(s.g, mine, wm, 0) || s.afterOwnRelease && !s.release[h] {
		return
	}
	s.told[h] = true
	entries := map[int]int{}
	for r := 0; r < s.g.NumCompute; r++ {
		if mine(s.g.GroupOf(r)) {
			entries[r] = s.wm[h][r]
		}
	}
	var groups []int
	for grp := range s.hostOf {
		if mine(grp) {
			groups = append(groups, grp)
		}
	}
	for _, o := range s.hosts() {
		if o != h && !s.dead[o] {
			s.flight = append(s.flight, gsyncMsg{from: h, to: o, wm: entries, groups: groups})
		}
	}
}

// settle releases what h holds if the rule allows, checking the invariant.
func (s *gsyncSim) settle(h int) {
	if !GsyncRelease(s.g, func(r int) int { return s.wm[h][r] }, 0) {
		return
	}
	for _, r := range s.held[h] {
		for q := range s.got {
			if !s.got[q] {
				s.t.Fatalf("host %d released rank %d before rank %d's fold reached its host", h, r, q)
			}
		}
		for grp, o := range s.hostOf {
			if o != h && !s.heard[h][grp] {
				s.t.Fatalf("host %d released rank %d without group %d's readiness", h, r, grp)
			}
		}
		s.release[r] = true
		for _, o := range s.hosts() {
			s.announce(o, false) // the mutated rule's trigger
		}
	}
	s.held[h] = nil
}

// step delivers one message in flight, chosen at random.
func (s *gsyncSim) step(rng *rand.Rand) {
	i := rng.Intn(len(s.flight))
	m := s.flight[i]
	s.flight = slices.Delete(s.flight, i, i+1)
	if s.dead[m.to] {
		if m.fold && !s.dead[m.from] {
			s.sendFold(m.from) // the call fails; it retries at the re-homed host
		}
		return
	}
	if m.fold {
		s.got[m.from] = true
		s.wm[m.to][m.from] = 1
		s.held[m.to] = append(s.held[m.to], m.from)
		s.announce(m.to, false)
	} else {
		for _, grp := range m.groups {
			s.heard[m.to][grp] = true
		}
		for r, w := range m.wm {
			s.wm[m.to][r] = max(s.wm[m.to][r], w)
		}
	}
	s.settle(m.to)
}

// kill fail-stops rank x, a host outside its own group. Its held folds fail
// and retry; the groups it hosted move to a live rank, which installs their
// rebuilt parity — the members' folds it had answered count as received —
// and every other host
// resends its readiness to the new one on that hosting change.
func (s *gsyncSim) kill(x int, rng *rand.Rand) {
	s.dead[x] = true
	for _, r := range s.held[x] {
		if !s.dead[r] {
			s.sendFold(r)
		}
	}
	s.held[x] = nil
	var live []int
	for r := range s.dead {
		if !s.dead[r] {
			live = append(live, r)
		}
	}
	y := live[rng.Intn(len(live))]
	moved := false
	for grp, h := range s.hostOf {
		if h != x {
			continue
		}
		s.hostOf[grp], moved = y, true
		for r := 0; r < s.g.NumCompute; r++ {
			if s.g.GroupOf(r) == grp {
				if s.release[r] {
					s.wm[y][r] = max(s.wm[y][r], s.wm[x][r])
				}
			}
		}
	}
	if !moved {
		return
	}
	s.told[y] = false // its readiness now covers more groups
	for _, h := range s.hosts() {
		s.announce(h, true)
	}
	s.settle(y)
}

// run delivers until nothing is in flight.
func (s *gsyncSim) run(rng *rand.Rand) {
	for len(s.flight) > 0 {
		s.step(rng)
	}
}

func (s *gsyncSim) released() (n int) {
	for r, ok := range s.release {
		if ok && !s.dead[r] {
			n++
		}
	}
	return n
}

// TestGsyncReleaseRule: over seeded random worlds and delivery orders, the
// barrier releases every live rank, never before the releasing host has
// every fold and every other host's readiness. A rank that never folds
// holds every release until its replacement folds, and a host that dies
// mid-barrier costs its members a refold at the re-homed host, not a wedge.
func TestGsyncReleaseRule(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for c := 0; c < 400; c++ {
		n := 2 + rng.Intn(14)
		groups := 1 + rng.Intn(n)
		g := machine.Grouping{NumCompute: n, NumGroups: groups, M: 1}
		hostOf := make([]int, groups)
		for grp := range hostOf {
			hostOf[grp] = rng.Intn(n)
		}
		name := fmt.Sprintf("case %d (%d ranks, hosts %v)", c, n, hostOf)
		s := newGsyncSim(t, g, hostOf)
		switch c % 3 {
		case 0: // every rank folds
			for r := 0; r < n; r++ {
				s.sendFold(r)
			}
			s.run(rng)
		case 1: // rank d folds only once every other fold is delivered (a replacement)
			d := rng.Intn(n)
			for r := 0; r < n; r++ {
				if r != d {
					s.sendFold(r)
				}
			}
			s.run(rng)
			if got := s.released(); got != 0 {
				t.Fatalf("%s: %d ranks released while rank %d had not folded", name, got, d)
			}
			s.sendFold(d)
			s.run(rng)
		case 2: // a host dies mid-barrier; its replacement folds afterwards
			for r := 0; r < n; r++ {
				s.sendFold(r)
			}
			hs := s.hosts()
			x := hs[rng.Intn(len(hs))]
			for k := rng.Intn(len(s.flight) + 1); k > 0 && len(s.flight) > 0; k-- {
				s.step(rng)
			}
			// A host in its own group takes a member down with its parity:
			// unsurvivable (Classify), so not a schedule of this barrier.
			if s.release[x] || s.hostOf[g.GroupOf(x)] == x {
				s.run(rng)
				break
			}
			s.kill(x, rng)
			s.run(rng)
			if !s.got[x] { // its fold died with it
				if got := s.released(); got != 0 {
					t.Fatalf("%s: %d ranks released while dead rank %d had not folded", name, got, x)
				}
				s.dead[x] = false // the replacement
				s.sendFold(x)
				s.run(rng)
			}
		}
		for r := 0; r < n; r++ {
			if !s.dead[r] && !s.release[r] {
				t.Fatalf("%s: rank %d was never released", name, r)
			}
		}
	}
}

// TestGsyncReadinessCountsFoldsReceived: two groups whose hosts are each a
// member of the other's group. Counting readiness on releases instead of
// receipts wedges the barrier: each host waits for its own release from the
// other before it announces.
func TestGsyncReadinessCountsFoldsReceived(t *testing.T) {
	g := machine.Grouping{NumCompute: 4, NumGroups: 2, M: 1}
	for _, mutated := range []bool{false, true} {
		s := newGsyncSim(t, g, []int{1, 0})
		s.afterOwnRelease = mutated
		for r := 0; r < 4; r++ {
			s.sendFold(r)
		}
		s.run(rand.New(rand.NewSource(1)))
		if got, want := s.released(), map[bool]int{false: 4, true: 0}[mutated]; got != want {
			t.Errorf("announce after own release %v: %d ranks released, want %d", mutated, got, want)
		}
	}
}
