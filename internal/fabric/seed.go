package fabric

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/ftrma"
	"repro/internal/machine"
	"repro/internal/transport/wire"
)

// SeedConfig configures a bootstrap seed.
type SeedConfig struct {
	// N is the world size; WindowWords each rank's window; Groups the
	// number of parity groups (rank r joins group r mod Groups).
	N           int
	WindowWords int
	Groups      int
	// Tuning is distributed to every rank so the whole fabric runs one
	// set of lease/gossip timings.
	Tuning Tuning
	// Meta is an opaque workload blob handed to every rank verbatim
	// (rankd encodes its workload here).
	Meta []byte
	// Listener accepts join connections. The seed owns it.
	Listener net.Listener
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Validate rejects unusable seed configurations.
func (c SeedConfig) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("fabric: seed needs N ≥ 2 ranks, got %d", c.N)
	}
	if c.WindowWords < 1 {
		return fmt.Errorf("fabric: seed needs a positive window, got %d words", c.WindowWords)
	}
	if c.Groups < 1 || c.Groups > c.N {
		return fmt.Errorf("fabric: seed needs 1 ≤ Groups ≤ N, got %d groups for %d ranks", c.Groups, c.N)
	}
	if c.Listener == nil {
		return fmt.Errorf("fabric: seed needs a Listener")
	}
	return c.Tuning.Validate()
}

// Seed is the bootstrap join directory — the only asymmetric piece of
// the fabric, and a deliberately boring one: it assigns ranks on a
// first-come basis, blocks every join reply until all N workers have
// arrived (a rendezvous, so each reply can carry the complete membership
// and parity hosting tables), and is never needed again. Workers close
// their seed connection immediately after joining; tests Close the seed
// outright and assert FramesServed stays frozen to prove the steady
// state runs without a coordinator.
type Seed struct {
	cfg      SeedConfig
	grouping machine.Grouping
	ln       net.Listener
	logf     func(string, ...any)
	frames   atomic.Uint64

	mu      sync.Mutex
	joined  []string // addr per assigned rank
	waiters []chan []byte
	members []Member
	closed  bool

	conns    []*wire.Conn
	connsMu  sync.Mutex
	accepted chan struct{} // closed when acceptLoop returns
}

// NewSeed starts a seed on cfg.Listener.
func NewSeed(cfg SeedConfig) (*Seed, error) {
	cfg.Tuning = cfg.Tuning.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Seed{cfg: cfg, grouping: fabricGrouping(cfg.N, cfg.Groups), ln: cfg.Listener, logf: cfg.Logf, accepted: make(chan struct{})}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the seed's listen address.
func (s *Seed) Addr() string { return s.ln.Addr().String() }

// FramesServed counts the frames the seed has answered — exactly one
// per join in a healthy bootstrap. The coordinatorless tests freeze-dry
// this counter after bootstrap to assert zero steady-state round trips.
func (s *Seed) FramesServed() uint64 { return s.frames.Load() }

// Joined counts the ranks assigned so far. Tests spawn workers one at a
// time and wait for this to tick so OS process i holds rank i exactly.
func (s *Seed) Joined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.joined)
}

// Members returns the bootstrapped membership (nil before all N joined).
func (s *Seed) Members() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Member(nil), s.members...)
}

// Close stops the seed. Joined workers are unaffected: they hold no
// connection to it. Joins still parked at the rendezvous fail with "seed
// closed before rendezvous completed", and the accept loop has returned
// when Close does. A second Close is a no-op.
func (s *Seed) Close() error {
	s.mu.Lock()
	if !s.closed {
		for _, ch := range s.waiters {
			close(ch) // a released waiter still reads its buffered world first
		}
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.accepted
	s.connsMu.Lock()
	conns := s.conns
	s.conns = nil
	s.connsMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Seed) acceptLoop() {
	defer close(s.accepted)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		wc := wire.New(nc, wire.Config{
			Handler:   s.handle,
			Heartbeat: s.cfg.Tuning.LeaseInterval,
		})
		s.connsMu.Lock()
		s.conns = append(s.conns, wc)
		s.connsMu.Unlock()
	}
}

// handle serves fJoin. The handler blocks (it runs on its own goroutine,
// per the wire contract) until the rendezvous completes, then replies
// with the full world.
func (s *Seed) handle(t byte, payload []byte) (byte, []byte, error) {
	s.frames.Add(1)
	if t != fJoin {
		return t, nil, fmt.Errorf("fabric: seed serves only joins, got frame %#x", t)
	}
	d := wire.NewDec(payload)
	addr := d.Str()
	if d.Failed() || addr == "" {
		return t, nil, errBadFrame
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return t, nil, fmt.Errorf("fabric: seed closed")
	}
	if len(s.joined) >= s.cfg.N {
		s.mu.Unlock()
		return t, nil, fmt.Errorf("fabric: world of %d ranks is full", s.cfg.N)
	}
	rank := len(s.joined)
	s.joined = append(s.joined, addr)
	ch := make(chan []byte, 1)
	s.waiters = append(s.waiters, ch)
	if len(s.joined) == s.cfg.N {
		s.bootstrapLocked()
	}
	s.mu.Unlock()
	s.logf("fabric: seed assigned rank %d to %s", rank, addr)
	reply, ok := <-ch
	if !ok {
		return t, nil, fmt.Errorf("fabric: seed closed before rendezvous completed")
	}
	return t, reply, nil
}

// bootstrapLocked computes the initial world — membership and elected
// parity hostings — and releases every parked join reply with it.
func (s *Seed) bootstrapLocked() {
	n := s.cfg.N
	s.members = make([]Member, n)
	for r := 0; r < n; r++ {
		s.members[r] = Member{Rank: r, Addr: s.joined[r], Incarnation: 0, Alive: true}
	}
	hostings := make([]Hosting, s.cfg.Groups)
	alive := func(int) bool { return true }
	for g := 0; g < s.cfg.Groups; g++ {
		host := ftrma.ElectParityHost(n, s.grouping.ComputeMembers(g), g, 0, alive, -1)
		hostings[g] = Hosting{Group: g, Host: host}
	}
	for r := 0; r < n; r++ {
		var e wire.Enc
		e.B(jmWorld)
		encWorld(&e, world{
			rank: r, n: n, windowWords: s.cfg.WindowWords, groups: s.cfg.Groups,
			tuning: s.cfg.Tuning, meta: s.cfg.Meta,
			members: s.members, hostings: hostings,
		})
		e.B(0) // no install: fresh rank
		s.waiters[r] <- e.Bytes()
	}
	s.logf("fabric: seed bootstrapped %d ranks, %d parity groups", n, s.cfg.Groups)
}
