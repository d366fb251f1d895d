// Package scr is the baseline the paper compares against in §7.2.1: a
// Scalable Checkpoint/Restart-like library. It provides blocking,
// coordinated, collective checkpointing with XOR group encoding — but no
// access logging — saving either to peer RAM (SCR-RAM, tmpfs-style) or to
// the shared parallel file system (SCR-PFS).
//
// The cost structure follows SCR's XOR scheme: at a checkpoint, every rank
// copies its state, exchanges it around its group ring to build the XOR
// redundancy block (a full extra window transfer per member), and — in PFS
// mode — flushes through the shared file-system resource, whose bandwidth
// all writers contend for. Compared to ftRMA's Gsync scheme this costs one
// extra collective and a full data exchange, which is exactly why the paper
// measures 21–37% (RAM) and 46–67% (PFS) overheads against ftRMA's 1–5%.
package scr

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/rma"
	"repro/internal/sim"
)

// Mode selects the checkpoint destination.
type Mode int

const (
	// RAM saves checkpoints to in-memory storage (tmpfs).
	RAM Mode = iota
	// PFS flushes checkpoints to the parallel file system.
	PFS
)

// String names the mode.
func (m Mode) String() string {
	if m == PFS {
		return "SCR-PFS"
	}
	return "SCR-RAM"
}

// Config tunes the library.
type Config struct {
	// Mode selects RAM or PFS storage.
	Mode Mode
	// Interval is the fixed time between coordinated checkpoints in
	// virtual seconds (SCR does not derive Daly intervals by itself).
	// Zero disables checkpointing.
	Interval float64
	// Groups is the number of XOR groups (matching ftRMA's |G| for a fair
	// comparison, as §7.2.1 configures).
	Groups int
}

// System is the per-world SCR state.
type System struct {
	world    *rma.World
	cfg      Config
	grouping machine.Grouping
	procs    []*Process
	// exchange serializes each group's XOR-set communication: SCR's
	// redundancy scheme moves every member's checkpoint through the group,
	// and the members share the links.
	exchange []*sim.SharedResource

	mu     sync.Mutex
	stored map[int][]uint64 // rank -> last checkpoint copy
	parity [][]uint64       // per group XOR block
	rounds int
}

// NewSystem attaches SCR to a world.
func NewSystem(w *rma.World, cfg Config) (*System, error) {
	if cfg.Groups < 1 || cfg.Groups > w.N() {
		return nil, fmt.Errorf("scr: %d groups for %d ranks", cfg.Groups, w.N())
	}
	if cfg.Interval < 0 {
		return nil, errors.New("scr: negative interval")
	}
	grouping, err := machine.NewGrouping(w.N(), cfg.Groups, 1)
	if err != nil {
		return nil, err
	}
	words := w.Proc(0).WindowWords()
	s := &System{
		world:    w,
		cfg:      cfg,
		grouping: grouping,
		stored:   make(map[int][]uint64),
		parity:   make([][]uint64, cfg.Groups),
	}
	s.exchange = make([]*sim.SharedResource, cfg.Groups)
	for g := range s.parity {
		s.parity[g] = make([]uint64, words)
		s.exchange[g] = sim.NewSharedResource(w.Params().NetBW, w.Params().NetLatency)
	}
	s.procs = make([]*Process, w.N())
	for r := 0; r < w.N(); r++ {
		s.procs[r] = &Process{Proc: w.Proc(r), sys: s}
	}
	return s, nil
}

// Process returns the SCR wrapper of a rank.
func (s *System) Process(r int) *Process { return s.procs[r] }

// Process wraps an rma.Proc: all operations pass through unchanged (SCR
// does not log accesses); Gsync additionally drives the fixed-interval
// coordinated checkpoint.
type Process struct {
	*rma.Proc
	sys    *System
	lastCC float64
}

var _ rma.FullAPI = (*Process)(nil)

// Gsync synchronizes and, when the fixed interval elapsed, takes a
// blocking collective checkpoint.
func (p *Process) Gsync() {
	p.Proc.Gsync()
	if p.sys.cfg.Interval <= 0 {
		return
	}
	tSync := p.Now() // equal across ranks right after the gsync
	if p.lastCC == 0 {
		// The first gsync anchors the schedule.
		p.lastCC = tSync
		return
	}
	if tSync-p.lastCC < p.sys.cfg.Interval {
		return
	}
	p.checkpoint()
}

// Checkpoint forces a collective checkpoint now (every rank must call it).
func (p *Process) Checkpoint() { p.checkpoint() }

func (p *Process) checkpoint() {
	params := p.sys.world.Params()
	// SCR's blocking scheme: quiesce (barrier), save, encode, barrier.
	p.Proc.Barrier()
	words := p.Proc.ReadAt(0, p.Proc.WindowWords())
	bytes := 8 * len(words)
	p.Proc.AdvanceTime(params.CopyTime(bytes)) // local save

	// XOR redundancy block: every member moves its checkpoint into the
	// group's XOR set and receives redundancy data back — two full-window
	// transfers over the group's shared links — then combines locally.
	g := p.sys.grouping.GroupOf(p.Rank())
	ex := p.sys.exchange[g]
	end := ex.Transfer(p.Now(), bytes)
	end = ex.Transfer(end, bytes)
	p.Proc.AdvanceTo(end)
	p.Proc.AdvanceTime(params.CopyTime(bytes)) // XOR combine

	if p.sys.cfg.Mode == PFS {
		// Flush through the shared file system: all writers contend.
		end := p.sys.world.PFS().Transfer(p.Now(), bytes)
		p.Proc.AdvanceTo(end)
	}

	p.sys.mu.Lock()
	if old, ok := p.sys.stored[p.Rank()]; ok {
		for i := range old {
			p.sys.parity[g][i] ^= old[i]
		}
	}
	for i := range words {
		p.sys.parity[g][i] ^= words[i]
	}
	p.sys.stored[p.Rank()] = words
	if p.Rank() == 0 {
		p.sys.rounds++
	}
	p.sys.mu.Unlock()

	p.Proc.Barrier()
	p.lastCC = p.Now()
}

// Restore rolls every rank back to its last checkpoint; the failed rank's
// copy is rebuilt from the group parity (single failure per group, XOR).
// Call when no application code is running.
func (s *System) Restore(failed int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.grouping.GroupOf(failed)
	words := s.world.Proc(0).WindowWords()
	rec := make([]uint64, words)
	copy(rec, s.parity[g])
	for _, r := range s.grouping.ComputeMembers(g) {
		if r == failed {
			continue
		}
		c, ok := s.stored[r]
		if !ok {
			return fmt.Errorf("scr: member %d has no checkpoint", r)
		}
		for i := range c {
			rec[i] ^= c[i]
		}
	}
	if !s.world.Alive(failed) {
		inner := s.world.Respawn(failed)
		s.procs[failed] = &Process{Proc: inner, sys: s}
	}
	for r := 0; r < s.world.N(); r++ {
		data := s.stored[r]
		if r == failed {
			data = rec
		}
		if data == nil {
			return fmt.Errorf("scr: rank %d has no checkpoint", r)
		}
		rr, dd := r, data
		s.world.RunRank(rr, func() {
			s.procs[rr].Proc.WriteAt(0, dd)
		})
		s.stored[r] = append([]uint64(nil), data...)
	}
	// Rebuild parity from the restored copies (the failed rank's copy is
	// back in the set).
	for gi := range s.parity {
		for i := range s.parity[gi] {
			s.parity[gi][i] = 0
		}
	}
	for r, c := range s.stored {
		gi := s.grouping.GroupOf(r)
		for i := range c {
			s.parity[gi][i] ^= c[i]
		}
	}
	return nil
}
