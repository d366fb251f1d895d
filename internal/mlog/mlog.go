// Package mlog is the message-logging baseline of §7.2 ("to compare the
// logging overheads in MP and RMA we also developed a simple message
// logging scheme"), modeled on sender-based logging with dedicated logger
// processes (Riesen et al.): every access is recorded at a logger process
// via explicit protocol messages — the data is shipped to the logger, and
// control messages flow between the participants — rather than through
// ftRMA's one-sided in-memory log structures. That per-access inter-process
// protocol interaction is exactly the overhead ftRMA avoids (≈9% slower on
// the NAS FFT, Fig. 11b).
package mlog

import (
	"fmt"
	"sync"

	"repro/internal/rma"
	"repro/internal/sim"
)

// Config tunes the baseline.
type Config struct {
	// RanksPerLogger maps this many application ranks to one dedicated
	// logger process (modeled as passive storage with its own bandwidth).
	RanksPerLogger int
	// LogGets mirrors ftRMA's f-puts vs f-puts-gets distinction.
	LogGets bool
}

// Record is one logged access at a logger process.
type Record struct {
	Kind string // "put", "get", "atomic"
	Src  int
	Trg  int
	Off  int
	Data []uint64
}

// logger is a dedicated logging process: serialized storage, like the
// paper's "additional processes to store protocol-specific access logs".
type logger struct {
	res *sim.SharedResource
	mu  sync.Mutex
	log []Record
}

// System is the per-world message-logging state.
type System struct {
	world   *rma.World
	cfg     Config
	loggers []*logger
	procs   []*Process
}

// NewSystem attaches the baseline to a world.
func NewSystem(w *rma.World, cfg Config) (*System, error) {
	if cfg.RanksPerLogger < 1 {
		return nil, fmt.Errorf("mlog: ranks per logger = %d", cfg.RanksPerLogger)
	}
	n := (w.N() + cfg.RanksPerLogger - 1) / cfg.RanksPerLogger
	s := &System{world: w, cfg: cfg}
	s.loggers = make([]*logger, n)
	for i := range s.loggers {
		// Determinant streams to a logger are pipelined: bandwidth is
		// shared, but no per-record latency accrues at the logger (the
		// sender already pays the injection latency).
		s.loggers[i] = &logger{res: sim.NewSharedResource(w.Params().NetBW, 0)}
	}
	s.procs = make([]*Process, w.N())
	for r := 0; r < w.N(); r++ {
		s.procs[r] = &Process{Proc: w.Proc(r), sys: s}
	}
	return s, nil
}

// Process returns the wrapper of a rank.
func (s *System) Process(r int) *Process { return s.procs[r] }

// loggerOf returns the logger serving a rank.
func (s *System) loggerOf(r int) *logger { return s.loggers[r/s.cfg.RanksPerLogger] }

// Process wraps an rma.Proc with per-access logger interaction.
type Process struct {
	*rma.Proc
	sys *System
}

var _ rma.FullAPI = (*Process)(nil)

// shipToLogger charges the protocol interaction of recording an access:
// the access *data* stays at the sender's (or receiver's) side — a local
// copy — while the protocol-specific record (the determinant) travels to
// the dedicated logger process, as in the sender-based scheme the baseline
// models. The logger's inbound link serializes the records of the ranks it
// serves.
func (p *Process) shipToLogger(rec Record) {
	params := p.sys.world.Params()
	lg := p.sys.loggerOf(p.Rank())
	// Local copy of the payload at the logging side.
	p.Proc.AdvanceTime(params.CopyTime(8 * len(rec.Data)))
	// Determinant to the logger plus acknowledgement.
	const determinantBytes = 64
	p.Proc.AdvanceTime(params.InjectTime(determinantBytes) + params.NetLatency)
	end := lg.res.Transfer(p.Now(), determinantBytes)
	p.Proc.AdvanceTo(end)
	lg.mu.Lock()
	lg.log = append(lg.log, rec)
	lg.mu.Unlock()
}

// Put logs at the sender's logger, then issues.
func (p *Process) Put(target, off int, data []uint64) {
	p.shipToLogger(Record{Kind: "put", Src: p.Rank(), Trg: target, Off: off,
		Data: append([]uint64(nil), data...)})
	p.Proc.Put(target, off, data)
}

// PutValue is a single-word Put.
func (p *Process) PutValue(target, off int, v uint64) {
	p.Put(target, off, []uint64{v})
}

// Accumulate logs and issues a combining put.
func (p *Process) Accumulate(target, off int, data []uint64, op rma.ReduceOp) {
	p.shipToLogger(Record{Kind: "put", Src: p.Rank(), Trg: target, Off: off,
		Data: append([]uint64(nil), data...)})
	p.Proc.Accumulate(target, off, data, op)
}

// Get issues and, if get logging is on, records at the receiver's logger
// on the epoch close (here: charged immediately with an extra control
// exchange, the receiver-side logging cost of the MP scheme).
func (p *Process) Get(target, off, n int) []uint64 {
	dest := p.Proc.Get(target, off, n)
	p.logGet(target, off, n)
	return dest
}

// GetCopy issues into the window and records like Get.
func (p *Process) GetCopy(target, off, n, localOff int) []uint64 {
	dest := p.Proc.GetCopy(target, off, n, localOff)
	p.logGet(target, off, n)
	return dest
}

// GetBlocking gets and closes the epoch.
func (p *Process) GetBlocking(target, off, n int) []uint64 {
	dest := p.Get(target, off, n)
	p.Proc.Flush(target)
	return dest
}

func (p *Process) logGet(target, off, n int) {
	if !p.sys.cfg.LogGets {
		return
	}
	// Receiver-based logging needs the remote side's participation before
	// the record can be shipped (one extra round trip on top of the logger
	// transfer) — the per-access protocol interaction ftRMA's one-sided
	// append avoids (§7.2.2).
	p.Proc.AdvanceTime(2 * p.sys.world.Params().NetLatency)
	p.shipToLogger(Record{Kind: "get", Src: p.Rank(), Trg: target, Off: off,
		Data: make([]uint64, n)})
}

// CompareAndSwap logs the atomic as a put and a get.
func (p *Process) CompareAndSwap(target, off int, old, new uint64) uint64 {
	p.shipToLogger(Record{Kind: "atomic", Src: p.Rank(), Trg: target, Off: off,
		Data: []uint64{new}})
	prev := p.Proc.CompareAndSwap(target, off, old, new)
	p.logGet(target, off, 1)
	return prev
}

// GetAccumulate logs the vector atomic as a put and a get.
func (p *Process) GetAccumulate(target, off int, data []uint64, op rma.ReduceOp) []uint64 {
	p.shipToLogger(Record{Kind: "atomic", Src: p.Rank(), Trg: target, Off: off,
		Data: append([]uint64(nil), data...)})
	prev := p.Proc.GetAccumulate(target, off, data, op)
	p.logGet(target, off, len(data))
	return prev
}

// FetchAndOp logs the atomic as a put and a get.
func (p *Process) FetchAndOp(target, off int, operand uint64, op rma.ReduceOp) uint64 {
	p.shipToLogger(Record{Kind: "atomic", Src: p.Rank(), Trg: target, Off: off,
		Data: []uint64{operand}})
	prev := p.Proc.FetchAndOp(target, off, operand, op)
	p.logGet(target, off, 1)
	return prev
}
