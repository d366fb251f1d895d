package trace_test

// Cross-layer tests: the theorems of §3 verified on live protocol
// executions — the ftRMA layer runs over the RMA runtime with a trace
// recorder attached, and the resulting checkpoint sets are checked against
// Definition 1.

import (
	"testing"

	"repro/internal/ftrma"
	"repro/internal/rma"
	"repro/internal/trace"
)

// TestTheorem31GsyncSchemeConsistent runs an application that communicates
// with puts and synchronizes with gsyncs under the transparent Gsync
// checkpointing scheme and verifies that every coordinated checkpoint set
// satisfies the RMA-consistency condition (Theorem 3.1). The run also
// terminates, witnessing deadlock freedom.
func TestTheorem31GsyncSchemeConsistent(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 4, WindowWords: 32})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 2, ChecksumsPerGroup: 1,
		FixedInterval: 1e-12, // checkpoint at every gsync after the anchor
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	w.SetTracer(rec)
	w.Run(func(r int) {
		p := sys.Process(r)
		for it := 0; it < 4; it++ {
			p.PutValue((r+1)%4, it, uint64(r*10+it))
			p.PutValue((r+2)%4, 8+it, uint64(r*10+it))
			p.Gsync()
		}
	})
	w.SetTracer(nil)
	events := rec.Events()
	ckpts := trace.Checkpoints(events)
	if len(ckpts) != 4 {
		t.Fatalf("checkpoints at %d ranks, want 4", len(ckpts))
	}
	rounds := len(ckpts[0])
	if rounds < 2 {
		t.Fatalf("only %d checkpoint rounds", rounds)
	}
	for i := 0; i < rounds; i++ {
		if err := trace.CheckRMAConsistent(events, i); err != nil {
			t.Errorf("round %d violates Definition 1: %v", i, err)
		}
	}
}

// TestTheorem32LocksSchemeConsistent does the same for the Locks scheme:
// lock/unlock-synchronized puts, collective checkpoints at LC=0
// (Theorem 3.2).
func TestTheorem32LocksSchemeConsistent(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 3, WindowWords: 16})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Scheme: ftrma.CCLocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	w.SetTracer(rec)
	w.Run(func(r int) {
		p := sys.Process(r)
		for it := 0; it < 3; it++ {
			trg := (r + 1) % 3
			p.Lock(trg, rma.StrWindow)
			p.PutValue(trg, it, uint64(r+1))
			p.Unlock(trg, rma.StrWindow)
			p.CheckpointLocks()
		}
	})
	w.SetTracer(nil)
	events := rec.Events()
	ckpts := trace.Checkpoints(events)
	if len(ckpts) != 3 {
		t.Fatalf("checkpoints at %d ranks, want 3", len(ckpts))
	}
	for i := 0; i < len(ckpts[0]); i++ {
		if err := trace.CheckRMAConsistent(events, i); err != nil {
			t.Errorf("round %d violates Definition 1: %v", i, err)
		}
	}
}

// TestUCCheckpointEpochCondition verifies that demand checkpoints recorded
// through the tracer appear only at epoch boundaries: no put by the
// checkpointing rank is pending (issued but not yet committed) when its
// checkpoint event is recorded.
func TestUCCheckpointEpochCondition(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 64})
	sys, err := ftrma.NewSystem(w, ftrma.Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Log: ftrma.LogConfig{Puts: true, BudgetBytes: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	w.SetTracer(rec)
	w.Run(func(r int) {
		if r != 0 {
			return
		}
		p := sys.Process(0)
		for it := 0; it < 40; it++ {
			p.Put(1, 0, make([]uint64, 16))
			p.Flush(1)
		}
	})
	w.Run(func(r int) {
		if r == 1 {
			sys.Process(1).FlushAll() // services any pending demand flag
		}
	})
	w.SetTracer(nil)
	events := rec.Events()
	for _, ck := range trace.Checkpoints(events) {
		for _, c := range ck {
			// Every put by the checkpointing rank before the checkpoint
			// must have a commit (epoch close) also before it.
			for _, e := range events {
				if e.Type != trace.TypePut || e.Src != c.Src || e.PoIdx > c.PoIdx {
					continue
				}
				committed := false
				for _, f := range events {
					if f.Src == e.Src && f.PoIdx > e.PoIdx && f.PoIdx < c.PoIdx &&
						(f.Type == trace.TypeFlush || f.Type == trace.TypeUnlock || f.Type == trace.TypeGsync) {
						committed = true
						break
					}
				}
				if !committed {
					t.Fatalf("checkpoint %v taken with uncommitted put %v", c, e)
				}
			}
		}
	}
}
