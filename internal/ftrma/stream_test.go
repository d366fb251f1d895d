package ftrma

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/rma"
)

// ---- Pipelined demand-checkpoint streaming under adversarial schedules ----
//
// The pipeline's correctness property is that scheduling is purely a cost
// model: however the chunk batches are delayed, reordered on the wire, or
// interleaved with other members' streams, the recovered window contents
// must stay bit-identical to the serial path, the bulk path, and the
// failure-free oracle. Folds commute (XOR / GF(256) addition), so delivery
// order may only ever move virtual time, never bytes.

// streamScenarioPhases drives the randomized crPhase workload with a tight
// log budget so demand checkpoints (and therefore the stream under test)
// fire repeatedly during the phases, then kills a rank, recovers it
// causally, and returns every rank's final window.
func runStreamScenario(t *testing.T, streaming bool, depth int, hook func(rank, batch, batches int) float64) [][]uint64 {
	t.Helper()
	const seed, phases, victim = 7, 4, 2
	words := crWindowWords()
	w := rma.NewWorld(rma.Config{N: crRanks, WindowWords: words})
	sys, err := NewSystem(w, Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Log:    LogConfig{Puts: true, Gets: true, BudgetBytes: 2048},
		Stream: StreamConfig{Demand: streaming, ChunkBytes: 256, Depth: depth},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.streamDelay = hook
	w.Run(func(r int) { sys.Process(r).UCCheckpoint() })
	for ph := 0; ph < phases; ph++ {
		cur := ph
		w.Run(func(r int) { crPhase(sys.Process(r), seed, cur, false) })
	}
	w.Kill(victim)
	res, err := sys.Recover(victim)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })
	out := make([][]uint64, w.N())
	for r := 0; r < w.N(); r++ {
		out[r] = w.Proc(r).ReadAt(0, words)
	}
	return out
}

// TestStreamPipelineBitIdenticalUnderJitter runs the same seeded workload
// through the bulk path, the strictly serial stream, the depth-4 pipeline,
// and the pipeline under two adversarial delivery schedules (uniform jitter
// and an alternating slow/fast pattern that reorders chunk arrivals), plus
// a failure-free oracle. Every variant must recover bit-identical windows.
func TestStreamPipelineBitIdenticalUnderJitter(t *testing.T) {
	// Deterministic per-(rank,batch) jitter, safe to call from concurrent
	// rank goroutines: up to ~100 us of extra delivery delay.
	jitter := func(rank, batch, batches int) float64 {
		h := uint64(rank)*2654435761 + uint64(batch)*40503
		return float64(h%1009) * 1e-7
	}
	// Alternating pattern: even batches crawl while odd batches race ahead,
	// so later chunks overtake earlier ones on the wire.
	reorder := func(rank, batch, batches int) float64 {
		if batch%2 == 0 {
			return 5e-4
		}
		return 0
	}
	variants := []struct {
		name      string
		streaming bool
		depth     int
		hook      func(int, int, int) float64
	}{
		{"bulk", false, 0, nil},
		{"serial", true, 1, nil},
		{"pipelined", true, 4, nil},
		{"pipelined-jitter", true, 4, jitter},
		{"pipelined-reorder", true, 3, reorder},
	}
	ref := runStreamScenario(t, variants[0].streaming, variants[0].depth, variants[0].hook)
	for _, v := range variants[1:] {
		got := runStreamScenario(t, v.streaming, v.depth, v.hook)
		for r := range ref {
			for i := range ref[r] {
				if got[r][i] != ref[r][i] {
					t.Fatalf("%s: rank %d word %d = %#x, bulk reference = %#x",
						v.name, r, i, got[r][i], ref[r][i])
				}
			}
		}
	}
}

// TestStreamPipelineModeledTime pins the modeled cost of one demand
// checkpoint of a 4 MiB dirty window (2 ranks, 1 group, XOR parity,
// 256 KiB chunks) under each §6.2 variant: one bulk send, the strictly
// serial chunk stream (depth 1), and the depth-4 pipeline that overlaps
// the transfer of batch k+1 with the fold of batch k. The times come from
// the LogGP model and the shared CH resource, not the clock, so they are
// exact on every machine, to the microsecond.
func TestStreamPipelineModeledTime(t *testing.T) {
	const words = 1 << 19
	ckptUs := func(stream StreamConfig) int {
		w := rma.NewWorld(rma.Config{N: 2, WindowWords: words})
		sys, err := NewSystem(w, Config{Groups: 1, ChecksumsPerGroup: 1, Stream: stream})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(r int) {
			p := sys.Process(r)
			data := make([]uint64, words)
			for i := range data {
				data[i] = uint64(r+1)<<32 | uint64(i)
			}
			p.inner.WriteAt(0, data)
			p.UCCheckpoint()
		})
		return int(math.Round(w.MaxTime() * 1e6))
	}
	bulk := ckptUs(StreamConfig{ChunkBytes: 256 << 10})
	serial := ckptUs(StreamConfig{Demand: true, ChunkBytes: 256 << 10, Depth: 1})
	pipelined := ckptUs(StreamConfig{Demand: true, ChunkBytes: 256 << 10, Depth: 4})
	if bulk != 3848 || serial != 4941 || pipelined != 2975 {
		t.Errorf("modeled checkpoint µs: bulk %d, serial %d, pipelined %d; want 3848, 4941, 2975", bulk, serial, pipelined)
	}
	if float64(serial) < 1.5*float64(pipelined) {
		t.Errorf("pipelined %d µs is not 1.5x faster than serial %d µs", pipelined, serial)
	}
}

// TestMidStreamKillLosesCheckpointNotState pins the pipeline's crash
// atomicity: a rank killed while its demand checkpoint is still streaming
// loses that checkpoint entirely — the parity, the base copy, the cursor,
// and the CH snapshot stay at the previous checkpoint, so recovery restores
// the last committed state plus the replayed peer accesses, and the stats
// never count the aborted stream.
func TestMidStreamKillLosesCheckpointNotState(t *testing.T) {
	const words = 1 << 10
	const victim = 1
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: words})
	sys, err := NewSystem(w, Config{
		Groups: 1, ChecksumsPerGroup: 1,
		Log:    LogConfig{Puts: true},
		Stream: StreamConfig{Demand: true, ChunkBytes: 512, Depth: 2}, // 64-word batches
	})
	if err != nil {
		t.Fatal(err)
	}
	init := func(r int) []uint64 {
		out := make([]uint64, words)
		for i := range out {
			out[i] = uint64(r+1)<<32 | uint64(i)
		}
		return out
	}
	// Phase A: both ranks checkpoint their initial state; rank 0 then puts
	// into the victim's window (logged at the source, replayable).
	putVals := []uint64{0xabc1, 0xabc2, 0xabc3}
	w.Run(func(r int) {
		p := sys.Process(r)
		p.inner.WriteAt(0, init(r))
		p.UCCheckpoint()
		p.Barrier()
		if r == 0 {
			p.Put(victim, 5, putVals)
			p.Flush(victim)
		}
	})
	ckptsBefore := sys.Stats().UCCheckpoints

	// Phase B: the victim scatters writes across eight chunks and takes a
	// demand checkpoint that is killed while batch 4 is on the wire.
	var armed atomic.Bool
	armed.Store(true)
	sys.streamDelay = func(rank, batch, batches int) float64 {
		if rank == victim && batch == 4 && armed.Swap(false) {
			w.Kill(victim)
		}
		return 0
	}
	w.Run(func(r int) {
		if r != victim {
			return
		}
		p := sys.Process(victim)
		for c := 0; c < 8; c++ {
			p.inner.WriteAt(c*128, []uint64{0xdead0000 + uint64(c)})
		}
		p.UCCheckpoint() // dies mid-stream
	})
	if w.Alive(victim) {
		t.Fatal("victim survived the mid-stream kill")
	}
	if got := sys.Stats().UCCheckpoints; got != ckptsBefore {
		t.Fatalf("aborted stream was counted: %d checkpoints, want %d", got, ckptsBefore)
	}

	res, err := sys.Recover(victim)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	w.RunRank(victim, func() { res.Proc.ReplayAll(res.Logs) })

	// Expected: the phase-A checkpoint plus the replayed put. The victim's
	// phase-B local writes died with it — the checkpoint that would have
	// captured them never committed.
	want := init(victim)
	copy(want[5:], putVals)
	got := w.Proc(victim).ReadAt(0, words)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %#x, want %#x (committed checkpoint + replay)", i, got[i], want[i])
		}
	}
}

// TestGetCopyPreservesStampTracking pins GetCopy through the full protocol
// stack: the remote data lands in the local window (recoverable, logged),
// the caller gets a private copy, and the landing is stamped dirty for the
// next incremental checkpoint.
func TestGetCopyPreservesStampTracking(t *testing.T) {
	w, sys := newSys(t, 2, 128, nil)
	w.Run(func(r int) {
		p := sys.Process(r)
		if r == 1 {
			p.inner.WriteAt(0, []uint64{11, 22, 33, 44})
		}
		p.Barrier()
		if r == 0 {
			_, gen := p.inner.LocalReadDirty(make([]uint64, 128), 0)
			got := p.GetCopy(1, 0, 3, 64)
			p.Flush(1)
			if got[0] != 11 || got[1] != 22 || got[2] != 33 {
				t.Errorf("GetCopy returned %v, want the remote values", got[:3])
			}
			if win := p.ReadAt(64, 3); win[0] != 11 || win[2] != 33 {
				t.Errorf("GetCopy landing slot = %v, want remote values", win)
			}
			got[0] = 0xbad
			if win := p.ReadAt(64, 1); win[0] != 11 {
				t.Errorf("write through GetCopy's result reached the window: %#x", win[0])
			}
			dst := make([]uint64, 128)
			ranges, _ := p.inner.LocalReadDirty(dst, gen)
			if len(ranges) != 1 || ranges[0].Off > 64 || ranges[0].Off+ranges[0].Len < 67 || dst[66] != 33 {
				t.Errorf("GetCopy landing not stamped dirty: ranges %v", ranges)
			}
		}
		p.Gsync()
	})
}
