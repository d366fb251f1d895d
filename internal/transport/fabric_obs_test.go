package transport_test

// Fabric observability conformance: the lease near-miss accounting, the
// crisis span/metric surface, and the allocation cost of the fBatch-path
// instrumentation, all over the same in-process harness as the fabric
// conformance scenarios.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// TestFabricLeaseNearMiss: a deliberately tight lease shows nonzero
// near-miss accounting (fabric.lease.close_calls) without a single
// condemnation. The dial-side mute starves rank 0's reads for longer
// than the near-miss threshold (ReadTimeout - Heartbeat, the last lease
// window slice) but well short of the lease itself; the first frame
// through after the unmute lands as a near miss on a still-live peer.
func TestFabricLeaseNearMiss(t *testing.T) {
	wl := confWorkload(2)
	tun := fabric.Tuning{
		LeaseInterval:  500 * time.Millisecond,
		LeaseMiss:      3, // 1.5s lease, near-miss threshold at 1s
		GossipInterval: 25 * time.Millisecond,
	}
	_, nodes := startFabric(t, wl.Ranks, 1, wl.WindowWords(), tun)
	for _, fn := range nodes {
		obs.DumpOnFailure(t, fn.fr)
	}

	// Phase 0 establishes the dialed conns and pins "last frame seen" on
	// rank 0's conn to rank 1 at roughly now.
	driveAll(t, nodes, wl, 0, 1)

	// Starve rank 0's reads from rank 1 for 1.1s: past the 1s near-miss
	// threshold, 400ms short of lease expiry.
	addr1 := nodes[1].nd.Addr()
	nodes[0].dialer.Mute(addr1)
	time.Sleep(1100 * time.Millisecond)
	nodes[0].dialer.Unmute(addr1)

	// Phase 1 forces immediate frames through the starved conn (the
	// fBatch reply ends the read gap, no waiting on heartbeat timing).
	driveAll(t, nodes, wl, 1, 2)

	s0 := nodes[0].reg.Snapshot()
	if s0.Counters["fabric.lease.close_calls"] == 0 {
		t.Fatalf("no lease near miss recorded on rank 0: %v", s0.Counters)
	}
	for r, fn := range nodes {
		s := fn.reg.Snapshot()
		if s.Counters["fabric.condemnations"] != 0 {
			t.Fatalf("rank %d condemned a peer under a near-miss-only fault: %v", r, s.Counters)
		}
		if rec := fn.nd.Recoveries(); rec != 0 {
			t.Fatalf("rank %d recovered %d times, want 0", r, rec)
		}
	}
	// The near miss is also on the flight ring with its gap.
	var miss bool
	for _, e := range nodes[0].fr.Events() {
		if e.Code == obs.EvLeaseNearMiss && e.A == 1 && e.B >= 1000*1000 {
			miss = true
		}
	}
	if !miss {
		t.Fatalf("no EvLeaseNearMiss (peer 1, gap >= 1s) on rank 0's flight ring: %+v", nodes[0].fr.Events())
	}
}

// TestFabricBatchMetrics pins the benign-path metric surface: batch
// send/recv counts, flush and gsync latency samples, fold accounting,
// and matching epoch events on the flight ring.
func TestFabricBatchMetrics(t *testing.T) {
	wl := confWorkload(2)
	phases := uint64(wl.Phases)
	_, nodes := startFabric(t, wl.Ranks, 1, wl.WindowWords(), confTuning)
	driveAll(t, nodes, wl, 0, wl.Phases)

	for r, fn := range nodes {
		s := fn.reg.Snapshot()
		if s.Counters["fabric.batch.sent"] < phases || s.Counters["fabric.batch.recv"] < phases {
			t.Fatalf("rank %d batch counters too low: %v", r, s.Counters)
		}
		for _, h := range []string{"fabric.flush.us", "fabric.gsync.wait.us", "fabric.fold.us"} {
			if s.Histograms[h].Count == 0 {
				t.Fatalf("rank %d histogram %s empty: %+v", r, h, s.Histograms[h])
			}
		}
		// A local fold can finish inside 1 µs and record 0 (ObserveSince
		// truncates), so only the flush and the gsync wait (clamped to
		// ≥ 1 µs in Sync) must sum to a nonzero time.
		for _, h := range []string{"fabric.flush.us", "fabric.gsync.wait.us"} {
			if s.Histograms[h].Sum == 0 {
				t.Fatalf("rank %d histogram %s sums to zero: %+v", r, h, s.Histograms[h])
			}
		}
		if s.Counters["fabric.fold.sent"] != phases {
			t.Fatalf("rank %d fold.sent = %d, want %d", r, s.Counters["fabric.fold.sent"], phases)
		}
		if s.Counters["fabric.condemnations"] != 0 || s.Counters["fabric.crises"] != 0 {
			t.Fatalf("rank %d failure counters nonzero on the benign path: %v", r, s.Counters)
		}
		var opens, closes uint64
		for _, e := range fn.fr.Events() {
			switch e.Code {
			case obs.EvEpochOpen:
				opens++
			case obs.EvEpochClose:
				closes++
			}
		}
		if opens != phases || closes != phases {
			t.Fatalf("rank %d epoch events: %d opens, %d closes, want %d each", r, opens, closes, phases)
		}
	}
	// The single parity host folded every member each phase.
	hosted := nodes[0].reg.Snapshot().Counters["fabric.fold.hosted"] + nodes[1].reg.Snapshot().Counters["fabric.fold.hosted"]
	if want := uint64(wl.Ranks) * phases; hosted != want {
		t.Fatalf("fold.hosted total = %d, want %d", hosted, want)
	}
}

// TestFabricBatchAllocsSteadyState pins the allocation budget of the
// instrumented fBatch path: a steady-state single-put flush, with the
// metrics registry attached and the flight recorder disabled (the
// production default), must stay within the same budget the path had
// before instrumentation — the added counters, histogram samples, and
// disabled-recorder checks are allocation-free.
func TestFabricBatchAllocsSteadyState(t *testing.T) {
	wl := confWorkload(2)
	_, nodes := startFabric(t, wl.Ranks, 1, wl.WindowWords(), confTuning)
	for _, fn := range nodes {
		fn.fr.SetEnabled(false)
	}
	nd := nodes[0].nd
	data := []uint64{0xabc}
	flush := func() {
		nd.Put(1, 0, data)
		nd.Flush(1)
	}
	for i := 0; i < 50; i++ {
		flush()
	}
	avg := testing.AllocsPerRun(100, flush)
	// The path allocates nothing: Put stages its payload and the pend entry
	// in buffers the target's next epoch reuses, the batch and the target's
	// reply are encoded into pooled Vecs, and frame bodies, the reply
	// included, come from and go back to the wire's pool. The budget is room
	// for pool misses, not for a per-op allocation in the obs hooks. The
	// race detector makes sync.Pool drop a quarter of its Puts, so the
	// Vec and the frame bodies miss more there (5–6/op measured).
	budget := 2.0
	if raceEnabled {
		budget = 7
	}
	if avg > budget {
		t.Fatalf("instrumented fBatch flush allocates %.1f/op steady state, want <= %.0f", avg, budget)
	}
	t.Logf("instrumented fBatch flush steady state: %.1f allocs/op", avg)
	if total := nodes[0].fr.Total(); total != 0 {
		t.Fatalf("disabled flight recorder stored %d events", total)
	}
}

// TestFabricGetAllocsSteadyState pins the target side of a get: a
// steady-state flush that carries one GetCopy allocates only the slice
// GetCopy returns to its caller. The target copies the get's words once,
// into a pooled buffer that its reply gathers from and its LG log copies
// from; the requester decodes the reply into the returned slice and lands
// it in its window.
func TestFabricGetAllocsSteadyState(t *testing.T) {
	wl := confWorkload(2)
	_, nodes := startFabric(t, wl.Ranks, 1, wl.WindowWords(), confTuning)
	for _, fn := range nodes {
		fn.fr.SetEnabled(false)
	}
	nd := nodes[0].nd
	flush := func() {
		nd.GetCopy(1, 0, 8, 8)
		nd.Flush(1)
	}
	for i := 0; i < 50; i++ {
		flush()
	}
	avg := testing.AllocsPerRun(100, flush)
	budget := 1.0
	if raceEnabled {
		// sync.Pool drops a quarter of its Puts: the batch flush's 7
		// (TestFabricBatchAllocsSteadyState), the get buffer's pool and the
		// returned slice; 5–8/op measured.
		budget = 9
	}
	if avg > budget {
		t.Fatalf("a flush of one GetCopy allocates %.1f/op steady state, want <= %.0f", avg, budget)
	}
	t.Logf("a flush of one GetCopy, steady state: %.1f allocs/op", avg)
}

// TestFabricBulkFlushBytesSteadyState is the allocation pin in the bulk-shm
// shape of the repo benchmark: every rank of four puts 4096 words to each
// of its three peers, flushes, and syncs. A steady-state flush — the three
// batches, their handling at the targets and their replies — allocates
// under 1 KiB, counted process-wide (runtime.MemStats.TotalAlloc) while
// every rank flushes and nothing else runs. A copy of a payload anywhere
// on the path is 32 KiB: put staging, the gathered batch and the
// size-classed frame-body pool are what keep it out. The syncs run between
// the measured flushes, so the logs are trimmed and the log arena recycles
// its slabs as it does in a run.
func TestFabricBulkFlushBytesSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts")
	}
	const n, words, warm, phases = 4, 4096, 20, 100
	_, nodes := startFabric(t, n, 1, n*words, confTuning)
	for _, fn := range nodes {
		fn.fr.SetEnabled(false)
	}
	// One worker per rank takes steps: p >= 0 puts the rank's block — its
	// first word set to p, so every fold carries a delta — to all its
	// peers and flushes; -1 syncs.
	steps := make([]chan int, n)
	done := make(chan error, n)
	for r, fn := range nodes {
		steps[r] = make(chan int)
		defer close(steps[r])
		go func(nd *fabric.Node, step chan int) {
			data := make([]uint64, words)
			for p := range step {
				if p < 0 {
					done <- nd.Sync()
					continue
				}
				data[0] = uint64(p)
				for q := 0; q < n; q++ {
					if q != nd.Rank() {
						nd.Put(q, nd.Rank()*words, data)
					}
				}
				nd.FlushAll()
				done <- nil
			}
		}(fn.nd, steps[r])
	}
	all := func(step int) {
		for _, s := range steps {
			s <- step
		}
		for range steps {
			if err := <-done; err != nil {
				t.Fatalf("sync: %v", err)
			}
		}
	}
	var flushed uint64
	for p := 0; p < warm+phases; p++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		all(p)
		runtime.ReadMemStats(&after)
		all(-1)
		if p >= warm {
			flushed += after.TotalAlloc - before.TotalAlloc
		}
	}
	perFlush := flushed / (n * phases)
	if perFlush > 1024 {
		t.Fatalf("a bulk flush allocates %d B steady state, want <= 1024", perFlush)
	}
	t.Logf("bulk flush steady state: %d B allocated", perFlush)
}
