package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/erasure"
	"repro/internal/ftrma"
	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/shm"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// Layer probes: each prices one layer alone, from outside, at the shapes
// the workloads use (8-word and 4096-word payloads, 4 MiB shards). A probe
// is probeRepeats measurements of at least probeSlice each — a second in
// all — and reports their median.
const (
	probeRepeats = 5
	probeSlice   = 200 * time.Millisecond
)

// nsPerOp measures op probeRepeats times — each time in batches until
// probeSlice has passed — and returns the median cost of one op.
func nsPerOp(batch int, op func()) float64 {
	for i := 0; i < batch; i++ {
		op() // warm pools and caches
	}
	var samples []float64
	for r := 0; r < probeRepeats; r++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < probeSlice {
			for i := 0; i < batch; i++ {
				op()
			}
			n += batch
		}
		samples = append(samples, float64(time.Since(t0))/float64(n))
	}
	return median(samples)
}

func seqWords(n int, salt uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = mix(salt + uint64(i))
	}
	return out
}

func mbPerS(bytes int, ns float64) float64 { return float64(bytes) / ns * 1e3 }

// runProbes is the body of the probe child process.
func runProbes(scratch string, seed uint64) (map[string]metric, error) {
	defer os.RemoveAll(scratch)
	m := map[string]metric{}
	probeKernels(m)
	probeLogs(m)
	probeWire(m)
	if err := probeTransports(m, scratch); err != nil {
		return nil, err
	}
	h := obs.New(0).Histogram("bench.probe.us")
	v := uint64(1)
	m["obs.observe_ns"] = metric{nsPerOp(4096, func() { v = v*3 + 1; h.Observe(v & 0xffff) }), "ns"}
	if err := probeFabric(m, scratch, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// probeKernels: the parity fold of one 32 KiB delta (k=2, m=1, as the
// fabric's groups are) and the reconstruction of one lost 4 MiB shard.
func probeKernels(m map[string]metric) {
	rs, err := erasure.NewRS(2, 1)
	if err != nil {
		panic(err)
	}
	parity, delta := seqWords(4096, 1), seqWords(4096, 2)
	ns := nsPerOp(64, func() {
		if err := rs.UpdateParityWords(parity, 0, 1, delta); err != nil {
			panic(err)
		}
	})
	m["erasure.update_parity_mb_s"] = metric{mbPerS(8*4096, ns), "MB/s"}

	const shard = 524288
	d0, d1 := seqWords(shard, 3), seqWords(shard, 4)
	par, err := rs.EncodeWords([][]uint64{d0, d1})
	if err != nil {
		panic(err)
	}
	ns = nsPerOp(1, func() {
		shards := [][]uint64{nil, d1, par[0]}
		if err := rs.ReconstructWords(shards); err != nil {
			panic(err)
		}
	})
	m["erasure.reconstruct_mb_s"] = metric{mbPerS(8*shard, ns), "MB/s"}

	shards := [][]uint64{seqWords(nRanks*ringSlots*4096, 5)}
	off := 0
	ns = nsPerOp(64, func() {
		ftrma.FoldDelta(rs, shards, 1, off, delta)
		off = (off + 4096) % len(shards[0])
	})
	m["ftrma.fold_delta_mb_s"] = metric{mbPerS(8*4096, ns), "MB/s"}
}

// probeLogs prices the access log the way the fabric drives it: one put
// record per epoch appended, then trimmed two barriers later. Appends and
// trims are timed in separate batches of logBatch so the clock reads stay
// out of the per-call figure.
func probeLogs(m map[string]metric) {
	const logBatch = 128
	run := func(words int) (appendNs, trimNs float64) {
		host := ftrma.NewLocalLogHost(4096, 128, 0.5)
		data := seqWords(words, 6)
		ec := 0
		var aSamples, tSamples []float64
		for r := 0; r < probeRepeats+1; r++ { // first repeat warms the arena
			var aNs, tNs time.Duration
			n := 0
			for aNs+tNs < probeSlice {
				t0 := time.Now()
				for i := 0; i < logBatch; i++ {
					host.AppendLP(1, ftrma.LogRecord{Kind: ftrma.LogPut, Src: 0, Trg: 1, Off: 8 * (i % 16), Data: data, LocalOff: -1, EC: ec + i, SC: ec + i, GNC: ec + i})
				}
				t1 := time.Now()
				for i := 0; i < logBatch; i++ {
					host.TrimLP(1, ec+i+1)
				}
				t2 := time.Now()
				aNs, tNs = aNs+t1.Sub(t0), tNs+t2.Sub(t1)
				ec += logBatch
				n += logBatch
			}
			if r > 0 {
				aSamples = append(aSamples, float64(aNs)/float64(n))
				tSamples = append(tSamples, float64(tNs)/float64(n))
			}
		}
		if left := host.Bytes(); left != 0 {
			panic(fmt.Sprintf("bench: log probe left %d bytes untrimmed", left))
		}
		return median(aSamples), median(tSamples)
	}
	a8, t8 := run(8)
	a4096, _ := run(4096)
	m["ftrma.log_append_ns_8w"] = metric{a8, "ns"}
	m["ftrma.log_append_ns_4096w"] = metric{a4096, "ns"}
	m["ftrma.log_trim_ns"] = metric{t8, "ns"}
}

// probeWire: one request/reply over an in-memory pipe, and the encode of
// one 8-word put the way fabric.deliver encodes it.
func probeWire(m map[string]metric) {
	a, b := net.Pipe()
	server := wire.New(b, wire.Config{Handler: func(t byte, p []byte) (byte, []byte, error) {
		var e wire.Enc
		e.I(0)
		return t, e.Bytes(), nil
	}})
	client := wire.New(a, wire.Config{})
	defer server.Close()
	defer client.Close()
	for _, words := range []int{8, 4096} {
		data := seqWords(words, 7)
		var e wire.Enc
		e.I(0)
		e.Words(data)
		payload := e.Bytes()
		ns := nsPerOp(16, func() {
			reply, err := client.Call(0x41, payload)
			if err != nil {
				panic(err)
			}
			wire.Recycle(reply)
		})
		m[fmt.Sprintf("wire.call_us_%dw", words)] = metric{ns / 1e3, "us"}
	}
	data := seqWords(8, 8)
	sink := 0
	m["wire.encode_ns_8w"] = metric{nsPerOp(1024, func() {
		var e wire.Enc
		e.I(3)
		e.I(1)
		e.I(64)
		e.Words(data)
		sink += len(e.Bytes())
	}), "ns"}
	_ = sink
}

// flushWorld is a 2-rank (or 4-rank) bare rma.World over one medium, with
// no ftrma on top, plus the per-rank transports for direct Flush calls.
type flushWorld struct {
	w      *rma.World
	trs    []transport.Transport
	closer func()
}

func newFlushWorld(medium string, n, words int, scratch string) (*flushWorld, error) {
	fw := &flushWorld{trs: make([]transport.Transport, n), closer: func() {}}
	var factory rma.TransportFactory
	switch medium {
	case "loopback":
		factory = func(rank, worldN int, ep func(int) transport.Endpoint) (transport.Transport, error) {
			fw.trs[rank] = loopback.New(ep)
			return fw.trs[rank], nil
		}
	case "tcp":
		lns := make([]net.Listener, n)
		addrs := make(map[int]string, n)
		for r := 0; r < n; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			lns[r], addrs[r] = ln, ln.Addr().String()
		}
		factory = func(rank, worldN int, ep func(int) transport.Endpoint) (transport.Transport, error) {
			p, err := tcp.New(tcp.Config{Self: rank, N: worldN, Listener: lns[rank], Peers: addrs,
				Local: loopback.New(ep), HeartbeatInterval: -1})
			fw.trs[rank] = p
			return p, err
		}
	case "shm":
		dir := filepath.Join(scratch, fmt.Sprintf("probe-shm-%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		fab, err := shm.NewFabric(n, shm.FabricConfig{Dir: dir, RingBytes: 1 << 20})
		if err != nil {
			return nil, err
		}
		fw.closer = func() { fab.Close() }
		factory = func(rank, worldN int, ep func(int) transport.Endpoint) (transport.Transport, error) {
			p, err := shm.New(shm.Config{Self: rank, N: worldN, Fabric: fab, Local: loopback.New(ep), HeartbeatInterval: -1})
			fw.trs[rank] = p
			return p, err
		}
	}
	fw.w = rma.NewWorld(rma.Config{N: n, WindowWords: words, Transport: factory})
	return fw, nil
}

func (fw *flushWorld) close() {
	fw.w.Close()
	fw.closer()
}

// probeTransports: one Flush of one put towards rank 1 and back (the
// transport's round trip), per medium and payload size; then the rma
// runtime's own epoch close on the loopback.
func probeTransports(m map[string]metric, scratch string) error {
	for _, medium := range []string{"tcp", "shm", "loopback"} {
		fw, err := newFlushWorld(medium, 2, 4096, scratch)
		if err != nil {
			return err
		}
		for _, words := range []int{8, 4096} {
			if medium == "loopback" && words != 8 {
				continue
			}
			ops := []transport.Op{{Kind: transport.KindPut, Off: 0, Data: seqWords(words, 9)}}
			ns := nsPerOp(16, func() {
				if err := fw.trs[0].Flush(0, 1, ops); err != nil {
					panic(err)
				}
			})
			m[fmt.Sprintf("%s.flush_us_%dw", medium, words)] = metric{ns / 1e3, "us"}
		}
		if medium == "loopback" {
			p := fw.w.Proc(0)
			data := seqWords(8, 10)
			m["rma.epoch_close_us_loopback"] = metric{nsPerOp(256, func() {
				p.Put(1, 0, data)
				p.Flush(1)
			}) / 1e3, "us"}
		}
		fw.close()
	}
	return nil
}

// probeFabric: cold bootstraps, then the paper's headline — the halo-tcp
// phase on a bare rma.World over tcp.Peer (no logs, no checkpoints) against
// the same phase on the fabric, both as the p50 of raw per-phase samples.
func probeFabric(m map[string]metric, scratch string, seed uint64) error {
	halo := findWorkload("halo-tcp")
	cfg := &runConfig{wl: halo, seed: seed, blockDeadline: 10 * time.Second, scratch: scratch, wedgeBlock: -1}
	var boots []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		w, err := join(cfg)
		if err != nil {
			return err
		}
		boots = append(boots, float64(time.Since(t0))/1e6)
		w.closeAll()
	}
	m["fabric.bootstrap_ms_p50"] = metric{median(boots), "ms"}

	const phases = 1200
	w, err := bootstrap(cfg)
	if err != nil {
		return err
	}
	var ftSamples []float64
	for r := 0; r < probeRepeats+1; r++ {
		res := w.runBlock(blockSpec{phases: phases})
		if res.err != nil {
			return res.err
		}
		if r > 0 { // first block warms up
			for rk := range res.phaseNs {
				ftSamples = append(ftSamples, nsToFloats(res.phaseNs[rk], 1e3)...)
			}
		}
	}
	w.closeAll()

	fw, err := newFlushWorld("tcp", nRanks, haloWords, scratch)
	if err != nil {
		return err
	}
	defer fw.close()
	samples := make([][]float64, nRanks)
	next := 1
	for r := 0; r < probeRepeats+1; r++ {
		from := next
		fw.w.Run(func(rank int) {
			p := fw.w.Proc(rank)
			st := newRankState(halo, seed, rank)
			for ph := from; ph < from+phases; ph++ {
				fillPayload(st.buf, seed, rank, ph)
				t0 := time.Now()
				issueHalo(st, p, ph)
				p.FlushAll()
				p.Gsync()
				if from > 1 {
					samples[rank] = append(samples[rank], float64(time.Since(t0))/1e3)
				}
			}
		})
		next += phases
	}
	var noft []float64
	for _, s := range samples {
		noft = append(noft, s...)
	}
	m["rma.noft_phase_us"] = metric{median(noft), "us"}
	m["ft.overhead_pct"] = metric{100 * (median(ftSamples)/median(noft) - 1), "%"}
	return nil
}
