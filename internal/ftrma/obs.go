package ftrma

// Observability glue: the protocol mirrors its activity into an obs
// registry (Config.Metrics). The recovery path carries its own live
// counters and per-stage latency histograms — ftrma.recover.* — and the
// cumulative Stats block is mirrored as ftrma.stats.* gauges every time
// Stats() is read, so a scrape sees the same numbers the driver prints.
// All instruments are pre-resolved at NewSystem; the per-event cost is one
// atomic add.

import "repro/internal/obs"

// sysMetrics is the protocol's pre-resolved instrument set (catalog:
// docs/OBSERVABILITY.md §2, ftrma section).
type sysMetrics struct {
	recoveries *obs.Counter // ftrma.recoveries
	causal     *obs.Counter // ftrma.recover.causal
	fallbacks  *obs.Counter // ftrma.recover.fallback

	gatherUs  *obs.Histogram // ftrma.recover.gather.us
	restoreUs *obs.Histogram // ftrma.recover.restore.us
	recoverUs *obs.Histogram // ftrma.recover.us

	// stats mirrors every integer Stats field as a gauge, refreshed on
	// each Stats() read (the block is cheap and already mutex-bracketed).
	stats []statGauge
}

type statGauge struct {
	g   *obs.Gauge
	get func(*Stats) int64
}

func newSysMetrics(r *obs.Registry) *sysMetrics {
	if r == nil {
		r = obs.New(-1)
	}
	m := &sysMetrics{
		recoveries: r.Counter("ftrma.recoveries"),
		causal:     r.Counter("ftrma.recover.causal"),
		fallbacks:  r.Counter("ftrma.recover.fallback"),
		gatherUs:   r.Histogram("ftrma.recover.gather.us"),
		restoreUs:  r.Histogram("ftrma.recover.restore.us"),
		recoverUs:  r.Histogram("ftrma.recover.us"),
	}
	for _, f := range []struct {
		name string
		get  func(*Stats) int64
	}{
		{"ftrma.stats.uc_checkpoints", func(s *Stats) int64 { return int64(s.UCCheckpoints) }},
		{"ftrma.stats.cc_checkpoints", func(s *Stats) int64 { return int64(s.CCCheckpoints) }},
		{"ftrma.stats.demand_requests", func(s *Stats) int64 { return int64(s.DemandRequests) }},
		{"ftrma.stats.puts_logged", func(s *Stats) int64 { return int64(s.PutsLogged) }},
		{"ftrma.stats.gets_logged", func(s *Stats) int64 { return int64(s.GetsLogged) }},
		{"ftrma.stats.log_bytes_peak", func(s *Stats) int64 { return int64(s.LogBytesPeak) }},
		{"ftrma.stats.log_bytes_trimmed", func(s *Stats) int64 { return int64(s.LogBytesTrimmed) }},
		{"ftrma.stats.pfs_checkpoints", func(s *Stats) int64 { return int64(s.PFSCheckpoints) }},
		{"ftrma.stats.recoveries", func(s *Stats) int64 { return int64(s.Recoveries) }},
		{"ftrma.stats.fallbacks", func(s *Stats) int64 { return int64(s.Fallbacks) }},
		{"ftrma.stats.parity_rebuilds", func(s *Stats) int64 { return int64(s.ParityRebuilds) }},
		{"ftrma.stats.parity_handoffs", func(s *Stats) int64 { return int64(s.ParityHandoffs) }},
		{"ftrma.stats.actions_replayed", func(s *Stats) int64 { return int64(s.ActionsReplayed) }},
	} {
		m.stats = append(m.stats, statGauge{g: r.Gauge(f.name), get: f.get})
	}
	return m
}

// publish mirrors a Stats snapshot into the gauges.
func (m *sysMetrics) publish(st *Stats) {
	for _, sg := range m.stats {
		sg.g.Set(sg.get(st))
	}
}
