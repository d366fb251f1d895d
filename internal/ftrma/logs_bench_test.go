package ftrma

import (
	"fmt"
	"testing"
)

// benchRecord builds a put record with an 8-word payload, the typical
// footprint of the kvstore and FFT workloads.
func benchRecord(ec int, payload []uint64) LogRecord {
	return LogRecord{Kind: LogPut, Trg: 1, Off: 0, Data: payload, LocalOff: -1, EC: ec}
}

// BenchmarkLogAppendLP measures the steady-state source-side append path:
// records are appended towards one peer and trimmed in batches, so slabs and
// segments are recycled and the arena stays at a constant size.
func BenchmarkLogAppendLP(b *testing.B) {
	s := newBenchLogStore()
	payload := make([]uint64, 8)
	for i := range payload {
		payload[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	b.SetBytes(8 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendLP(1, benchRecord(i, payload))
		if i%4096 == 4095 {
			s.TrimLP(1, i+1) // epoch advanced past every record: batch drop
		}
	}
}

// BenchmarkLogAppendLG measures the target-side get-log append the epoch
// close path (Algorithm 1 phase 2) performs per pending get.
func BenchmarkLogAppendLG(b *testing.B) {
	s := newBenchLogStore()
	payload := make([]uint64, 8)
	b.ReportAllocs()
	b.SetBytes(8 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendLG(1, LogRecord{Kind: LogGet, Src: 1, Data: payload, LocalOff: -1, GNC: i})
		if i%4096 == 4095 {
			s.TrimLG(1, i+1, 0)
		}
	}
}

// BenchmarkLogTrimLP measures one batched trim over 4096 records that are all
// covered by the peer's checkpoint (whole closed segments dropped).
func BenchmarkLogTrimLP(b *testing.B) {
	s := newBenchLogStore()
	payload := make([]uint64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 4096; j++ {
			s.AppendLP(1, benchRecord(j, payload))
		}
		b.StartTimer()
		if freed := s.TrimLP(1, 4096); freed == 0 {
			b.Fatal("trim freed nothing")
		}
	}
}

// BenchmarkLargestPeer measures the demand-checkpoint victim scan as the
// per-peer record count grows. With incrementally maintained per-peer byte
// counters the cost depends only on the peer count, not on records: the
// records=64 and records=1024 variants must not differ materially.
func BenchmarkLargestPeer(b *testing.B) {
	for _, recs := range []int{64, 1024} {
		b.Run(fmt.Sprintf("records=%d", recs), func(b *testing.B) {
			s := newBenchLogStore()
			payload := make([]uint64, 8)
			for q := 0; q < 16; q++ {
				for j := 0; j < recs; j++ {
					s.AppendLP(q, LogRecord{Trg: q, Data: payload, EC: j})
					s.AppendLG(q, LogRecord{Src: q, Data: payload, GNC: j})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if q, n := s.largestPeer(); q < 0 || n == 0 {
					b.Fatal("no victim found")
				}
			}
		})
	}
}

// BenchmarkRecoveryFetch measures the per-peer log snapshot the recovery
// protocol fetches from every survivor (Algorithm 2 lines 4-11).
func BenchmarkRecoveryFetch(b *testing.B) {
	s := newBenchLogStore()
	payload := make([]uint64, 8)
	for j := 0; j < 4096; j++ {
		s.AppendLP(3, benchRecord(j, payload))
	}
	b.SetBytes(4096 * 8 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lp := s.CopyLP(3); len(lp) != 4096 {
			b.Fatal("short fetch")
		}
	}
}
