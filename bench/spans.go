package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one traced interval. Spans are recorded by the benchmark's own
// code around its calls into the fabric; ID/Parent link a phase to its
// issue/flush/sync children, and (Rank, Phase) is the id every span of one
// phase shares. Times are nanoseconds since the child process started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Phase  int    `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds a run's spans in memory until the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(name string, parent, rank, phase int, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Rank: rank, Phase: phase, Start: start, End: end})
	return id
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the time covered by child spans.
	SelfMs float64 `json:"self_ms"`
}

// summarize computes per-name totals and self times: a span's self time is
// its duration minus the durations of its direct children.
func summarize(spans []span) []spanSummary {
	child := make(map[int]int64, len(spans)/2)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*spanSummary{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}
