// Command flightcat merges per-rank flight-recorder JSONL dumps into one
// chronological, human-readable timeline. The fabric dumps one file per
// rank on every crisis close (REPRO_FLIGHTREC_DIR) and every debug
// endpoint serves the same lines at /flightrec; flightcat is how a human
// reads a multi-process recovery post-mortem:
//
//	flightcat /tmp/flightrec/flightrec-rank*-crisis1.jsonl
//
// Events carry wall-clock UnixNano timestamps, so dumps from different
// processes on one machine interleave correctly. Timestamps print as
// offsets from the earliest event; the A/B/C arguments are decoded per
// event code (the schema of docs/OBSERVABILITY.md §3).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// line is one decoded JSONL entry.
type line struct {
	TS   int64  `json:"ts"`
	Rank int    `json:"rank"`
	Ev   string `json:"ev"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	C    int64  `json:"c"`
}

// describe renders the A/B/C arguments for humans, per the event schema.
func describe(e line) string {
	switch e.Ev {
	case "frame.send":
		return fmt.Sprintf("frame 0x%02x -> rank %d, size %d", e.A, e.B, e.C)
	case "frame.recv":
		return fmt.Sprintf("frame 0x%02x <- rank %d, size %d", e.A, e.B, e.C)
	case "epoch.open":
		return fmt.Sprintf("phase %d", e.A)
	case "epoch.close":
		return fmt.Sprintf("phase %d, %d targets flushed", e.A, e.B)
	case "gsync":
		return fmt.Sprintf("watermark %d, waited %dus", e.A, e.C)
	case "lease.near_miss":
		return fmt.Sprintf("rank %d silent %dus of a %dus lease", e.A, e.B, e.C)
	case "condemn":
		return fmt.Sprintf("rank %d (incarnation %d)", e.A, e.B)
	case "crisis":
		stage := obs.CrisisStage(e.A).String()
		if e.C == 0 {
			return fmt.Sprintf("begin (victim rank %d)", e.B)
		}
		return fmt.Sprintf("stage %s done in %dus (victim rank %d)", stage, e.C, e.B)
	case "parity.fold":
		return fmt.Sprintf("group %d phase %d, %d dirty ranges", e.A, e.B, e.C)
	case "replay.chunk":
		return fmt.Sprintf("%d puts + %d gets installed in %dus", e.A, e.B, e.C)
	}
	return fmt.Sprintf("a=%d b=%d c=%d", e.A, e.B, e.C)
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flightcat FILE.jsonl...\nmerges per-rank flight-recorder dumps into one timeline\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var events []line
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flightcat:", err)
			os.Exit(1)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var e line
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				fmt.Fprintf(os.Stderr, "flightcat: %s: %v\n", path, err)
				os.Exit(1)
			}
			events = append(events, e)
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "flightcat:", err)
			os.Exit(1)
		}
		f.Close()
	}
	if len(events) == 0 {
		fmt.Println("flightcat: no events")
		return
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	t0 := events[0].TS
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, e := range events {
		fmt.Fprintf(w, "%+12.3fms  rank %-3d %-16s %s\n",
			float64(e.TS-t0)/1e6, e.Rank, e.Ev, describe(e))
	}
}
