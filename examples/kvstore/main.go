// kvstore: the paper's distributed key-value store (§7.2.2) under the
// different logging configurations, reporting the relative cost of logging
// puts and gets (the Fig. 11c comparison at a single scale).
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/kvstore"
	"repro/internal/ftrma"
	"repro/internal/mlog"
	"repro/internal/rma"
)

func main() {
	const n, perRank = 16, 128
	cfg := kvstore.Config{
		TableSlots: 512,
		HeapCells:  512,
		ThinkScale: 40e-6,
		ThinkRate:  1,
	}

	type result struct {
		name  string
		rate  float64
		stats string
	}
	var results []result
	for _, kind := range []string{"no-FT", "f-puts", "f-puts-gets", "ML"} {
		w := rma.NewWorld(rma.Config{N: n, WindowWords: cfg.WindowWords()})
		var apiFor func(r int) rma.FullAPI
		var sys *ftrma.System
		switch kind {
		case "no-FT":
			apiFor = func(r int) rma.FullAPI { return w.Proc(r) }
		case "f-puts", "f-puts-gets":
			var err error
			sys, err = ftrma.NewSystem(w, ftrma.Config{
				Groups: 2, ChecksumsPerGroup: 1,
				Log: ftrma.LogConfig{Puts: true, Gets: kind == "f-puts-gets"},
			})
			if err != nil {
				log.Fatal(err)
			}
			apiFor = func(r int) rma.FullAPI { return sys.Process(r) }
		case "ML":
			ml, err := mlog.NewSystem(w, mlog.Config{RanksPerLogger: 4, LogGets: true})
			if err != nil {
				log.Fatal(err)
			}
			apiFor = func(r int) rma.FullAPI { return ml.Process(r) }
		}
		total := 0
		collisions := 0
		stores := make([]*kvstore.Store, n)
		w.Run(func(r int) {
			s, err := kvstore.New(apiFor(r), cfg, int64(r))
			if err != nil {
				log.Fatal(err)
			}
			stores[r] = s
			for i := 0; i < perRank; i++ {
				s.Insert(uint64(r*perRank+i) + 1)
			}
		})
		for _, s := range stores {
			total += s.Inserted
			collisions += s.Collisions
		}
		extra := fmt.Sprintf("%d inserts, %d collisions", total, collisions)
		if sys != nil {
			st := sys.Stats()
			extra += fmt.Sprintf(", %d puts + %d gets logged", st.PutsLogged, st.GetsLogged)
		}
		results = append(results, result{kind, float64(total) / w.MaxTime(), extra})
	}

	base := results[0].rate
	fmt.Printf("%-14s %14s %10s   %s\n", "protocol", "inserts/s", "overhead", "detail")
	for _, r := range results {
		fmt.Printf("%-14s %14.0f %9.1f%%   %s\n", r.name, r.rate, (base-r.rate)/base*100, r.stats)
	}
	fmt.Println("\npaper (Fig. 11c, N=256): f-puts ~12%, f-puts-gets ~33%, ML ~40% over no-FT")
}
