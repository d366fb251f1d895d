package main

// Coordinatorless kill -9 smokes: N worker processes — the test binary
// re-executed in worker mode via TestMain — bootstrap through a seed, then
// run the workload entirely peer-to-peer. The kill test SIGKILLs a live
// rank mid-run — including rank 0, the bootstrap seed's first-assigned
// rank and the fabric's default crisis arbiter — starts a replacement that
// joins through a surviving member, and demands the final windows match
// the failure-free oracle bit for bit with the seed serving zero frames
// after bootstrap (for the rank-0 case the seed is closed outright before
// the kill, so no coordinator is even alive).

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/soak"
	"repro/internal/transport"
)

// fabricWorkerEnv turns a re-executed test binary into a fabric worker;
// its value is the seed — or, for a replacement, any surviving member —
// to join through.
const fabricWorkerEnv = "REPRO_FABRIC_WORKER"

func TestMain(m *testing.M) {
	if addr := os.Getenv(fabricWorkerEnv); addr != "" {
		logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "fabric worker: "+format+"\n", args...) }
		if err := runFabricWorker(addr, "", logf); err != nil {
			fmt.Fprintf(os.Stderr, "fabric worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reap kills w and waits for the kernel to reap it. Cleanup paths use
// this instead of a bare Kill so a test never returns while its worker
// processes are still dying and writing output — on a one-core box that
// tail bleeds CPU into whichever test the shuffle runs next. Both calls
// are best-effort: the worker may already be dead (the kill under test)
// or already reaped (an explicit Wait in the test body).
func reap(w *exec.Cmd) {
	w.Process.Kill()
	w.Wait()
}

// spawnFabricWorker launches one symmetric worker joining through addr;
// extraEnv entries ("KEY=value") arm worker-side knobs such as the debug
// endpoint directory.
func spawnFabricWorker(t *testing.T, addr string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(), fabricWorkerEnv+"="+addr)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn fabric worker: %v", err)
	}
	return cmd
}

// awaitFabricBootstrap spawns the workers one at a time (so OS process i
// holds rank i) and returns the bootstrapped membership.
func awaitFabricBootstrap(t *testing.T, seed *fabric.Seed, ranks int, extraEnv ...string) ([]*exec.Cmd, []fabric.Member) {
	t.Helper()
	procs := make([]*exec.Cmd, ranks)
	for i := range procs {
		procs[i] = spawnFabricWorker(t, seed.Addr(), extraEnv...)
		deadline := time.Now().Add(30 * time.Second)
		for seed.Joined() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d did not join within 30s", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ms := seed.Members(); len(ms) == ranks {
			return procs, ms
		}
		if time.Now().After(deadline) {
			t.Fatalf("bootstrap rendezvous did not complete within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitWatermark polls the member at addr until every live rank's
// watermark (completed epochs) reaches wm — "the run is mid-flight".
func awaitWatermark(t *testing.T, addr string, wm int) {
	t.Helper()
	d := transport.NetDialer{}
	deadline := time.Now().Add(60 * time.Second)
	for {
		ms, _, err := fabric.FetchMembers(d, addr)
		if err == nil && len(ms) > 0 {
			min := int(^uint(0) >> 1)
			for _, m := range ms {
				if m.Alive && m.Watermark < min {
					min = m.Watermark
				}
			}
			if min >= wm {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fabric never reached watermark %d (last err %v)", wm, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapeFabricDebug reads every rank's advertised debug address from
// dir and scrapes its Prometheus endpoint, the same way
// scripts/check_metrics.sh does.
func scrapeFabricDebug(t *testing.T, dir string, ranks int) map[int]map[string]float64 {
	t.Helper()
	byRank := make(map[int]map[string]float64, ranks)
	for r := 0; r < ranks; r++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank%d.addr", r)))
		if err != nil {
			t.Fatalf("rank %d advertised no debug address: %v", r, err)
		}
		addr := strings.TrimSpace(string(data))
		samples, err := obs.Scrape(addr)
		if err != nil {
			t.Fatalf("scrape rank %d at %s: %v", r, addr, err)
		}
		byRank[r] = samples
	}
	return byRank
}

// smokeTuning is the fabric timing for the multi-process smokes: a
// kill -9 is detected instantly through the TCP reset, so the lease is
// pure backstop and can be generous — the full test suite runs many
// packages in parallel and a starved worker process must not read as a
// death.
var smokeTuning = fabric.Tuning{
	LeaseInterval:  250 * time.Millisecond,
	LeaseMiss:      40, // 10s of patience before a silent peer is condemned
	GossipInterval: 25 * time.Millisecond,
}

// TestClusterCoordinatorlessKill9 is the symmetric fabric's acceptance
// test: a multi-rank tcp run survives kill -9 of any single rank via
// peer-to-peer causal replay, with the seed's frame counter frozen after
// bootstrap (steady state makes zero coordinator round trips).
func TestClusterCoordinatorlessKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric smoke skipped in -short")
	}
	wl := soak.Workload{Ranks: 4, Phases: 10, Inserts: 4, PhaseDelay: 100 * time.Millisecond}
	for _, tc := range []struct {
		name      string
		victim    int
		closeSeed bool // close the seed before the kill: no coordinator alive at all
	}{
		{"victim-rank0-seed-closed", 0, true},
		{"victim-last-seed-idle", wl.Ranks - 1, false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := seedConfig{Listen: "127.0.0.1:0", Workload: wl, Fabric: smokeTuning, Timeout: 90 * time.Second}
			seed, err := newFabricSeed(cfg)
			if err != nil {
				t.Fatalf("fabric seed: %v", err)
			}
			defer seed.Close()
			// Every worker binds a debug endpoint and dumps its flight ring
			// on crisis close; the test scrapes all of it post-run.
			debugDir := t.TempDir()
			procs, members := awaitFabricBootstrap(t, seed, wl.Ranks,
				obs.EnvDebugDir+"="+debugDir, obs.EnvFlightDir+"="+debugDir)
			for _, p := range procs {
				defer reap(p)
			}
			frames := seed.FramesServed()
			if frames != uint64(wl.Ranks) {
				t.Fatalf("bootstrap served %d frames, want exactly %d (one per join)", frames, wl.Ranks)
			}
			if tc.closeSeed {
				// Closing the seed drops its connections, rendezvous replies
				// still in flight included: a worker that answers fMembers
				// has applied its world and needs the seed no more.
				for _, m := range members {
					awaitWatermark(t, m.Addr, 0)
				}
				seed.Close()
			}
			survivor := members[(tc.victim+1)%wl.Ranks].Addr

			awaitWatermark(t, survivor, 2)
			if err := procs[tc.victim].Process.Kill(); err != nil { // SIGKILL
				t.Fatalf("kill rank %d: %v", tc.victim, err)
			}
			procs[tc.victim].Wait()
			t.Logf("killed rank %d, spawning replacement via %s", tc.victim, survivor)
			repl := spawnFabricWorker(t, survivor,
				obs.EnvDebugDir+"="+debugDir, obs.EnvFlightDir+"="+debugDir)
			defer reap(repl)

			got, err := collectFabric(survivor, cfg)
			if err != nil {
				t.Fatalf("collect: %v", err)
			}
			if err := wl.Check(got); err != nil {
				t.Fatal(err)
			}

			// The recovery really was a fabric crisis: the victim's rank
			// must be back under a bumped incarnation.
			ms, _, err := fabric.FetchMembers(transport.NetDialer{}, survivor)
			if err != nil {
				t.Fatalf("members after recovery: %v", err)
			}
			for _, m := range ms {
				if m.Rank == tc.victim {
					if !m.Alive || m.Incarnation < 1 {
						t.Fatalf("victim rank %d after recovery: %+v", tc.victim, m)
					}
				}
			}
			if !tc.closeSeed {
				if after := seed.FramesServed(); after != frames {
					t.Fatalf("seed served %d frames after bootstrap — steady state is not coordinatorless", after-frames)
				}
			}

			// Scrape every rank's live debug endpoint (the workers still
			// serve until the shutdown notify) and demand the recovery left
			// a full crisis timeline: nonzero span durations for every
			// arbiter stage on one rank (the crisis arbiter), and for the
			// rebuild on the victim's rank, where the replacement runs it.
			byRank := scrapeFabricDebug(t, debugDir, wl.Ranks)
			t.Logf("per-rank metrics report:\n%s", obs.FormatReport(byRank))
			spanned := func(r int, st obs.CrisisStage) bool {
				return byRank[r][obs.PromName(st.HistName())+"_sum"] > 0
			}
			arbiter := -1
			for r := range byRank {
				ok := true
				for _, st := range obs.CrisisStages {
					if st != obs.CrisisRebuild && !spanned(r, st) {
						ok = false
						break
					}
				}
				if ok {
					arbiter = r
				}
			}
			if arbiter < 0 || !spanned(tc.victim, obs.CrisisRebuild) {
				t.Fatalf("no rank exposes nonzero crisis span durations for every arbiter stage, or the replacement none for its rebuild:\n%s", obs.FormatReport(byRank))
			}
			if byRank[arbiter]["fabric_crises"] < 1 {
				t.Fatalf("arbiter rank %d counted no crisis", arbiter)
			}
			t.Logf("crisis timeline on arbiter rank %d: quiesce=%.0fus gather=%.0fus install=%.0fus total=%.0fus; rebuild=%.0fus at the replacement",
				arbiter,
				byRank[arbiter]["crisis_quiesce_us_sum"], byRank[arbiter]["crisis_gather_us_sum"],
				byRank[arbiter]["crisis_install_us_sum"], byRank[arbiter]["crisis_total_us_sum"],
				byRank[tc.victim]["crisis_rebuild_us_sum"])
			// The crisis close dumped flight rings to disk; the arbiter's
			// ring carries the staged crisis events.
			dumps, err := filepath.Glob(filepath.Join(debugDir, "flightrec-rank*-crisis*.jsonl"))
			if err != nil || len(dumps) == 0 {
				t.Fatalf("no flight-recorder dumps in %s (err %v)", debugDir, err)
			}
			sawCrisis := false
			for _, path := range dumps {
				data, err := os.ReadFile(path)
				if err != nil || len(data) == 0 {
					t.Fatalf("flight dump %s unreadable or empty (err %v)", path, err)
				}
				sawCrisis = sawCrisis || strings.Contains(string(data), `"ev":"crisis"`)
			}
			if !sawCrisis {
				t.Fatalf("no flight dump in %s carries crisis events: %v", debugDir, dumps)
			}

			shutdownFabric(survivor)
			for i, p := range procs {
				if i == tc.victim {
					continue
				}
				if err := p.Wait(); err != nil {
					t.Fatalf("survivor rank %d exited: %v", i, err)
				}
			}
			if err := repl.Wait(); err != nil {
				t.Fatalf("replacement exited: %v", err)
			}
			seed.Close()
			leakcheck.Goroutines(t, base)
		})
	}
}

// TestClusterFabricFaultFree runs the symmetric fabric to completion
// with no faults: bit-identical windows, zero recoveries, frozen seed.
func TestClusterFabricFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric smoke skipped in -short")
	}
	base := runtime.NumGoroutine()
	wl := soak.Workload{Ranks: 4, Phases: 6, Inserts: 5}
	cfg := seedConfig{Listen: "127.0.0.1:0", Workload: wl, Fabric: smokeTuning, Timeout: 60 * time.Second}
	seed, err := newFabricSeed(cfg)
	if err != nil {
		t.Fatalf("fabric seed: %v", err)
	}
	defer seed.Close()
	procs, members := awaitFabricBootstrap(t, seed, wl.Ranks)
	for _, p := range procs {
		defer reap(p)
	}
	frames := seed.FramesServed()
	got, err := collectFabric(members[0].Addr, cfg)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if err := wl.Check(got); err != nil {
		t.Fatal(err)
	}
	if after := seed.FramesServed(); after != frames {
		t.Fatalf("seed served %d frames after bootstrap", after-frames)
	}
	ms, _, err := fabric.FetchMembers(transport.NetDialer{}, members[0].Addr)
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	for _, m := range ms {
		if !m.Alive || m.Incarnation != 0 {
			t.Fatalf("fault-free run perturbed membership: %+v", m)
		}
	}
	shutdownFabric(members[0].Addr)
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Fatalf("rank %d exited: %v", i, err)
		}
	}
	seed.Close()
	leakcheck.Goroutines(t, base)
}

// TestClusterConfigValidate pins the descriptive rejections of the seed
// and workload knobs.
func TestClusterConfigValidate(t *testing.T) {
	wl := soak.Workload{Ranks: 4, Phases: 3, Inserts: 4}
	cases := []struct {
		name string
		mut  func(*seedConfig)
		want string
	}{
		{"ok", func(c *seedConfig) {}, ""},
		{"no-listen", func(c *seedConfig) { c.Listen = "" }, "Listen address"},
		{"bad-listen", func(c *seedConfig) { c.Listen = "nonsense" }, "listen address"},
		{"one-rank", func(c *seedConfig) { c.Workload.Ranks = 1 }, "at least 2 ranks"},
		{"no-phases", func(c *seedConfig) { c.Workload.Phases = 0 }, "at least 1 phase"},
		{"no-inserts", func(c *seedConfig) { c.Workload.Inserts = 0 }, "at least 1 insert"},
		{"negative-delay", func(c *seedConfig) { c.Workload.PhaseDelay = -time.Second }, "phase delay"},
		{"negative-timeout", func(c *seedConfig) { c.Timeout = -time.Second }, "timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := seedConfig{Listen: "127.0.0.1:0", Workload: wl}
			tc.mut(&cfg)
			err := cfg.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWorkloadMetaRoundTrip: every workload a seed validates reaches its
// workers intact, a phase delay past 2^32 ns (≈ 4.3 s) and a negative
// seed included.
func TestWorkloadMetaRoundTrip(t *testing.T) {
	for _, wl := range []soak.Workload{
		{Ranks: 4, Phases: 10, Inserts: 4, PhaseDelay: 100 * time.Millisecond},
		{Ranks: 2, Phases: 1, Inserts: 1},
		{Ranks: 4, Phases: 3, Inserts: 4, PhaseDelay: 5 * time.Second},
		{Ranks: 8, Phases: 6, Inserts: 2, Seed: -42},
	} {
		if err := (seedConfig{Listen: "127.0.0.1:0", Workload: wl}).validate(); err != nil {
			t.Fatalf("%+v: %v", wl, err)
		}
		got, err := decodeWorkloadMeta(encodeWorkloadMeta(wl))
		if err != nil {
			t.Fatalf("%+v: %v", wl, err)
		}
		if got != wl {
			t.Fatalf("round trip of %+v gave %+v", wl, got)
		}
	}
}
