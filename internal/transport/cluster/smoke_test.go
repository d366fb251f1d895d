package cluster

// Multi-process smoke tests: the coordinator runs in-test (so the final
// windows and protocol stats are directly inspectable), while every rank
// runs in its own OS process — the test binary re-executed in worker mode
// via TestMain. The kill test SIGKILLs a live worker mid-run, starts a
// replacement, and demands the final windows match the failure-free
// oracle bit for bit via the existing ftRMA recovery path.

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

const (
	workerEnv       = "REPRO_CLUSTER_WORKER"
	fabricWorkerEnv = "REPRO_FABRIC_WORKER"
)

// TestMain turns the test binary into a rankd worker when re-executed
// with an address environment variable set: a coordinator-attached
// worker under workerEnv, a symmetric fabric worker under
// fabricWorkerEnv (whose value is the seed — or, for a replacement, any
// surviving member — to join through).
func TestMain(m *testing.M) {
	if addr := os.Getenv(workerEnv); addr != "" {
		if err := RunWorker(DialConfig{Addr: addr}); err != nil {
			fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if addr := os.Getenv(fabricWorkerEnv); addr != "" {
		logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "fabric worker: "+format+"\n", args...) }
		if err := RunFabricWorker(addr, logf); err != nil {
			fmt.Fprintf(os.Stderr, "fabric worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnWorker launches one worker process bound to the coordinator.
func spawnWorker(t *testing.T, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(), workerEnv+"="+addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker: %v", err)
	}
	return cmd
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

func compareToOracle(t *testing.T, wl Workload, got [][]uint64) {
	t.Helper()
	want, err := wl.Oracle()
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d word %d: got %#x, want %#x", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestClusterMultiProcess runs 4 worker processes to completion with no
// faults and checks the final windows against the in-process oracle.
func TestClusterMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	wl := Workload{Ranks: 4, Phases: 5, InsertsPerPhase: 6, TableSlots: 512}
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Workload: wl, Timeout: 90 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	for i := 0; i < wl.Ranks; i++ {
		w := spawnWorker(t, c.Addr())
		defer reap(w)
	}
	got, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	compareToOracle(t, wl, got)
	st := c.Stats()
	if st.Recoveries != 0 {
		t.Fatalf("fault-free run recovered %d times", st.Recoveries)
	}
	if st.CCCheckpoints == 0 {
		t.Fatalf("no coordinated checkpoints were taken")
	}
	if st.PutsLogged == 0 || st.GetsLogged == 0 {
		t.Fatalf("access logging saw no traffic: %+v", st)
	}
	// Every (group, level) of parity is elected onto a peer rank.
	for g := 0; g < 2; g++ {
		for l := 0; l < 2; l++ {
			if h := c.ParityHostRank(g, l); h < 0 || h >= wl.Ranks {
				t.Fatalf("group %d level %d parity host rank = %d", g, l, h)
			}
		}
	}
}

// spawnWorkerForRank spawns one worker and waits until the coordinator
// has bound it, so worker process i corresponds to rank i exactly (joins
// assign the lowest free rank, and we admit them one at a time).
func spawnWorkerForRank(t *testing.T, c *Coordinator, rank int) *exec.Cmd {
	t.Helper()
	w := spawnWorker(t, c.Addr())
	deadline := time.Now().Add(30 * time.Second)
	for c.RanksJoined() < rank+1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker for rank %d never joined", rank)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return w
}

// TestClusterParityHostKill9 is the peer-to-peer acceptance smoke: the
// rank elected to host group 0's UC parity is SIGKILLed mid-run. The
// coordinator must detect the death, rebuild the lost shards from the
// surviving members' checkpoint copies, hand them to a freshly elected
// host (a parity handoff), recover the dead rank itself
// through the ordinary crisis protocol, and still finish bit-identical to
// the failure-free oracle.
func TestClusterParityHostKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 5,
		TableSlots:      512,
		PhaseDelay:      60 * time.Millisecond,
	}
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Workload: wl, Timeout: 90 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	workers := make([]*exec.Cmd, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		workers[i] = spawnWorkerForRank(t, c, i)
		defer reap(workers[i])
	}

	// Wait for the full membership, find the elected host of group 0's
	// UC parity, and let it survive a few checkpointed phase boundaries
	// before the kill.
	deadline := time.Now().Add(60 * time.Second)
	for !c.Started() {
		if time.Now().After(deadline) {
			t.Fatal("cluster never completed its membership")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim := c.ParityHostRank(0, 0)
	if victim < 0 || victim >= wl.Ranks {
		t.Fatalf("no peer host elected for group 0 UC parity: rank %d", victim)
	}
	for c.PhasesDone(victim) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached phase 3")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := workers[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9 parity host: %v", err)
	}
	workers[victim].Wait()

	replacement := spawnWorker(t, c.Addr())
	defer reap(replacement)

	got, err := c.Run()
	if err != nil {
		t.Fatalf("run after parity-host kill -9: %v", err)
	}
	st := c.Stats()
	if st.Recoveries < 1 {
		t.Fatalf("parity-host kill did not trigger a recovery: %+v", st)
	}
	if st.ParityRebuilds < 1 {
		t.Fatalf("killed host's parity was never rebuilt: %+v", st)
	}
	if st.ParityHandoffs < 1 {
		t.Fatalf("no parity handoff to a new host: %+v", st)
	}
	if h := c.ParityHostRank(0, 0); h == victim {
		t.Fatalf("group 0 UC parity still registered at the dead rank %d", victim)
	}
	compareToOracle(t, wl, got)
	t.Logf("recovered from parity-host kill -9 of rank %d: %d recoveries, %d fallbacks, %d rebuilds, %d handoffs, new host %d",
		victim, st.Recoveries, st.Fallbacks, st.ParityRebuilds, st.ParityHandoffs, c.ParityHostRank(0, 0))
}

// TestClusterKill9Recovery is the acceptance smoke: 4 rank processes, a
// real SIGKILL of one mid-run, heartbeat detection, the existing ftRMA
// recovery path (log fetch, M flags, parity reconstruction, coordinated
// rollback), a replacement process inheriting the rank, and a final state
// bit-identical to the failure-free oracle.
func TestClusterKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	const victim = 2
	wl := Workload{
		Ranks:           4,
		Phases:          10,
		InsertsPerPhase: 5,
		TableSlots:      512,
		PhaseDelay:      60 * time.Millisecond,
	}
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Workload: wl, Timeout: 90 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	workers := make([]*exec.Cmd, wl.Ranks)
	for i := 0; i < wl.Ranks; i++ {
		workers[i] = spawnWorker(t, c.Addr())
		defer reap(workers[i])
	}

	// Wait until the victim rank has survived a couple of checkpointed
	// phase boundaries, then kill -9 the worker that holds it. Join order
	// is connection order, so ranks and processes correspond 1:1 only via
	// the coordinator — but killing any live process is equally good;
	// we watch the victim rank's progress and kill the process list's
	// victim slot (which may or may not host rank `victim` — the test's
	// assertions don't depend on which rank dies).
	deadline := time.Now().Add(60 * time.Second)
	for c.PhasesDone(victim) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached phase 3; phases done: %v",
				[]int{c.PhasesDone(0), c.PhasesDone(1), c.PhasesDone(2), c.PhasesDone(3)})
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := workers[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	workers[victim].Wait()

	// The batch system provides p_new: a fresh process joins and inherits
	// the failed rank and the rolled-back resume phase.
	replacement := spawnWorker(t, c.Addr())
	defer reap(replacement)

	got, err := c.Run()
	if err != nil {
		t.Fatalf("run after kill -9: %v", err)
	}
	st := c.Stats()
	if st.Recoveries < 1 {
		t.Fatalf("kill -9 did not trigger a recovery: %+v", st)
	}
	if st.Fallbacks < 1 {
		t.Fatalf("recovery did not take the coordinated rollback path: %+v", st)
	}
	if st.UCCheckpoints < 1 {
		t.Fatalf("the log budget never forced a streaming demand checkpoint: %+v", st)
	}
	compareToOracle(t, wl, got)
	t.Logf("recovered from kill -9: %d recoveries, %d fallbacks, %d UC ckpts, %d CC rounds, resume phases honored",
		st.Recoveries, st.Fallbacks, st.UCCheckpoints, st.CCCheckpoints)
}

// TestClusterConfigValidate pins the descriptive rejections of the
// cluster and workload knobs.
func TestClusterConfigValidate(t *testing.T) {
	wl := Workload{Ranks: 4, Phases: 3, InsertsPerPhase: 4, TableSlots: 256}
	base := func() Config { return Config{Listen: "127.0.0.1:0", Workload: wl} }
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"ok", func(c *Config) {}, ""},
		{"no-listen", func(c *Config) { c.Listen = "" }, "Listen address"},
		{"bad-listen", func(c *Config) { c.Listen = "nonsense" }, "listen address"},
		{"one-rank", func(c *Config) { c.Workload.Ranks = 1 }, "at least 2 ranks"},
		{"no-phases", func(c *Config) { c.Workload.Phases = 0 }, "at least 1 phase"},
		{"no-inserts", func(c *Config) { c.Workload.InsertsPerPhase = 0 }, "at least 1 insert"},
		{"tiny-table", func(c *Config) { c.Workload.TableSlots = 1 }, "conflict-free"},
		{"negative-delay", func(c *Config) { c.Workload.PhaseDelay = -time.Second }, "phase delay"},
		{"negative-heartbeat", func(c *Config) { c.Transport.HeartbeatInterval = -time.Second }, "heartbeat interval"},
		{"zero-patience", func(c *Config) { c.Transport.HeartbeatMiss = -4 }, "patience"},
		{"negative-timeout", func(c *Config) { c.Timeout = -time.Second }, "timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
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

	dial := DialConfig{Addr: "bogus"}
	if err := dial.Validate(); err == nil || !strings.Contains(err.Error(), "coordinator address") {
		t.Fatalf("bad dial address accepted: %v", err)
	}
}
