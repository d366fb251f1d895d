package main

import (
	"fmt"

	"repro/internal/rma"
)

// The fixed shape every workload shares (README.md, "Fixed shape"): a
// 4-rank, 2-group world whose ranks run in lockstep, one phase per gsync.
const (
	nRanks  = 4
	nGroups = 2
	// ringSlots is the depth of the constant-size slot ring: the block of
	// (src, phase p) lives at off(src, p) = (src*ringSlots + p%ringSlots)*block.
	// A rank never runs more than one phase ahead of another, so a slot is
	// rewritten ringSlots phases later at the earliest — far outside the
	// two phases a causal replay can cover, which keeps replay conflict-free.
	ringSlots = 16
)

// workload is one row of the workload table. The constants are fixed work:
// nothing here is calibrated at run time.
type workload struct {
	name      string
	why       string // one line, copied into BENCHMARK.json
	transport string // "tcp" or "shm"
	// windowWords is each rank's window; block the words of one ring slot.
	windowWords int
	block       int
	// phasesPerBlock is the constant phase count of one block.
	phasesPerBlock int
	// killEveryBlock puts one fail-stop kill into every block, warm-up
	// blocks included.
	killEveryBlock bool
	// callsPerPhase is the number of rma.API calls one rank issues per
	// phase (issue + FlushAll + Sync): the unit of attempted/failed ops.
	callsPerPhase int
	// issue performs the phase's WriteAt/Put/Get* calls; check verifies
	// what the phase's gets returned, after the Sync.
	issue func(st *rankState, api rma.API, p int)
	check func(st *rankState, p int) bool
	// oracle overwrites w — pre-filled with fillWord — with the closed-form
	// content of rank r's window after phases 1..last.
	oracle func(wl *workload, seed uint64, r, last int, w []uint64)
}

var workloads = []*workload{
	{
		name:      "halo-tcp",
		why:       "8-word halo exchange on tcp: per-message cost (encode, round trip, log append, gsync) dominates, bytes do not",
		transport: "tcp", windowWords: haloWords, block: 8, phasesPerBlock: 3000,
		callsPerPhase: 6, issue: issueHalo, check: checkHalo, oracle: oracleHalo,
	},
	{
		name:      "bulk-shm",
		why:       "32 KiB blocks to all peers on shm rings: payload copy, log append, diff, parity fold and ring copies dominate",
		transport: "shm", windowWords: nRanks * ringSlots * 4096, block: 4096, phasesPerBlock: 300,
		callsPerPhase: 6, issue: issueBulk, check: checkNone, oracle: oracleBulk,
	},
	{
		name:      "reads-tcp",
		why:       "blocking and deferred 64-word gets from all peers on tcp: the request-reply direction and target-side logging",
		transport: "tcp", windowWords: 2048, block: 64, phasesPerBlock: 1500,
		callsPerPhase: 9, issue: issueReads, check: checkReads, oracle: oracleReads,
	},
	{
		name:      "sparse-kill-tcp",
		why:       "halo pattern on a 4 MiB mostly clean window with one fail-stop kill per block: checkpoint scan cost and recovery",
		transport: "tcp", windowWords: 524288, block: 8, phasesPerBlock: 200,
		killEveryBlock: true,
		callsPerPhase:  6, issue: issueHalo, check: checkHalo, oracle: oracleHalo,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

// ---- Seeded values ----------------------------------------------------------

// mix is the splitmix64 finalizer: a stateless hash, so any (rank, phase,
// word) value can be recomputed by the oracle without replaying a stream.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payloadWord is word i of the block rank r writes in phase p (p ≥ 1).
func payloadWord(seed uint64, r, p, i int) uint64 {
	return mix(seed ^ uint64(r+1)<<56 ^ uint64(p)<<20 ^ uint64(i))
}

// fillWord is word i of rank r's window after the set-up fill (phase 0).
func fillWord(seed uint64, r, i int) uint64 {
	return mix(seed ^ uint64(r+1)<<56 ^ 1<<55 ^ uint64(i))
}

func fillPayload(dst []uint64, seed uint64, r, p int) {
	for i := range dst {
		dst[i] = payloadWord(seed, r, p, i)
	}
}

// slotOff is the ring-slot layout shared by every workload.
func slotOff(block, src, p int) int { return (src*ringSlots + p%ringSlots) * block }

// lastPhase returns the largest phase in [1, last] congruent to j modulo
// mod, or 0 when there is none (the slot still holds its fill).
func lastPhase(last, j, mod int) int {
	if last < 1 {
		return 0
	}
	p := last - ((last-j)%mod+mod)%mod
	if p < 1 {
		return 0
	}
	return p
}

func left(r int) int  { return (r + nRanks - 1) % nRanks }
func right(r int) int { return (r + 1) % nRanks }

// rankState is one rank's per-run scratch: the payload buffer, the slices
// its gets of the open phase will be filled into, and the timestamps of
// blocking sub-calls when spans are on.
type rankState struct {
	wl   *workload
	seed uint64
	r    int
	buf  []uint64
	got  [][]uint64
	// sub holds (start, end) of each blocking call inside issue; only
	// filled when clock is set (traced blocks).
	clock func() int64
	sub   [][2]int64
}

func newRankState(wl *workload, seed uint64, r int) *rankState {
	return &rankState{wl: wl, seed: seed, r: r, buf: make([]uint64, wl.block)}
}

// ---- halo (halo-tcp, sparse-kill-tcp) ---------------------------------------

// haloWords is the window the halo pattern touches: the slot ring of all
// four ranks plus one landing word per ring slot.
const haloWords = nRanks*ringSlots*8 + ringSlots

const haloLanding = nRanks * ringSlots * 8

// issueHalo: WriteAt the own block, Put it to both ring neighbours, and
// GetCopy word 0 of the block the left neighbour wrote in phase p-1.
func issueHalo(st *rankState, api rma.API, p int) {
	b := st.wl.block
	off := slotOff(b, st.r, p)
	api.WriteAt(off, st.buf)
	api.Put(left(st.r), off, st.buf)
	api.Put(right(st.r), off, st.buf)
	st.got = st.got[:0]
	st.got = append(st.got, api.GetCopy(left(st.r), slotOff(b, left(st.r), p-1), 1, haloLanding+p%ringSlots))
}

// prevBlockWord is word i of the block rank q held in slot (p-1) at the top
// of phase p: its phase p-1 payload, or its fill when p-1 is the fill phase.
func prevBlockWord(wl *workload, seed uint64, q, p, i int) uint64 {
	if p-1 >= 1 {
		return payloadWord(seed, q, p-1, i)
	}
	return fillWord(seed, q, slotOff(wl.block, q, 0)+i)
}

func checkHalo(st *rankState, p int) bool {
	return st.got[0][0] == prevBlockWord(st.wl, st.seed, left(st.r), p, 0)
}

func oracleHalo(wl *workload, seed uint64, r, last int, w []uint64) {
	for _, src := range []int{r, left(r), right(r)} {
		for j := 0; j < ringSlots; j++ {
			if p := lastPhase(last, j, ringSlots); p > 0 {
				fillPayload(w[slotOff(wl.block, src, p):][:wl.block], seed, src, p)
			}
		}
	}
	for j := 0; j < ringSlots; j++ {
		if p := lastPhase(last, j, ringSlots); p > 0 {
			w[haloLanding+j] = prevBlockWord(wl, seed, left(r), p, 0)
		}
	}
}

// ---- bulk (bulk-shm) --------------------------------------------------------

// issueBulk: WriteAt the own block and Put it to all three peers.
func issueBulk(st *rankState, api rma.API, p int) {
	off := slotOff(st.wl.block, st.r, p)
	api.WriteAt(off, st.buf)
	for d := 1; d < nRanks; d++ {
		api.Put((st.r+d)%nRanks, off, st.buf)
	}
}

func checkNone(*rankState, int) bool { return true }

func oracleBulk(wl *workload, seed uint64, r, last int, w []uint64) {
	for src := 0; src < nRanks; src++ {
		for j := 0; j < ringSlots; j++ {
			if p := lastPhase(last, j, ringSlots); p > 0 {
				fillPayload(w[slotOff(wl.block, src, p):][:wl.block], seed, src, p)
			}
		}
	}
}

// ---- reads (reads-tcp) ------------------------------------------------------

// The reads window: the rank's own 16-slot ring of 64-word blocks, then a
// 4-slot landing ring per source rank.
const (
	readsLandSlots = 4
	readsLanding   = ringSlots * 64
)

func readsOwnOff(p int) int { return (p % ringSlots) * 64 }
func readsLandOff(src, p int) int {
	return readsLanding + (src*readsLandSlots+p%readsLandSlots)*64
}

// peerOrder is the seeded order rank r visits its three peers in phase p.
func peerOrder(seed uint64, r, p int) [3]int {
	peers := [3]int{(r + 1) % nRanks, (r + 2) % nRanks, (r + 3) % nRanks}
	h := mix(seed ^ uint64(r+1)<<48 ^ uint64(p))
	i := int(h % 3)
	peers[0], peers[i] = peers[i], peers[0]
	if (h>>8)&1 == 1 {
		peers[1], peers[2] = peers[2], peers[1]
	}
	return peers
}

// issueReads: WriteAt the own block; per peer, one GetBlocking of the block
// the peer wrote in phase p-1, verified on arrival, and one GetCopy of the
// same block landing in the own window (closed by the phase's flush).
func issueReads(st *rankState, api rma.API, p int) {
	api.WriteAt(readsOwnOff(p), st.buf)
	st.got = st.got[:0]
	st.sub = st.sub[:0]
	ok := true
	for _, q := range peerOrder(st.seed, st.r, p) {
		var t0 int64
		if st.clock != nil {
			t0 = st.clock()
		}
		blk := api.GetBlocking(q, readsOwnOff(p-1), 64)
		if st.clock != nil {
			st.sub = append(st.sub, [2]int64{t0, st.clock()})
		}
		ok = st.blockMatches(blk, q, p) && ok
		st.got = append(st.got, api.GetCopy(q, readsOwnOff(p-1), 64, readsLandOff(q, p)))
	}
	if !ok {
		st.got = nil // checkReads reports the arrival mismatch
	}
}

func (st *rankState) blockMatches(blk []uint64, q, p int) bool {
	for i, v := range blk {
		if v != readsPrevWord(st.seed, q, p, i) {
			return false
		}
	}
	return true
}

// readsPrevWord is word i of rank q's own block of phase p-1.
func readsPrevWord(seed uint64, q, p, i int) uint64 {
	if p-1 >= 1 {
		return payloadWord(seed, q, p-1, i)
	}
	return fillWord(seed, q, readsOwnOff(0)+i)
}

func checkReads(st *rankState, p int) bool {
	if len(st.got) != 3 {
		return false
	}
	for k, q := range peerOrder(st.seed, st.r, p) {
		if !st.blockMatches(st.got[k], q, p) {
			return false
		}
	}
	return true
}

func oracleReads(wl *workload, seed uint64, r, last int, w []uint64) {
	for j := 0; j < ringSlots; j++ {
		if p := lastPhase(last, j, ringSlots); p > 0 {
			fillPayload(w[readsOwnOff(p):][:64], seed, r, p)
		}
	}
	for q := 0; q < nRanks; q++ {
		if q == r {
			continue
		}
		for j := 0; j < readsLandSlots; j++ {
			if p := lastPhase(last, j, readsLandSlots); p > 0 {
				dst := w[readsLandOff(q, p):][:64]
				for i := range dst {
					dst[i] = readsPrevWord(seed, q, p, i)
				}
			}
		}
	}
}

// ---- Oracle -----------------------------------------------------------------

// oracleWindow is the closed-form content of rank r's window after the fill
// (phase 0) and phases 1..last: a plain array computed without running
// anything.
func oracleWindow(wl *workload, seed uint64, r, last int) []uint64 {
	w := make([]uint64, wl.windowWords)
	for i := range w {
		w[i] = fillWord(seed, r, i)
	}
	wl.oracle(wl, seed, r, last, w)
	return w
}

// diffWindow returns a description of the first mismatch, or "".
func diffWindow(got, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("window has %d words, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("word %d: got %#x, oracle %#x", i, got[i], want[i])
		}
	}
	return ""
}
