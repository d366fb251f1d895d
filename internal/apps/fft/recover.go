package fft

import (
	"repro/internal/ftrma"
	"repro/internal/rma"
)

// Recover brings a causally recovered FFT rank back to its pre-failure
// state. The ftRMA layer has already restored the last uncoordinated
// checkpoint; this routine re-executes the rank's lost iterations
// deterministically (access determinism, §4.1), interleaving the causal
// replay of logged remote accesses with recomputation of the rank's own
// work, gsync phase by gsync phase:
//
//   - remote transpose blocks arrive from the put logs (ReplayPhase);
//   - the rank's own transpose block — whose source-side log died with it
//     (Fig. 3: put logs live at the source) — is recomputed and applied
//     locally;
//   - no outgoing communication is issued: the survivors already received
//     the original puts.
//
// Each iteration spans three gsync phases (one per transpose), so the
// restart iteration is GNC/3 and the last lost phase is Logs.MaxGNC().
func Recover(p *ftrma.Process, logs *ftrma.ReplayLogs, cfg Config) {
	if err := cfg.Validate(p.N()); err != nil {
		panic(err)
	}
	rank := p.Rank()
	r, cc := rank/cfg.Q, rank%cfg.Q
	line := make([]complex128, cfg.N)
	buf := make([]uint64, cfg.blockWords())
	maxG := logs.MaxGNC()

	// Like the forward path, every phase reads the window into a reused
	// private snapshot; the self
	// transpose block is stored back through WriteAt (the survivors'
	// blocks arrive from the logs), so the fresh window's dirty stamps
	// stay exact through the whole recovery.
	win := make([]uint64, cfg.WindowWords())
	for it := p.GNC() / 3; 3*it <= maxG; it++ {
		// Phase 1: recompute FFT_x and the self block of transpose A->B,
		// then let the survivors' blocks arrive from the logs.
		rma.ReadWindow(p, win)
		fftX(win, cfg, line)
		packA(win, cfg, r, buf)
		p.WriteAt(cfg.offB()+r*cfg.blockWords(), buf)
		p.ReplayPhase(logs, 3*it)

		// Phase 2: same for FFT_y and transpose B->C.
		rma.ReadWindow(p, win)
		fftY(win, cfg, line)
		packB(win, cfg, cc, buf)
		p.WriteAt(cfg.offC()+cc*cfg.blockWords(), buf)
		p.ReplayPhase(logs, 3*it+1)

		// Phase 3: FFT_z (+ evolution) and transpose C->A. This rank is a
		// destination of its own put only when its row equals its column.
		rma.ReadWindow(p, win)
		fftZ(win, cfg, line, r, cc, it)
		if r == cc {
			packC(win, cfg, cc, buf)
			p.WriteAt(cfg.offA()+r*cfg.blockWords(), buf)
		}
		p.ReplayPhase(logs, 3*it+2)
	}
}
