package scr

import (
	"testing"

	"repro/internal/rma"
)

func newSys(t *testing.T, n, words int, cfg Config) (*rma.World, *System) {
	t.Helper()
	w := rma.NewWorld(rma.Config{N: n, WindowWords: words})
	s, err := NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestConfigRejected(t *testing.T) {
	w := rma.NewWorld(rma.Config{N: 2, WindowWords: 4})
	if _, err := NewSystem(w, Config{Groups: 0}); err == nil {
		t.Error("accepted zero groups")
	}
	if _, err := NewSystem(w, Config{Groups: 3}); err == nil {
		t.Error("accepted more groups than ranks")
	}
	if _, err := NewSystem(w, Config{Groups: 1, Interval: -1}); err == nil {
		t.Error("accepted negative interval")
	}
}

func TestCheckpointAtInterval(t *testing.T) {
	w, s := newSys(t, 4, 16, Config{Groups: 2, Interval: 1e-9})
	w.Run(func(r int) {
		p := s.Process(r)
		for it := 0; it < 3; it++ {
			p.PutValue((r+1)%4, 0, uint64(it))
			p.Gsync()
		}
	})
	// The first gsync anchors the schedule; the remaining two checkpoint.
	if s.rounds != 2 {
		t.Errorf("rounds = %d, want 2", s.rounds)
	}
}

func TestNoCheckpointWhenDisabled(t *testing.T) {
	w, s := newSys(t, 2, 8, Config{Groups: 1, Interval: 0})
	w.Run(func(r int) {
		s.Process(r).Gsync()
		s.Process(r).Gsync()
	})
	if s.rounds != 0 {
		t.Errorf("rounds = %d, want 0", s.rounds)
	}
}

func TestPFSSlowerThanRAM(t *testing.T) {
	run := func(mode Mode) float64 {
		w, s := newSys(t, 8, 1<<14, Config{Groups: 2, Interval: 1e-9, Mode: mode})
		w.Run(func(r int) {
			p := s.Process(r)
			for it := 0; it < 3; it++ {
				p.Gsync()
			}
		})
		return w.MaxTime()
	}
	ram := run(RAM)
	pfs := run(PFS)
	if pfs <= ram {
		t.Errorf("PFS run (%g) not slower than RAM run (%g)", pfs, ram)
	}
}

func TestRestoreReconstructsFailedRank(t *testing.T) {
	w, s := newSys(t, 4, 8, Config{Groups: 1, Interval: 0})
	w.Run(func(r int) {
		p := s.Process(r)
		for i := 0; i < 8; i++ {
			p.WriteAt(i, []uint64{uint64(10*r + i)})
		}
		p.Checkpoint()
		// Post-checkpoint modifications must be rolled back by Restore.
		p.WriteAt(0, []uint64{999})
	})
	w.Kill(2)
	if err := s.Restore(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < 8; i++ {
			want := uint64(10*r + i)
			if got := w.Proc(r).ReadAt(i, 1)[0]; got != want {
				t.Fatalf("rank %d cell %d = %d, want %d", r, i, got, want)
			}
		}
	}
	if !w.Alive(2) {
		t.Error("failed rank not respawned")
	}
}

func TestRestoreWithoutCheckpointFails(t *testing.T) {
	w, s := newSys(t, 2, 4, Config{Groups: 1})
	w.Kill(1)
	if err := s.Restore(1); err == nil {
		t.Error("restored without any checkpoint")
	}
}

func TestModeString(t *testing.T) {
	if RAM.String() != "SCR-RAM" || PFS.String() != "SCR-PFS" {
		t.Error("mode names wrong")
	}
}
