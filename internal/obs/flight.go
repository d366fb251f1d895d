package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// EventCode identifies a flight-recorder event type. The A/B/C argument
// meanings per code are part of the schema (docs/OBSERVABILITY.md §3);
// flightcat decodes them for humans.
type EventCode uint8

const (
	// EvFrameSend: a=frame type byte, b=peer rank (-1 unknown), c=size
	// (op count on the tcp path, payload bytes on the fabric path).
	EvFrameSend EventCode = 1 + iota
	// EvFrameRecv: a=frame type byte, b=peer rank (-1 unknown), c=size
	// (op count on the tcp and fabric batch paths).
	EvFrameRecv
	// EvEpochOpen: a=phase.
	EvEpochOpen
	// EvEpochClose: a=phase, b=targets flushed, c=flush us.
	EvEpochClose
	// EvGsync: a=watermark reached, c=barrier wait us.
	EvGsync
	// EvLeaseNearMiss: a=peer rank (-1 unknown), b=gap us, c=lease window us.
	EvLeaseNearMiss
	// EvCondemn: a=condemned rank, b=incarnation.
	EvCondemn
	// EvCrisis: a=CrisisStage, b=victim rank, c=stage duration us (0 on begin).
	EvCrisis
	// EvParityFold: a=group, b=member phase, c=delta ranges.
	EvParityFold
	// EvParityHandoff: a=group, b=new host rank, c=hosting version.
	EvParityHandoff
	// EvReplayChunk: a=put records, b=get records, c=install us.
	EvReplayChunk
)

var eventNames = map[EventCode]string{
	EvFrameSend:     "frame.send",
	EvFrameRecv:     "frame.recv",
	EvEpochOpen:     "epoch.open",
	EvEpochClose:    "epoch.close",
	EvGsync:         "gsync",
	EvLeaseNearMiss: "lease.near_miss",
	EvCondemn:       "condemn",
	EvCrisis:        "crisis",
	EvParityFold:    "parity.fold",
	EvParityHandoff: "parity.handoff",
	EvReplayChunk:   "replay.chunk",
}

func (c EventCode) String() string {
	if n, ok := eventNames[c]; ok {
		return n
	}
	return fmt.Sprintf("ev(%d)", uint8(c))
}

// CrisisStage identifies a recovery stage; it rides in the A field of
// EvCrisis events and names the crisis.<stage>.us span histograms.
type CrisisStage int64

const (
	CrisisQuiesce CrisisStage = iota
	CrisisGather
	CrisisRebuild
	CrisisInstall
	CrisisTotal
)

// CrisisStages lists every stage in timeline order; rankd's kill -9 smoke
// asserts a nonzero span duration for each.
var CrisisStages = []CrisisStage{CrisisQuiesce, CrisisGather, CrisisRebuild, CrisisInstall, CrisisTotal}

func (s CrisisStage) String() string {
	switch s {
	case CrisisQuiesce:
		return "quiesce"
	case CrisisGather:
		return "gather"
	case CrisisRebuild:
		return "rebuild"
	case CrisisInstall:
		return "install"
	case CrisisTotal:
		return "total"
	}
	return fmt.Sprintf("stage(%d)", int64(s))
}

// HistName returns the span histogram name for the stage,
// "crisis.<stage>.us".
func (s CrisisStage) HistName() string { return "crisis." + s.String() + ".us" }

// Event is one flight-recorder entry: a wall-clock timestamp (UnixNano,
// so timelines from different processes on one machine merge), the code,
// and three code-specific arguments.
type Event struct {
	TS      int64
	Code    EventCode
	A, B, C int64
}

// Recorder is a fixed-size per-rank ring of Events. The disabled fast
// path — one atomic load — is what hot paths pay when flight recording
// is off; recording takes a mutex (no allocation either way). A nil
// *Recorder is valid and permanently disabled.
type Recorder struct {
	enabled atomic.Bool
	rank    int

	mu   sync.Mutex
	ring []Event
	n    uint64 // total events ever recorded
}

// DefaultRingEvents is the flight-recorder ring size when none is given
// (overridable with REPRO_FLIGHTREC_EVENTS).
const DefaultRingEvents = 4096

// NewRecorder returns a disabled recorder for rank holding the last
// size events (rounded up to a power of two; <=0 means
// DefaultRingEvents).
func NewRecorder(rank, size int) *Recorder {
	if size <= 0 {
		size = DefaultRingEvents
	}
	pow := 1
	for pow < size {
		pow <<= 1
	}
	return &Recorder{rank: rank, ring: make([]Event, pow)}
}

// Rank returns the rank label.
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rank
}

// SetRank relabels the recorder (see Registry.SetRank).
func (r *Recorder) SetRank(rank int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rank = rank
	r.mu.Unlock()
}

// SetEnabled turns recording on or off.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether Record currently stores events.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Record appends one event (dropping the oldest when the ring is full).
// It allocates nothing on either path.
func (r *Recorder) Record(code EventCode, a, b, c int64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	ts := nowUnixNano()
	r.mu.Lock()
	e := &r.ring[r.n&uint64(len(r.ring)-1)]
	e.TS, e.Code, e.A, e.B, e.C = ts, code, a, b, c
	r.n++
	r.mu.Unlock()
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.ring))
	start, count := uint64(0), r.n
	if r.n > size {
		start, count = r.n-size, size
	}
	out := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, r.ring[(start+i)&(size-1)])
	}
	return out
}

// Total returns how many events were ever recorded (including ones the
// ring has since dropped).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// WriteJSONL dumps the retained events as one JSON object per line:
// {"ts":<unixnano>,"rank":R,"ev":"name","a":..,"b":..,"c":..}.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Events() {
		if _, err := fmt.Fprintf(bw, `{"ts":%d,"rank":%d,"ev":%q,"a":%d,"b":%d,"c":%d}`+"\n",
			e.TS, r.Rank(), e.Code.String(), e.A, e.B, e.C); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpTo writes the ring as JSONL to dir/flightrec-rank<R>-<tag>.jsonl
// and returns the path. It is what the fabric calls on crisis close.
func (r *Recorder) DumpTo(dir, tag string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-rank%d-%s.jsonl", r.Rank(), tag))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Environment knobs (documented in docs/CONFIG.md).
const (
	// EnvDebugDir: when set, fabric workers bind a debug endpoint on an
	// ephemeral port and drop "<dir>/rank<R>.addr" files so harnesses can
	// scrape every rank post-run.
	EnvDebugDir = "REPRO_DEBUG_DIR"
	// EnvFlightDir: when set, fabric nodes dump their flight ring here as
	// JSONL on every crisis close.
	EnvFlightDir = "REPRO_FLIGHTREC_DIR"
	// EnvFlightEvents overrides the ring size (events, rounded up to a
	// power of two).
	EnvFlightEvents = "REPRO_FLIGHTREC_EVENTS"
	// EnvFlight disables ("0") or forces ("1") flight recording; fabric
	// nodes default to enabled.
	EnvFlight = "REPRO_FLIGHTREC"
)

// RecorderFromEnv builds rank's recorder honoring the env knobs:
// ring size from REPRO_FLIGHTREC_EVENTS, enabled by default unless
// REPRO_FLIGHTREC=0.
func RecorderFromEnv(rank int) *Recorder {
	size := 0
	if s := os.Getenv(EnvFlightEvents); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			size = v
		}
	}
	r := NewRecorder(rank, size)
	r.SetEnabled(os.Getenv(EnvFlight) != "0")
	return r
}

// failer is the slice of testing.TB the dump-on-failure hook needs.
type failer interface {
	Failed() bool
	Cleanup(func())
	Logf(format string, args ...any)
}

// DumpOnFailure registers a test cleanup that logs the flight ring when
// the test failed, so a red chaos run carries its own timeline.
func DumpOnFailure(t failer, r *Recorder) {
	t.Cleanup(func() {
		if !t.Failed() || r == nil {
			return
		}
		evs := r.Events()
		sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		for _, e := range evs {
			t.Logf("flightrec rank %d: ts=%d ev=%s a=%d b=%d c=%d", r.Rank(), e.TS, e.Code, e.A, e.B, e.C)
		}
	})
}
