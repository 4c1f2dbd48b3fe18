package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/isa"
)

// Trace is an in-memory event recorder. It is safe for concurrent Emit
// calls; export runs after the simulation finished.
type Trace struct {
	mu     sync.Mutex
	events []Event
	_      [recorderSize - 32]byte
}

// recorderSize is the size Trace is padded to. Objects of 128 bytes are
// allocated 128-byte aligned, so two recorders never share a cache line,
// nor the pair of lines the hardware prefetches together. Concurrent runs
// emit into pooled recorders that were often allocated side by side; when
// two shared a line, every Emit of one invalidated the other's copy, and
// Emit cost about four times as much (24 against 100 ns per event with two
// emitters on a 2-core Xeon virtual machine), for as long as the pool kept
// handing out that pair.
const recorderSize = 128

// NewTrace returns an empty recorder.
func NewTrace() *Trace { return &Trace{} }

// Emit implements Tracer.
func (t *Trace) Emit(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len reports the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in emission order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Reset clears the recorder for reuse.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// tracePool recycles recorders between batch cells. A conformance matrix
// run allocates one trace per cell and each grows to thousands of events;
// reusing the event buffers keeps the parallel sweep off the allocator.
var tracePool = sync.Pool{New: func() any { return &Trace{} }}

// AcquireTrace returns an empty recorder, reusing a pooled one (and its
// grown event buffer) when available. Pair with ReleaseTrace.
func AcquireTrace() *Trace {
	t := tracePool.Get().(*Trace)
	t.Reset()
	return t
}

// ReleaseTrace recycles a recorder obtained from AcquireTrace. The caller
// must not use t (or slices returned by Events before copying — Events
// already copies) afterwards.
func ReleaseTrace(t *Trace) {
	if t == nil {
		return
	}
	t.Reset()
	tracePool.Put(t)
}

// HeadTrace is a bounded recorder: it keeps the first MaxSimEvents events
// and folds every later event into the run totals as it arrives, so its
// memory and the cost of Check do not grow with the length of the run. The
// Chrome export replays an attached simulation into one. It belongs to one
// run and takes no lock; the zero value is ready to use.
type HeadTrace struct {
	events []Event // the first MaxSimEvents events
	// rest folds the events past the first MaxSimEvents; dropped counts them.
	rest    Totals
	dropped int
}

// Emit implements Tracer.
func (t *HeadTrace) Emit(e Event) {
	if len(t.events) < MaxSimEvents {
		t.events = append(t.events, e)
		return
	}
	t.rest.add(&e)
	t.dropped++
}

// Len reports the number of events emitted, retained or not.
func (t *HeadTrace) Len() int { return len(t.events) + t.dropped }

// totals folds the retained events onto the totals of the dropped ones.
func (t *HeadTrace) totals() Totals {
	tot := t.rest
	for i := range t.events {
		tot.add(&t.events[i])
	}
	return tot
}

// Check is Trace.Check for the whole stream, retained or not. A matching
// run costs no allocation.
func (t *HeadTrace) Check(want Totals) error { return checkTotals(t.totals(), want) }

// Tally is a recorder for runs that only cross-check their event stream:
// Emit folds each event into the run totals and stores nothing, so its
// cost and size do not grow with the run. It belongs to one run and takes
// no lock; the zero value is ready to use.
//
// Because a Tally only counts, it does not need the events one by one: a
// simulator that runs a stretch of private instructions as fused code
// (uniproc's block program, a mimd core's run-ahead) folds the events
// that stretch stands for in one Fold call instead of stepping each op to
// emit them, and Fold with negated counts takes them back. Recorders that
// keep the events or their order (Trace, HeadTrace, any other Tracer) see
// every op stepped and emitted in order.
type Tally struct {
	tot Totals
	n   int
}

// Emit implements Tracer.
func (t *Tally) Emit(e Event) {
	t.tot.add(&e)
	t.n++
}

// Fold adds events to the count and tot to the totals, as if the events
// that sum to tot had been emitted one by one. Negative values take
// events folded earlier back.
func (t *Tally) Fold(events int64, tot Totals) {
	t.n += int(events)
	t.tot.Instructions += tot.Instructions
	t.tot.ALUOps += tot.ALUOps
	t.tot.MemReads += tot.MemReads
	t.tot.MemWrites += tot.MemWrites
	t.tot.Messages += tot.Messages
	t.tot.Barriers += tot.Barriers
	t.tot.NetConflictCycles += tot.NetConflictCycles
}

// Len reports the number of events folded.
func (t *Tally) Len() int { return t.n }

// Totals returns the folded run totals.
func (t *Tally) Totals() Totals { return t.tot }

// Check is Trace.Check for the folded stream. It costs no allocation for a
// matching run.
func (t *Tally) Check(want Totals) error { return checkTotals(t.tot, want) }

// ChromeOptions configures the Chrome trace-event export.
type ChromeOptions struct {
	// Process names the single process row; empty means "simulation".
	Process string
	// TrackName labels one track (thread row); nil uses "P<track>" and
	// "machine" for TrackMachine.
	TrackName func(track int32) string
}

// chromeEvent is one trace-event JSON object. Guest cycles are exported as
// microseconds (ts/dur), the unit Perfetto and chrome://tracing expect.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// eventName is the exported display name of one event.
func eventName(e Event) string {
	if e.Kind == KindInstr && e.Flags&FlagHasOp != 0 {
		return isa.Op(e.Arg).String()
	}
	if e.Kind == KindInstr {
		return fmt.Sprintf("node %d", e.Arg)
	}
	return e.Kind.String()
}

// eventArgs is the exported args payload of one event.
func eventArgs(e Event) map[string]any {
	switch e.Kind {
	case KindMemRead, KindMemWrite:
		return map[string]any{"addr": e.Arg}
	case KindSend, KindRecv:
		return map[string]any{"peer": e.Arg}
	case KindStall:
		return map[string]any{"stall_cycles": e.Arg}
	case KindReconfig:
		return map[string]any{"config_bits": e.Arg}
	case KindInstr:
		if e.Flags&FlagHasOp == 0 {
			return map[string]any{"node": e.Arg}
		}
	case KindBarrier, KindWait, KindPhase:
		// No argument payload: the span itself is the information.
	}
	return nil
}

// tid maps a track to a Chrome thread ID: the machine track renders first.
func tid(track int32) int64 {
	if track == TrackMachine {
		return 0
	}
	return int64(track) + 1
}

// appendSimChrome converts one simulator event stream to Chrome trace
// events under the given process ID: thread metadata for every observed
// track, then the events sorted by start cycle, with ts = tsOffset + cycle
// (one guest cycle per exported microsecond). trackName labels the thread
// rows; nil uses "P<track>". The shared conversion behind WriteChromeTrace
// (whole-simulation export, pid 0, no offset) and TraceSnapshot.WriteChrome
// (per-request export, one pid per attached stream, aligned to its span).
func appendSimChrome(out []chromeEvent, events []Event, pid int, tsOffset int64, trackName func(track int32) string) []chromeEvent {
	if trackName == nil {
		trackName = func(track int32) string { return fmt.Sprintf("P%d", track) }
	}

	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Cycle != sorted[j].Cycle {
			return sorted[i].Cycle < sorted[j].Cycle
		}
		return sorted[i].Track < sorted[j].Track
	})

	tracks := map[int32]bool{}
	for _, e := range sorted {
		tracks[e.Track] = true
	}
	trackList := make([]int32, 0, len(tracks))
	for tr := range tracks {
		trackList = append(trackList, tr)
	}
	sort.Slice(trackList, func(i, j int) bool { return trackList[i] < trackList[j] })

	for _, tr := range trackList {
		name := trackName(tr)
		if tr == TrackMachine {
			name = "machine"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid(tr),
			Args: map[string]any{"name": name},
		})
	}
	for _, e := range sorted {
		ce := chromeEvent{
			Name: eventName(e),
			Ts:   tsOffset + e.Cycle,
			Pid:  pid,
			Tid:  tid(e.Track),
			Args: eventArgs(e),
		}
		if e.Dur > 0 {
			dur := e.Dur
			ce.Ph, ce.Dur = "X", &dur
		} else {
			ce.Ph, ce.S = "i", "t"
		}
		out = append(out, ce)
	}
	return out
}

// WriteChromeTrace writes events as a Chrome trace-event JSON document
// ({"traceEvents": [...]}), loadable in Perfetto and chrome://tracing. One
// thread row is emitted per track, so an IAP's lockstep broadcast, an
// IMP's message interleave, a DMP's token firing and a USP's
// reconfiguration phases are visually distinguishable. Events are sorted
// by start cycle, so timestamps are monotone within every track.
func WriteChromeTrace(w io.Writer, events []Event, opt ChromeOptions) error {
	process := opt.Process
	if process == "" {
		process = "simulation"
	}

	out := make([]chromeEvent, 0, len(events)+2)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": process},
	})
	out = appendSimChrome(out, events, 0, 0, opt.TrackName)

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}

// WriteChrome exports the recorder's events; see WriteChromeTrace.
func (t *Trace) WriteChrome(w io.Writer, opt ChromeOptions) error {
	return WriteChromeTrace(w, t.Events(), opt)
}
