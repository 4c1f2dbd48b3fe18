package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// This file is the request-scoped half of the observability layer: where
// trace.go records what a *simulation* did in guest cycles, a ReqTrace
// records where a *request* spent its wall time — a tree of named spans
// (decode, cache lookup, exec queue wait, per-item execution, encode)
// propagated through context.Context, with the simulator runs attachable
// under the span that ran them, as recipes the export replays. The merged
// view exports as one Chrome trace-event document per request, so a slow
// /v1/simulate call and the machine steps it triggered land in a single
// Perfetto timeline.
//
// Like the Tracer, tracing is strictly opt-in and the disabled path is
// free: StartSpan on a context without a ReqTrace returns the context
// unchanged and a nil *Span, and every Span method is nil-safe, so the
// hot path performs zero allocations when tracing is off
// (TestDisabledSpanZeroAllocs holds the guarantee).

// SpanNone is the parent ID of a root span.
const SpanNone int32 = -1

// spanData is one recorded span; offsets are from the trace's start.
type spanData struct {
	name   string
	parent int32
	track  int32
	start  time.Duration
	end    time.Duration // < 0 while the span is open
}

// MaxSimEvents is how many events the export of an attached simulator run
// keeps. A request's trace is kept alive by the flight recorder, so it
// holds a replay recipe rather than events, and the export keeps only the
// replayed run's prefix: it shows how the simulation started, and the
// snapshot still reports the full count.
const MaxSimEvents = 4096

// ReqTrace records one request's span tree. It is safe for concurrent use:
// the exec pool starts and ends item spans from many goroutines at once.
type ReqTrace struct {
	id    string
	name  string
	start time.Time
	now   func() time.Time

	mu     sync.Mutex
	status int
	spans  []spanData
	sims   []SimSnapshot // immutable once attached
}

// NewReqTrace starts an empty request trace. id is the request's unique
// identifier, name the request's label (the endpoint path, typically).
func NewReqTrace(id, name string) *ReqTrace {
	return NewReqTraceAt(id, name, time.Now)
}

// NewReqTraceAt is NewReqTrace with an injected clock, the seam the golden
// tests use; now must be monotone non-decreasing.
func NewReqTraceAt(id, name string, now func() time.Time) *ReqTrace {
	return &ReqTrace{id: id, name: name, start: now(), now: now}
}

// ID returns the request identifier the trace was created with.
func (rt *ReqTrace) ID() string { return rt.id }

// SetStatus records the request's final disposition (the HTTP status code)
// for the snapshot.
func (rt *ReqTrace) SetStatus(status int) {
	rt.mu.Lock()
	rt.status = status
	rt.mu.Unlock()
}

// startSpan appends an open span and returns its handle.
func (rt *ReqTrace) startSpan(name string, parent, track int32) *Span {
	off := rt.now().Sub(rt.start)
	rt.mu.Lock()
	id := int32(len(rt.spans))
	rt.spans = append(rt.spans, spanData{name: name, parent: parent, track: track, start: off, end: -1})
	rt.mu.Unlock()
	return &Span{rt: rt, id: id, track: track}
}

// addSpan appends an already-completed span (the retroactive form the exec
// observer uses for queue waits, where the duration is only known at end).
func (rt *ReqTrace) addSpan(name string, parent, track int32, start time.Time, d time.Duration) {
	off := start.Sub(rt.start)
	if off < 0 {
		off = 0
	}
	rt.mu.Lock()
	rt.spans = append(rt.spans, spanData{name: name, parent: parent, track: track, start: off, end: off + d})
	rt.mu.Unlock()
}

// Span is a handle to one open (or ended) span of a ReqTrace. The zero of
// usefulness is nil: every method on a nil Span is a free no-op, which is
// how the disabled path stays allocation-free.
type Span struct {
	rt    *ReqTrace
	id    int32
	track int32
}

// End closes the span at the current time. Ending an ended span is a no-op,
// so `defer sp.End()` composes with an explicit early End.
func (s *Span) End() {
	if s == nil {
		return
	}
	off := s.rt.now().Sub(s.rt.start)
	s.rt.mu.Lock()
	if s.rt.spans[s.id].end < 0 {
		s.rt.spans[s.id].end = off
	}
	s.rt.mu.Unlock()
}

// SetTrack moves the span (and the default track of its children) to a
// display lane; the server puts batch item i on track i+1 so parallel items
// render as parallel rows instead of one overlapping pile.
func (s *Span) SetTrack(track int32) {
	if s == nil {
		return
	}
	s.track = track
	s.rt.mu.Lock()
	s.rt.spans[s.id].track = track
	s.rt.mu.Unlock()
}

// Duration reports how long the span has been open (or was open, once
// ended). 0 on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.rt.mu.Lock()
	sd := s.rt.spans[s.id]
	s.rt.mu.Unlock()
	if sd.end >= 0 {
		return sd.end - sd.start
	}
	return s.rt.now().Sub(s.rt.start) - sd.start
}

// AttachSim links a finished simulator run under the span: its guest-cycle
// events export as their own process rows in the request's Chrome trace,
// aligned to the span's start. The span keeps no events. It keeps what run
// recorded, the event count and the folded totals, and replay, which must
// run the same deterministic simulation again into the Tracer it is given;
// the export replays it and checks the replay against what run recorded.
// A run that emitted no events attaches nothing.
func (s *Span) AttachSim(label string, run *Tally, replay func(Tracer) error) {
	if s == nil || run == nil || run.n == 0 {
		return
	}
	s.rt.mu.Lock()
	s.rt.sims = append(s.rt.sims, SimSnapshot{
		Span: s.id, Label: label, EventCount: run.n, Truncated: run.n > MaxSimEvents,
		tot: run.tot, replay: replay,
	})
	s.rt.mu.Unlock()
}

// spanKey carries the active *Span through a context.
type spanKey struct{}

// WithReqTrace returns a context under which StartSpan records into rt.
// The trace's first StartSpan becomes the root span. A nil rt returns ctx
// unchanged (tracing stays disabled).
func WithReqTrace(ctx context.Context, rt *ReqTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, &Span{rt: rt, id: SpanNone, track: 0})
}

// StartSpan opens a span named name under the context's active span and
// returns a context carrying the new span plus its handle. On a context
// without a ReqTrace it returns ctx unchanged and a nil Span — no
// allocation, no overhead — so call sites never need an enabled check.
// The caller must End the span on every path (the spanend analyzer
// enforces this).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.rt.startSpan(name, parent.id, parent.track)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// CurrentSpan returns the context's active span, or nil when tracing is
// disabled. The returned span is borrowed: the starter owns its End.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// RecordSpan adds an already-completed span under the context's active
// span: the retroactive form for durations measured externally (the exec
// pool's queue waits). start is the span's wall start, d its length.
func RecordSpan(ctx context.Context, name string, track int32, start time.Time, d time.Duration) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return
	}
	parent.rt.addSpan(name, parent.id, track, start, d)
}

// SpanSnapshot is one exported span. Offsets are microseconds from the
// request start, the unit the Chrome trace viewer uses.
type SpanSnapshot struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // SpanNone for the root
	Name    string `json:"name"`
	Track   int32  `json:"track"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	// Open marks a span never ended before the snapshot (its DurUs is the
	// time to the snapshot instant).
	Open bool `json:"open,omitempty"`
}

// SimSnapshot is one attached simulator run. EventCount is the run's full
// length; Truncated marks a run longer than the MaxSimEvents its export
// keeps. The events themselves are not held: Events replays the run.
type SimSnapshot struct {
	Span       int32  `json:"span"`
	Label      string `json:"label"`
	EventCount int    `json:"event_count"`
	Truncated  bool   `json:"truncated,omitempty"`
	tot        Totals
	replay     func(Tracer) error
}

// Events replays the run into a HeadTrace and returns its first events, at
// most MaxSimEvents of them, in emission order. It fails unless the replay
// emits exactly EventCount events folding to the recorded totals.
func (s SimSnapshot) Events() ([]Event, error) {
	var head HeadTrace
	if err := s.replay(&head); err != nil {
		return nil, fmt.Errorf("obs: replaying %q: %w", s.Label, err)
	}
	if head.Len() != s.EventCount {
		return nil, fmt.Errorf("obs: replaying %q emitted %d events, the run %d", s.Label, head.Len(), s.EventCount)
	}
	if err := head.Check(s.tot); err != nil {
		return nil, fmt.Errorf("obs: replaying %q diverged from the run: %w", s.Label, err)
	}
	return head.events, nil
}

// TraceSnapshot is one request's immutable exported trace.
type TraceSnapshot struct {
	ID         string         `json:"id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	Status     int            `json:"status,omitempty"`
	Spans      []SpanSnapshot `json:"spans"`
	Sims       []SimSnapshot  `json:"sims,omitempty"`
}

// Snapshot exports the trace's current state. Open spans are clamped to
// the snapshot instant and flagged. The snapshot shares no mutable state
// with the trace: attached runs are immutable and copied by value.
func (rt *ReqTrace) Snapshot() *TraceSnapshot {
	nowOff := rt.now().Sub(rt.start)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := &TraceSnapshot{
		ID:         rt.id,
		Name:       rt.name,
		Start:      rt.start,
		DurationMs: float64(nowOff.Microseconds()) / 1000,
		Status:     rt.status,
		Spans:      make([]SpanSnapshot, len(rt.spans)),
	}
	for i, sd := range rt.spans {
		end, open := sd.end, false
		if end < 0 {
			end, open = nowOff, true
		}
		snap.Spans[i] = SpanSnapshot{
			ID:      int32(i),
			Parent:  sd.parent,
			Name:    sd.name,
			Track:   sd.track,
			StartUs: sd.start.Microseconds(),
			DurUs:   (end - sd.start).Microseconds(),
			Open:    open,
		}
	}
	snap.Sims = append(snap.Sims, rt.sims...)
	return snap
}

// WriteJSON writes the snapshot as indented JSON (the /debug/requests
// detail body).
func (snap *TraceSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// spanStart finds a span's start offset in microseconds, for aligning its
// attached simulator streams.
func (snap *TraceSnapshot) spanStart(id int32) int64 {
	if id >= 0 && int(id) < len(snap.Spans) {
		return snap.Spans[id].StartUs
	}
	return 0
}

// WriteChrome writes the request as one merged Chrome trace-event JSON
// document: pid 0 holds the HTTP span tree (one thread row per track, so
// parallel batch items stack as parallel lanes), and each attached
// simulator stream renders as its own process aligned to the span that ran
// it, one guest cycle per microsecond. Load it in Perfetto or
// chrome://tracing to see a request end to end — decode, queue wait, every
// item's machine steps, encode — on one timeline.
func (snap *TraceSnapshot) WriteChrome(w io.Writer) error {
	// Replay every attached run before writing a byte, so a replay that
	// fails or diverges writes nothing.
	simEvents := make([][]Event, len(snap.Sims))
	for i, sim := range snap.Sims {
		events, err := sim.Events()
		if err != nil {
			return err
		}
		simEvents[i] = events
	}

	tracks := map[int32]bool{}
	for _, sp := range snap.Spans {
		tracks[sp.Track] = true
	}
	trackList := make([]int32, 0, len(tracks))
	for tr := range tracks {
		trackList = append(trackList, tr)
	}
	sort.Slice(trackList, func(i, j int) bool { return trackList[i] < trackList[j] })

	out := make([]chromeEvent, 0, len(snap.Spans)+len(trackList)+1)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": fmt.Sprintf("request %s %s", snap.ID, snap.Name)},
	})
	for _, tr := range trackList {
		name := "request"
		if tr != 0 {
			name = fmt.Sprintf("item %d", tr)
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: int64(tr),
			Args: map[string]any{"name": name},
		})
	}
	for _, sp := range snap.Spans {
		dur := sp.DurUs
		if dur < 1 {
			dur = 1 // sub-microsecond spans still render
		}
		d := dur
		args := map[string]any{"span": sp.ID}
		if sp.Parent != SpanNone {
			args["parent"] = sp.Parent
		}
		if sp.Open {
			args["open"] = true
		}
		out = append(out, chromeEvent{
			Name: sp.Name, Ph: "X", Ts: sp.StartUs, Dur: &d,
			Pid: 0, Tid: int64(sp.Track), Args: args,
		})
	}
	for i, sim := range snap.Sims {
		pid := i + 1
		args := map[string]any{"name": "sim: " + sim.Label}
		if sim.Truncated {
			args["truncated"] = true
			args["event_count"] = sim.EventCount
			args["events_kept"] = len(simEvents[i])
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: args,
		})
		out = appendSimChrome(out, simEvents[i], pid, snap.spanStart(sim.Span), nil)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}
