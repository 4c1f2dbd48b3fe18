package obs_test

// Tests of the request-scoped span layer: tree construction through the
// context, the zero-allocation disabled path, retroactive spans, simulator
// stream attachment, and the golden JSON + Chrome exports of a fixed trace
// built against a stub clock.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubClock is a hand-advanced clock for deterministic span offsets.
type stubClock struct {
	t time.Time
}

func newStubClock() *stubClock {
	return &stubClock{t: time.Unix(1000, 0).UTC()}
}

func (c *stubClock) now() time.Time { return c.t }

func (c *stubClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// buildFixedTrace constructs the deterministic trace the golden tests pin:
// a root span with a decode child, an exec child holding two parallel item
// spans (one with an attached two-event sim stream), a retroactive
// queue-wait span, and one span left open.
func buildFixedTrace() *obs.ReqTrace {
	clk := newStubClock()
	rt := obs.NewReqTraceAt("req-000042", "/v1/simulate", clk.now)
	ctx := obs.WithReqTrace(context.Background(), rt)

	ctx, root := obs.StartSpan(ctx, "/v1/simulate")
	clk.advance(1 * time.Millisecond)
	_, decode := obs.StartSpan(ctx, "decode")
	clk.advance(2 * time.Millisecond)
	decode.End()

	ectx, execSp := obs.StartSpan(ctx, "exec")
	execStart := clk.now()
	clk.advance(500 * time.Microsecond)
	obs.RecordSpan(ectx, "queue-wait", 2, execStart, 500*time.Microsecond)

	ictx1, item1 := obs.StartSpan(ectx, "item")
	item1.SetTrack(1)
	_, inner := obs.StartSpan(ictx1, "kernel")
	clk.advance(3 * time.Millisecond)
	inner.End()
	attach(item1, "IAP-I vecadd n=4", []obs.Event{
		{Kind: obs.KindInstr, Track: 0, Cycle: 0, Arg: 1, Flags: obs.FlagHasOp},
		{Kind: obs.KindBarrier, Track: obs.TrackMachine, Cycle: 1},
	})
	item1.End()

	_, item2 := obs.StartSpan(ectx, "item")
	item2.SetTrack(2)
	clk.advance(1 * time.Millisecond)
	item2.End()
	execSp.End()

	// An encode span deliberately left open: the snapshot clamps it.
	_, _ = obs.StartSpan(ctx, "encode")
	clk.advance(250 * time.Microsecond)

	root.End()
	rt.SetStatus(200)
	return rt
}

// replayOf is a replay recipe that emits events, the stand-in for a
// deterministic simulation.
func replayOf(events []obs.Event) func(obs.Tracer) error {
	return func(tr obs.Tracer) error {
		for _, e := range events {
			tr.Emit(e)
		}
		return nil
	}
}

// attach records events as a run would, into a Tally, and attaches the run
// under sp with a recipe that replays them.
func attach(sp *obs.Span, label string, events []obs.Event) {
	var run obs.Tally
	replay := replayOf(events)
	_ = replay(&run)
	sp.AttachSim(label, &run, replay)
}

// TestSpanTree checks parents, tracks and durations of the fixed trace.
func TestSpanTree(t *testing.T) {
	snap := buildFixedTrace().Snapshot()
	if snap.ID != "req-000042" || snap.Name != "/v1/simulate" {
		t.Fatalf("snapshot identity = %q %q", snap.ID, snap.Name)
	}
	if snap.Status != 200 {
		t.Errorf("status = %d, want 200", snap.Status)
	}
	if len(snap.Spans) != 8 {
		t.Fatalf("got %d spans, want 8", len(snap.Spans))
	}
	byName := map[string]obs.SpanSnapshot{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	root := byName["/v1/simulate"]
	if root.Parent != obs.SpanNone {
		t.Errorf("root parent = %d, want SpanNone", root.Parent)
	}
	if byName["decode"].Parent != root.ID {
		t.Errorf("decode parent = %d, want root %d", byName["decode"].Parent, root.ID)
	}
	if byName["decode"].DurUs != 2000 {
		t.Errorf("decode duration = %dus, want 2000", byName["decode"].DurUs)
	}
	if byName["kernel"].Track != 1 {
		t.Errorf("kernel track = %d, want inherited 1", byName["kernel"].Track)
	}
	if qw := byName["queue-wait"]; qw.DurUs != 500 || qw.Track != 2 {
		t.Errorf("queue-wait = %dus on track %d, want 500us on 2", qw.DurUs, qw.Track)
	}
	if !byName["encode"].Open {
		t.Error("encode span should be flagged open")
	}
	if len(snap.Sims) != 1 || snap.Sims[0].EventCount != 2 {
		t.Fatalf("sims = %+v, want one stream of 2 events", snap.Sims)
	}
	if snap.Sims[0].Span != byName["item"].ID && snap.Sims[0].Label != "IAP-I vecadd n=4" {
		t.Errorf("sim attachment = %+v", snap.Sims[0])
	}
}

// TestSnapshotGoldenJSON pins the /debug/requests detail body of the fixed
// trace byte-for-byte.
func TestSnapshotGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "reqtrace_snapshot.json"), buf.Bytes())
}

// TestSnapshotGoldenChrome pins the merged Chrome export — HTTP span tree
// plus the attached simulator stream — byte-for-byte.
func TestSnapshotGoldenChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "reqtrace_chrome.json"), buf.Bytes())
}

// compareGolden diffs got against the golden file, rewriting it under
// -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("export drifted from %s (rerun with -update after reviewing)\ngot:\n%s", path, got)
	}
}

// TestDisabledSpanZeroAllocs holds the tentpole guarantee: on a context
// without a ReqTrace, the whole span API — StartSpan, End, SetTrack,
// CurrentSpan, RecordSpan, AttachSim — performs zero allocations.
func TestDisabledSpanZeroAllocs(t *testing.T) {
	ctx := context.Background()
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		sctx, sp := obs.StartSpan(ctx, "decode")
		sp.SetTrack(3)
		obs.RecordSpan(sctx, "queue-wait", 1, start, time.Millisecond)
		obs.CurrentSpan(sctx).AttachSim("stream", nil, nil)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f times per request, want 0", allocs)
	}
}

// TestSpanEndIdempotent checks double-End keeps the first end time.
func TestSpanEndIdempotent(t *testing.T) {
	clk := newStubClock()
	rt := obs.NewReqTraceAt("r", "n", clk.now)
	_, sp := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "once")
	clk.advance(time.Millisecond)
	sp.End()
	clk.advance(time.Second)
	sp.End()
	if d := sp.Duration(); d != time.Millisecond {
		t.Errorf("duration after double End = %v, want 1ms", d)
	}
}

// TestAttachSimCopies checks the attached run is isolated from later
// reuse of the caller's Tally: the span copies the count and totals.
func TestAttachSimCopies(t *testing.T) {
	rt := obs.NewReqTrace("r", "n")
	_, sp := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	events := []obs.Event{{Kind: obs.KindInstr, Cycle: 7}}
	var run obs.Tally
	run.Emit(events[0])
	sp.AttachSim("s", &run, replayOf(events))
	run = obs.Tally{}
	run.Emit(obs.Event{Kind: obs.KindMemRead, Cycle: 99})
	run.Emit(obs.Event{Kind: obs.KindMemRead, Cycle: 99})
	sp.End()
	snap := rt.Snapshot()
	if len(snap.Sims) != 1 || snap.Sims[0].EventCount != 1 {
		t.Fatalf("attached run was not copied: %+v", snap.Sims)
	}
	got, err := snap.Sims[0].Events()
	if err != nil || len(got) != 1 || got[0].Cycle != 7 {
		t.Fatalf("replayed %+v, %v; want the one attached event", got, err)
	}
}

// TestConcurrentSpans hammers one trace from many goroutines the way the
// exec pool does; run under -race this is the propagation safety test.
func TestConcurrentSpans(t *testing.T) {
	rt := obs.NewReqTrace("r", "n")
	ctx, root := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ictx, sp := obs.StartSpan(ctx, "item")
			sp.SetTrack(int32(i + 1))
			_, inner := obs.StartSpan(ictx, "kernel")
			inner.End()
			obs.RecordSpan(ictx, "queue-wait", int32(i+1), time.Now(), time.Microsecond)
			attach(sp, "s", []obs.Event{{Kind: obs.KindInstr}})
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	snap := rt.Snapshot()
	if want := 1 + 32*3; len(snap.Spans) != want {
		t.Errorf("got %d spans, want %d", len(snap.Spans), want)
	}
	if len(snap.Sims) != 32 {
		t.Errorf("got %d sims, want 32", len(snap.Sims))
	}
	var buf bytes.Buffer
	if err := snap.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStartSpanDisabled is the disabled path's overhead, reported with
// allocations: go test ./internal/obs -bench StartSpanDisabled -benchmem.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := obs.StartSpan(ctx, "decode")
		sp.End()
	}
}

// BenchmarkStartSpanEnabled is the enabled counterpart, for the README's
// overhead table.
func BenchmarkStartSpanEnabled(b *testing.B) {
	rt := obs.NewReqTrace("r", "n")
	ctx := obs.WithReqTrace(context.Background(), rt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := obs.StartSpan(ctx, "decode")
		sp.End()
	}
}

// countingReplay emits total instruction events, one per cycle: a long
// run's recipe that holds no events.
func countingReplay(total int) func(obs.Tracer) error {
	return func(tr obs.Tracer) error {
		for i := 0; i < total; i++ {
			tr.Emit(obs.Event{Kind: obs.KindInstr, Cycle: int64(i), Dur: 1})
		}
		return nil
	}
}

// TestAttachSimCap: an attached run exports at most MaxSimEvents events
// however long it was, while the snapshot, the flight-recorder summary and
// the Chrome export still report the full length.
func TestAttachSimCap(t *testing.T) {
	const total = 1 << 20
	rt := obs.NewReqTrace("req-cap", "/v1/simulate")
	_, root := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	for _, c := range []struct {
		label string
		n     int
	}{{"long", total}, {"short", obs.MaxSimEvents + 10}, {"empty", 0}} {
		var run obs.Tally
		replay := countingReplay(c.n)
		_ = replay(&run)
		root.AttachSim(c.label, &run, replay)
	}
	root.End()

	snap := rt.Snapshot()
	if len(snap.Sims) != 2 {
		t.Fatalf("got %d attached runs, want 2 (an empty run attaches nothing)", len(snap.Sims))
	}
	for _, c := range []struct {
		sim   obs.SimSnapshot
		total int
	}{{snap.Sims[0], total}, {snap.Sims[1], obs.MaxSimEvents + 10}} {
		events, err := c.sim.Events()
		if err != nil {
			t.Fatalf("%s: %v", c.sim.Label, err)
		}
		if len(events) != obs.MaxSimEvents || c.sim.EventCount != c.total || !c.sim.Truncated {
			t.Errorf("%s: kept %d of %d events (truncated %v), want %d of %d",
				c.sim.Label, len(events), c.sim.EventCount, c.sim.Truncated, obs.MaxSimEvents, c.total)
		}
		if events[obs.MaxSimEvents-1].Cycle != obs.MaxSimEvents-1 {
			t.Errorf("%s: retained events are not the run's prefix", c.sim.Label)
		}
	}

	fr := obs.NewFlightRecorder(4, 4)
	fr.Record(snap)
	if got := fr.Dump().Recent[0].SimEvents; got != total+obs.MaxSimEvents+10 {
		t.Errorf("flight summary sim_events = %d, want the full %d", got, total+obs.MaxSimEvents+10)
	}

	var js, chrome bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js.Bytes(), []byte(`"truncated": true`)) {
		t.Error("snapshot JSON does not mark the truncated run")
	}
	if err := snap.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`"args":{"event_count":%d,"events_kept":%d,"name":"sim: long","truncated":true}`, total, obs.MaxSimEvents)
	if !bytes.Contains(chrome.Bytes(), []byte(want)) {
		t.Errorf("Chrome export does not mark the truncated run with %s", want)
	}
}

// TestAttachSimHeadTrace: the export replays an attached run into a
// bounded HeadTrace, so it yields the prefix and count a HeadTrace
// recorded during the run held, and a nil or empty run attaches nothing.
func TestAttachSimHeadTrace(t *testing.T) {
	const total = 3*obs.MaxSimEvents + 5
	events := make([]obs.Event, total)
	for i := range events {
		events[i] = obs.Event{Kind: obs.Kind(i % 4), Track: int32(i % 3), Cycle: int64(i / 2), Dur: int64(i % 2), Arg: int64(i)}
	}
	var run obs.Tally
	during := obs.NewTrace()
	for _, e := range events {
		run.Emit(e)
		during.Emit(e)
	}
	rt := obs.NewReqTrace("req-head", "/v1/simulate")
	_, root := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	root.AttachSim("head", &run, replayOf(events))
	root.AttachSim("nil", nil, replayOf(events))
	root.AttachSim("empty", &obs.Tally{}, replayOf(nil))
	root.End()

	snap := rt.Snapshot()
	if len(snap.Sims) != 1 {
		t.Fatalf("got %d attached runs, want 1", len(snap.Sims))
	}
	sim := snap.Sims[0]
	got, err := sim.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != obs.MaxSimEvents || sim.EventCount != total || !sim.Truncated {
		t.Errorf("kept %d of %d events (truncated %v), want %d of %d", len(got), sim.EventCount, sim.Truncated, obs.MaxSimEvents, total)
	}
	if !slices.Equal(got, during.Events()[:obs.MaxSimEvents]) {
		t.Error("replayed prefix differs from the events recorded during the run")
	}
}

// TestReplayDivergence: an export whose replay fails, or emits a different
// number of events, or events folding to different totals than the run
// recorded, returns an error and writes nothing.
func TestReplayDivergence(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindInstr, Flags: obs.FlagALU | obs.FlagHasOp, Cycle: 0, Dur: 1},
		{Kind: obs.KindMemRead, Track: 1, Cycle: 1, Arg: 4},
		{Kind: obs.KindSend, Track: 1, Cycle: 2, Arg: 0},
	}
	boom := errors.New("boom")
	for _, c := range []struct {
		name   string
		replay func(obs.Tracer) error
		want   string
	}{
		{"fails", func(obs.Tracer) error { return boom }, "boom"},
		{"count", replayOf(events[:2]), "emitted 2 events, the run 3"},
		{"totals", replayOf([]obs.Event{events[0], events[1], events[1]}), obs.MetricMessages},
		{"long", countingReplay(2 * obs.MaxSimEvents), "emitted 8192 events, the run 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := obs.NewReqTrace("req-div", "/v1/simulate")
			_, sp := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
			var run obs.Tally
			_ = replayOf(events)(&run)
			sp.AttachSim("s", &run, c.replay)
			sp.End()
			snap := rt.Snapshot()
			if _, err := snap.Sims[0].Events(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Events: error %v, want one naming %q", err, c.want)
			}
			var buf bytes.Buffer
			if err := snap.WriteChrome(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("WriteChrome: error %v, want one naming %q", err, c.want)
			}
			if buf.Len() != 0 {
				t.Errorf("a diverging replay wrote %d bytes", buf.Len())
			}
		})
	}
}
