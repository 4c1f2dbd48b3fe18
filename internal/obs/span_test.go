package obs_test

// Tests of the request-scoped span layer: tree construction through the
// context, the zero-allocation disabled path, retroactive spans, simulator
// stream attachment, and the golden JSON + Chrome exports of a fixed trace
// built against a stub clock.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
	sim := obs.NewTrace()
	sim.Emit(obs.Event{Kind: obs.KindInstr, Track: 0, Cycle: 0, Arg: 1, Flags: obs.FlagHasOp})
	sim.Emit(obs.Event{Kind: obs.KindBarrier, Track: obs.TrackMachine, Cycle: 1})
	item1.AttachSim("IAP-I vecadd n=4", sim)
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
		obs.CurrentSpan(sctx).AttachSim("stream", nil)
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

// TestAttachSimCopies checks the attached stream is isolated from later
// reuse of the caller's recorder (the pooled Trace is released after).
func TestAttachSimCopies(t *testing.T) {
	rt := obs.NewReqTrace("r", "n")
	_, sp := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	tr := obs.AcquireTrace()
	tr.Emit(obs.Event{Kind: obs.KindInstr, Cycle: 7})
	sp.AttachSim("s", tr)
	tr.Reset()
	tr.Emit(obs.Event{Kind: obs.KindInstr, Cycle: 99})
	obs.ReleaseTrace(tr)
	sp.End()
	snap := rt.Snapshot()
	if len(snap.Sims) != 1 || snap.Sims[0].Events()[0].Cycle != 7 {
		t.Fatalf("attached events were not copied: %+v", snap.Sims)
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
			tr := obs.NewTrace()
			tr.Emit(obs.Event{Kind: obs.KindInstr})
			sp.AttachSim("s", tr)
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

// TestAttachSimCap: an attached stream retains at most MaxSimEvents events
// however long the run, while the snapshot, the flight-recorder summary
// and the Chrome export still report the full length.
func TestAttachSimCap(t *testing.T) {
	const total = 1 << 20
	long, short := obs.NewTrace(), obs.NewTrace()
	for i := 0; i < total; i++ {
		e := obs.Event{Kind: obs.KindInstr, Cycle: int64(i), Dur: 1}
		long.Emit(e)
		if i < obs.MaxSimEvents+10 {
			short.Emit(e)
		}
	}

	rt := obs.NewReqTrace("req-cap", "/v1/simulate")
	_, root := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	root.AttachSim("long", long)
	root.AttachSim("short", short)
	root.AttachSim("empty", obs.NewTrace())
	root.End()

	snap := rt.Snapshot()
	if len(snap.Sims) != 2 {
		t.Fatalf("got %d attached streams, want 2 (an empty recorder attaches nothing)", len(snap.Sims))
	}
	for _, c := range []struct {
		sim   obs.SimSnapshot
		total int
	}{{snap.Sims[0], total}, {snap.Sims[1], obs.MaxSimEvents + 10}} {
		events := c.sim.Events()
		if len(events) != obs.MaxSimEvents || c.sim.EventCount != c.total || !c.sim.Truncated {
			t.Errorf("%s: kept %d of %d events (truncated %v), want %d of %d",
				c.sim.Label, len(events), c.sim.EventCount, c.sim.Truncated, obs.MaxSimEvents, c.total)
		}
		if events[obs.MaxSimEvents-1].Cycle != obs.MaxSimEvents-1 {
			t.Errorf("%s: retained events are not the stream's prefix", c.sim.Label)
		}
	}

	// Snapshots share the immutable attached encoding instead of copying it.
	if again := rt.Snapshot(); &obs.SimHead(again.Sims[0])[0] != &obs.SimHead(snap.Sims[0])[0] {
		t.Error("a second snapshot copied the attached events")
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
		t.Error("snapshot JSON does not mark the truncated stream")
	}
	if err := snap.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(chrome.Bytes(), []byte(`"truncated":true`)) {
		t.Error("Chrome export does not mark the truncated stream")
	}
}

// TestAttachSimHeadTrace: a bounded recorder attaches the same prefix and
// full count a full Trace would, its released buffer is not shared with
// the snapshot, and a nil recorder attaches nothing.
func TestAttachSimHeadTrace(t *testing.T) {
	const total = 1 << 20
	head := obs.AcquireHeadTrace()
	for i := 0; i < total; i++ {
		head.Emit(obs.Event{Kind: obs.KindInstr, Cycle: int64(i), Dur: 1})
	}
	rt := obs.NewReqTrace("req-head", "/v1/simulate")
	_, root := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	root.AttachSim("head", head)
	root.AttachSim("nil", (*obs.HeadTrace)(nil))
	root.End()
	obs.ReleaseHeadTrace(head)
	head = obs.AcquireHeadTrace()
	head.Emit(obs.Event{Kind: obs.KindMemRead, Cycle: -1})
	obs.ReleaseHeadTrace(head)

	snap := rt.Snapshot()
	if len(snap.Sims) != 1 {
		t.Fatalf("got %d attached streams, want 1", len(snap.Sims))
	}
	sim := snap.Sims[0]
	events := sim.Events()
	if len(events) != obs.MaxSimEvents || sim.EventCount != total || !sim.Truncated {
		t.Errorf("kept %d of %d events (truncated %v), want %d of %d", len(events), sim.EventCount, sim.Truncated, obs.MaxSimEvents, total)
	}
	if e := events[0]; e.Kind != obs.KindInstr || e.Cycle != 0 {
		t.Errorf("first attached event %+v was overwritten after release", e)
	}
}
