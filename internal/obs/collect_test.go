package obs

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interconnect"
)

func TestCollect(t *testing.T) {
	events := []Event{
		{Kind: KindInstr, Flags: FlagHasOp | FlagALU, Track: 0, Cycle: 0, Dur: 1, Arg: 2},
		{Kind: KindInstr, Flags: FlagHasOp, Track: 0, Cycle: 1, Dur: 1, Arg: 3},
		{Kind: KindInstr, Track: 1, Cycle: 0, Dur: 4, Arg: 7}, // dataflow node firing
		{Kind: KindMemRead, Track: 0, Cycle: 2, Arg: 10},
		{Kind: KindMemWrite, Track: 0, Cycle: 3, Arg: 11},
		{Kind: KindMemWrite, Track: 1, Cycle: 3, Arg: 12},
		{Kind: KindSend, Track: 0, Cycle: 4, Arg: 1},
		{Kind: KindRecv, Track: 1, Cycle: 5, Arg: 0},
		{Kind: KindBarrier, Track: TrackMachine, Cycle: 6},
		{Kind: KindStall, Track: 0, Cycle: 7, Dur: 3, Arg: 3},
		{Kind: KindWait, Track: 1, Cycle: 7, Dur: 5, Arg: 7},
		{Kind: KindReconfig, Track: TrackMachine, Cycle: 8, Arg: 1000},
	}
	reg := NewRegistry()
	if err := Collect(reg, events); err != nil {
		t.Fatal(err)
	}
	wantCounters := map[string]int64{
		MetricInstructions: 3,
		MetricALUOps:       1,
		MetricMemReads:     1,
		MetricMemWrites:    2,
		MetricMessages:     2,
		MetricBarriers:     1,
		MetricNetConflict:  3,
		MetricReconfigs:    1,
		MetricReconfigBits: 1000,
	}
	for name, want := range wantCounters {
		if got, ok := reg.CounterValue(name); !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, want)
		}
	}
	if got, _ := reg.CounterValue(MetricTrackInstrs, "track", "0"); got != 2 {
		t.Errorf("track 0 instrs = %d, want 2", got)
	}
	if got, _ := reg.CounterValue(MetricTrackInstrs, "track", "1"); got != 1 {
		t.Errorf("track 1 instrs = %d, want 1", got)
	}
	// The node firing has no FlagHasOp, so its mix op is "node".
	if got, _ := reg.CounterValue(MetricInstrMix, "track", "1", "op", "node"); got != 1 {
		t.Errorf("node mix = %d, want 1", got)
	}
	// Gauges: makespan is max(Cycle+Dur) = 12 (wait at 7+5); tracks 0 and 1.
	g, err := reg.Gauge(MetricCycles, "")
	if err != nil {
		t.Fatal(err)
	}
	if g.Value() != 12 {
		t.Errorf("%s = %g, want 12", MetricCycles, g.Value())
	}
	tracks, err := reg.Gauge(MetricTracks, "")
	if err != nil {
		t.Fatal(err)
	}
	if tracks.Value() != 2 {
		t.Errorf("%s = %g, want 2", MetricTracks, tracks.Value())
	}
}

func TestCollectAccumulates(t *testing.T) {
	reg := NewRegistry()
	ev := []Event{{Kind: KindInstr, Track: 0, Cycle: 0, Dur: 1}}
	if err := Collect(reg, ev); err != nil {
		t.Fatal(err)
	}
	if err := Collect(reg, ev); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.CounterValue(MetricInstructions); got != 2 {
		t.Errorf("two collects = %d instructions, want 2", got)
	}
}

func TestObserveNetwork(t *testing.T) {
	inner, err := interconnect.NewCrossbar(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ObserveNetwork(inner, nil); got != interconnect.Network(inner) {
		t.Error("nil tracer must return the raw network")
	}

	tr := NewTrace()
	net := ObserveNetwork(inner, tr)
	// Two transfers to the same output port in the same cycle: the second
	// serializes and loses exactly one cycle.
	if _, err := net.Transfer(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Transfer(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d stall events, want 1 (conflict-free transfer must not emit)", len(evs))
	}
	e := evs[0]
	if e.Kind != KindStall || e.Track != 1 || e.Cycle != 0 || e.Dur != 1 || e.Arg != 1 {
		t.Errorf("stall event = %+v", e)
	}
	if got := inner.Stats().ConflictCycles; got != e.Arg {
		t.Errorf("network counts %d conflict cycles, event says %d", got, e.Arg)
	}
	// The wrapper must still expose the inner network's interface.
	if net.Ports() != 4 || net.Kind() != inner.Kind() {
		t.Error("wrapper does not forward Ports/Kind")
	}
}

// collectTotals reads the seven Stats-mirroring counters Collect exports.
func collectTotals(t *testing.T, events []Event) Totals {
	t.Helper()
	reg := NewRegistry()
	if err := Collect(reg, events); err != nil {
		t.Fatal(err)
	}
	v := func(name string) int64 {
		got, _ := reg.CounterValue(name)
		return got
	}
	return Totals{
		Instructions:      v(MetricInstructions),
		ALUOps:            v(MetricALUOps),
		MemReads:          v(MetricMemReads),
		MemWrites:         v(MetricMemWrites),
		Messages:          v(MetricMessages),
		Barriers:          v(MetricBarriers),
		NetConflictCycles: v(MetricNetConflict),
	}
}

// randomEvents is a deterministic stream covering every kind and flag.
func randomEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Kind:  Kind(rng.Intn(int(kindCount))),
			Flags: uint8(rng.Intn(4)),
			Track: int32(rng.Intn(5)) - 1,
			Cycle: int64(i),
			Dur:   int64(rng.Intn(3)),
			Arg:   int64(rng.Intn(40)),
		}
	}
	return events
}

// TestTraceTotalsMatchCollect: the in-place fold counts exactly what the
// exporter counts under the seven cross-checked metric names.
func TestTraceTotalsMatchCollect(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		events := randomEvents(seed, 500)
		tr := NewTrace()
		for _, e := range events {
			tr.Emit(e)
		}
		if got, want := tr.totals(), collectTotals(t, events); got != want {
			t.Fatalf("seed %d: fold %+v, Collect %+v", seed, got, want)
		}
	}
}

// TestTraceCheckZeroAllocs: the cross-check of a matching trace neither
// copies the event buffer nor allocates.
func TestTraceCheckZeroAllocs(t *testing.T) {
	tr := NewTrace()
	for _, e := range randomEvents(1, 10000) {
		tr.Emit(e)
	}
	want := tr.totals()
	if allocs := testing.AllocsPerRun(50, func() { _ = tr.totals() }); allocs != 0 {
		t.Errorf("Totals allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tr.Check(want); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Check allocates %v per run, want 0", allocs)
	}
}

// TestTraceCheckNamesMismatch: a failed cross-check names every metric
// that disagrees with the stats, and only those.
func TestTraceCheckNamesMismatch(t *testing.T) {
	tr := NewTrace()
	for _, e := range randomEvents(2, 300) {
		tr.Emit(e)
	}
	want := tr.totals()
	want.ALUOps++
	want.NetConflictCycles += 5
	err := tr.Check(want)
	if err == nil {
		t.Fatal("drifted totals passed the cross-check")
	}
	msg := err.Error()
	for _, name := range []string{MetricALUOps, MetricNetConflict, "cross-check failed", "stats say"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not mention %s", msg, name)
		}
	}
	if strings.Contains(msg, MetricInstructions) {
		t.Errorf("error %q names a matching metric", msg)
	}
}

// TestHeadTraceMatchesTrace: the bounded recorder folds every event, not
// just the retained ones, into the totals a full Trace folds, keeps the
// stream's MaxSimEvents-long prefix, and counts every event.
func TestHeadTraceMatchesTrace(t *testing.T) {
	for _, n := range []int{0, 300, MaxSimEvents, 3*MaxSimEvents + 7} {
		events := randomEvents(int64(n), n)
		full, head := NewTrace(), &HeadTrace{}
		for _, e := range events {
			full.Emit(e)
			head.Emit(e)
		}
		if got, want := head.totals(), full.totals(); got != want {
			t.Errorf("n=%d: folded %+v, full trace %+v", n, got, want)
		}
		if err := head.Check(full.totals()); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if head.Len() != n {
			t.Errorf("n=%d: Len %d", n, head.Len())
		}
		if wantKept := min(n, MaxSimEvents); len(head.events) != wantKept {
			t.Errorf("n=%d: kept %d, want %d", n, len(head.events), wantKept)
		}
		for i := range head.events {
			if head.events[i] != events[i] {
				t.Fatalf("n=%d: retained event %d is not the stream's", n, i)
			}
		}
	}
}

// TestHeadTraceCheck: a matching cross-check allocates nothing, a failed
// one names the mismatched metric, and the zero recorder is an empty run.
func TestHeadTraceCheck(t *testing.T) {
	tr := &HeadTrace{}
	for _, e := range randomEvents(3, 10000) {
		tr.Emit(e)
	}
	want := tr.totals()
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tr.Check(want); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Check allocates %v per run, want 0", allocs)
	}
	want.MemWrites++
	if err := tr.Check(want); err == nil || !strings.Contains(err.Error(), MetricMemWrites) || strings.Contains(err.Error(), MetricMemReads) {
		t.Errorf("drifted totals: error %v, want only %s named", err, MetricMemWrites)
	}
	var empty HeadTrace
	if err := empty.Check(Totals{}); err != nil || empty.Len() != 0 {
		t.Errorf("zero recorder: Len %d, %v", empty.Len(), err)
	}
}

// everyKindEvents is a stream with every kind under every flag combination,
// stalls longer than one cycle among them.
func everyKindEvents() []Event {
	var events []Event
	for k := Kind(0); k < kindCount; k++ {
		for flags := uint8(0); flags < 4; flags++ {
			events = append(events, Event{Kind: k, Flags: flags, Track: int32(flags) - 1, Cycle: int64(len(events)), Dur: 2, Arg: int64(k) + 2})
		}
	}
	return events
}

// TestTallyMatchesTrace: a tally folds and counts a stream exactly as a
// full trace does, so both accept the same totals and reject a mismatch
// with the same error text.
func TestTallyMatchesTrace(t *testing.T) {
	events := append(everyKindEvents(), randomEvents(4, 500)...)
	full, tally := NewTrace(), &Tally{}
	for _, e := range events {
		full.Emit(e)
		tally.Emit(e)
	}
	want := full.totals()
	if tally.tot != want {
		t.Fatalf("tally folded %+v, trace %+v", tally.tot, want)
	}
	if tally.Len() != full.Len() {
		t.Errorf("tally counted %d events, trace %d", tally.Len(), full.Len())
	}
	if err := tally.Check(want); err != nil {
		t.Errorf("matching totals: %v", err)
	}
	drifts := []func(*Totals){
		func(w *Totals) { w.Instructions++ },
		func(w *Totals) { w.ALUOps-- },
		func(w *Totals) { w.MemReads++ },
		func(w *Totals) { w.MemWrites++ },
		func(w *Totals) { w.Messages++ },
		func(w *Totals) { w.Barriers++ },
		func(w *Totals) { w.NetConflictCycles += 3 },
		func(w *Totals) { *w = Totals{} },
	}
	for i, drift := range drifts {
		bad := want
		drift(&bad)
		terr, aerr := full.Check(bad), tally.Check(bad)
		if terr == nil || aerr == nil {
			t.Fatalf("drift %d passed: trace %v, tally %v", i, terr, aerr)
		}
		if terr.Error() != aerr.Error() {
			t.Errorf("drift %d: trace says %q, tally says %q", i, terr, aerr)
		}
	}
}

// TestTallyFold: folding a stretch of events in one call leaves the tally
// as emitting them one by one does, and folding the negated count and
// totals takes them back.
func TestTallyFold(t *testing.T) {
	events := append(everyKindEvents(), randomEvents(6, 300)...)
	head, tail := events[:len(events)/2], events[len(events)/2:]
	var emitted, folded Tally
	for _, e := range events {
		emitted.Emit(e)
	}
	for _, e := range head {
		folded.Emit(e)
	}
	var stretch Totals
	for i := range tail {
		stretch.add(&tail[i])
	}
	folded.Fold(int64(len(tail)), stretch)
	if folded.Len() != emitted.Len() || folded.Totals() != emitted.Totals() {
		t.Fatalf("folded %d events, %+v; emitted %d, %+v", folded.Len(), folded.Totals(), emitted.Len(), emitted.Totals())
	}
	if err := folded.Check(emitted.Totals()); err != nil {
		t.Error(err)
	}
	var before Tally
	for _, e := range head {
		before.Emit(e)
	}
	folded.Fold(-int64(len(tail)), Totals{
		Instructions: -stretch.Instructions, ALUOps: -stretch.ALUOps, MemReads: -stretch.MemReads,
		MemWrites: -stretch.MemWrites, Messages: -stretch.Messages, Barriers: -stretch.Barriers,
		NetConflictCycles: -stretch.NetConflictCycles,
	})
	if folded != before {
		t.Errorf("after the take-back the tally is %+v, want %+v", folded, before)
	}
}

// TestTallyZeroAllocs: emitting into a tally and cross-checking a matching
// run allocate nothing, the guarantee Trace.Check gives.
func TestTallyZeroAllocs(t *testing.T) {
	events := randomEvents(5, 1000)
	var want Totals
	for i := range events {
		want.add(&events[i])
	}
	var tally Tally
	var tr Tracer = &tally
	if allocs := testing.AllocsPerRun(50, func() {
		tally = Tally{}
		for _, e := range events {
			tr.Emit(e)
		}
		if err := tally.Check(want); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("1000 Emits and a Check allocate %v per run, want 0", allocs)
	}
}
