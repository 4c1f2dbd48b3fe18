package obs_test

// Integration tests of the tracing layer against the real simulators: the
// golden Chrome export of a tiny lockstep run, the timestamp invariants of
// the exporter on real event streams, concurrent emission, the
// zero-allocation guarantee of the disabled path, and the invariant that
// collected metrics equal the machine.Stats of the traced run.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// update regenerates the golden Chrome trace instead of comparing:
//
//	go test ./internal/obs -run TestChromeGolden -update
var update = flag.Bool("update", false, "rewrite golden trace files")

// TestChromeGolden_IAP1VecAdd pins the Chrome export of a 2-lane IAP-I
// vector add over 4 elements byte-for-byte. The simulators are
// deterministic, so any diff is a real change to either the
// instrumentation or the export format.
func TestChromeGolden_IAP1VecAdd(t *testing.T) {
	a := []isa.Word{1, 2, 3, 4}
	b := []isa.Word{10, 20, 30, 40}
	tr := obs.NewTrace()
	if _, err := workload.VecAdd(mustClass(t, "IAP-I"), 2, a, b, workload.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, obs.ChromeOptions{Process: "IAP-I vecadd"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_iap1_vecadd.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("Chrome export drifted from golden file (rerun with -update after reviewing)\ngot:\n%s", buf.String())
	}
}

// chromeEvents decodes the data (non-metadata) events of an export.
func chromeEvents(t *testing.T, data []byte) []struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Tid  int64  `json:"tid"`
} {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Tid  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	out := doc.TraceEvents[:0]
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			out = append(out, e)
		}
	}
	return out
}

// TestChromeMonotonePerTrack_MIMD checks the exporter's ordering invariant
// on a real asynchronous-core run: within every thread row, timestamps
// never go backwards.
func TestChromeMonotonePerTrack_MIMD(t *testing.T) {
	a, b := seq(64, 1), seq(64, 3)
	imp2 := mustClass(t, "IMP-II")
	tr := obs.NewTrace()
	if _, err := workload.Dot(imp2, 4, a, b, workload.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, obs.ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	last := map[int64]int64{}
	count := 0
	for _, e := range chromeEvents(t, buf.Bytes()) {
		if prev, seen := last[e.Tid]; seen && e.Ts < prev {
			t.Fatalf("tid %d: ts %d after %d (event %s)", e.Tid, e.Ts, prev, e.Name)
		}
		last[e.Tid] = e.Ts
		count++
	}
	if count == 0 {
		t.Fatal("no data events recorded")
	}
	// One row per core; the butterfly uses no barriers, so no machine row.
	if len(last) != 4 {
		t.Errorf("got %d thread rows, want 4 (one per core)", len(last))
	}
}

// TestChromeConcurrentMIMDEmission shares one Trace between several MIMD
// runs emitting from concurrent goroutines and checks the export is still
// one valid JSON document.
func TestChromeConcurrentMIMDEmission(t *testing.T) {
	a, b := seq(32, 1), seq(32, 3)
	imp2 := mustClass(t, "IMP-II")
	tr := obs.NewTrace()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = workload.Dot(imp2, 4, a, b, workload.WithTracer(tr))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, obs.ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent emission produced an invalid JSON export")
	}
	if got := chromeEvents(t, buf.Bytes()); len(got) != 4*tracedEventCount(t, a, b) {
		t.Errorf("got %d events from 4 runs, want 4x%d", len(got), tracedEventCount(t, a, b))
	}
}

// tracedEventCount runs one traced IMP-II dot and reports its event count.
func tracedEventCount(t *testing.T, a, b []isa.Word) int {
	t.Helper()
	imp2 := mustClass(t, "IMP-II")
	tr := obs.NewTrace()
	if _, err := workload.Dot(imp2, 4, a, b, workload.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	return tr.Len()
}

// TestDisabledTracerZeroAllocs proves the no-op path: machine.Step with a
// nil Tracer must not allocate, for memory, network and plain ALU
// instructions alike.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	mem, err := machine.NewMemory(16)
	if err != nil {
		t.Fatal(err)
	}
	var inbox isa.Word
	env := machine.Env{
		Lane:     0,
		Load:     mem.Load,
		Store:    mem.Store,
		SendTo:   func(peer int, val isa.Word) error { inbox = val; return nil },
		RecvFrom: func(peer int) (isa.Word, error) { return inbox, nil },
	}
	prog, err := isa.Assemble(`
        ldi  r1, 3
        ldi  r2, 4
        add  r3, r1, r2
        st   r3, [r1+0]
        ld   r4, [r1+0]
        send r4, r2
        recv r5, r2
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	var regs machine.Regs
	allocs := testing.AllocsPerRun(100, func() {
		for pc := 0; pc < len(prog); {
			out, err := machine.Step(&regs, pc, prog[pc], env)
			if err != nil {
				t.Fatal(err)
			}
			if out.Halted {
				break
			}
			pc = out.NextPC
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer Step path allocates %.1f times per program, want 0", allocs)
	}
}

// TestMetricsMatchStats checks the tentpole invariant across classes: the
// counters Collect aggregates from a run's trace equal the machine.Stats
// the simulator returned.
func TestMetricsMatchStats(t *testing.T) {
	a, b := seq(64, 1), seq(64, 3)
	cases := []struct {
		name string
		run  func(...workload.Option) (workload.Result, error)
	}{
		{"IUP vecadd", func(o ...workload.Option) (workload.Result, error) { return workload.VecAddUni(a, b, o...) }},
		{"IUP dot", func(o ...workload.Option) (workload.Result, error) { return workload.DotUni(a, b, o...) }},
		{"IAP-I vecadd", func(o ...workload.Option) (workload.Result, error) {
			return workload.VecAdd(mustClass(t, "IAP-I"), 4, a, b, o...)
		}},
		{"IAP-II dot", func(o ...workload.Option) (workload.Result, error) {
			return workload.Dot(mustClass(t, "IAP-II"), 4, a, b, o...)
		}},
		{"IAP-IV dot", func(o ...workload.Option) (workload.Result, error) {
			return workload.Dot(mustClass(t, "IAP-IV"), 4, a, b, o...)
		}},
		{"IMP-II dot", func(o ...workload.Option) (workload.Result, error) {
			return workload.Dot(mustClass(t, "IMP-II"), 4, a, b, o...)
		}},
		{"IMP-XVI vecadd", func(o ...workload.Option) (workload.Result, error) {
			return workload.VecAdd(mustClass(t, "IMP-XVI"), 4, a, b, o...)
		}},
		{"IMP-II scan", func(o ...workload.Option) (workload.Result, error) {
			return workload.Scan(mustClass(t, "IMP-II"), 4, a, o...)
		}},
		{"IMP-I partial dot", func(o ...workload.Option) (workload.Result, error) {
			return workload.DotPartial(mustClass(t, "IMP-I"), 4, a, b, o...)
		}},
		{"DMP-I vecadd", func(o ...workload.Option) (workload.Result, error) {
			return workload.VecAddDataflow(mustClass(t, "DMP-I"), 4, a, b, o...)
		}},
		{"DMP-IV vecadd", func(o ...workload.Option) (workload.Result, error) {
			return workload.VecAddDataflow(mustClass(t, "DMP-IV"), 4, a, b, o...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTrace()
			res, err := tc.run(workload.WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			if err := obs.Collect(reg, tr.Events()); err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			for _, check := range []struct {
				metric string
				want   int64
			}{
				{obs.MetricInstructions, s.Instructions},
				{obs.MetricALUOps, s.ALUOps},
				{obs.MetricMemReads, s.MemReads},
				{obs.MetricMemWrites, s.MemWrites},
				{obs.MetricMessages, s.Messages},
				{obs.MetricBarriers, s.Barriers},
				{obs.MetricNetConflict, s.NetConflictCycles},
			} {
				got, _ := reg.CounterValue(check.metric)
				if got != check.want {
					t.Errorf("%s = %d, stats say %d", check.metric, got, check.want)
				}
			}
		})
	}
}

// seq builds [start, start+1, ...] of length n.
// mustClass looks up a Table I class by name.
func mustClass(t testing.TB, name string) taxonomy.Class {
	t.Helper()
	c, err := taxonomy.LookupString(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func seq(n int, start int) []isa.Word {
	out := make([]isa.Word, n)
	for i := range out {
		out[i] = isa.Word(start + i)
	}
	return out
}

// BenchmarkStepTracedVsUntraced times the hot Step path with tracing off
// (nil Tracer), with the allocation-free Discard tracer, and with the
// recording Trace, so the overhead of the disabled path is directly
// visible: go test ./internal/obs -bench StepTracedVsUntraced -benchmem.
func BenchmarkStepTracedVsUntraced(b *testing.B) {
	mem, err := machine.NewMemory(16)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := isa.Assemble(`
        ldi  r1, 3
        add  r3, r1, r1
        st   r3, [r1+0]
        ld   r4, [r1+0]
        halt
`)
	if err != nil {
		b.Fatal(err)
	}
	runProg := func(b *testing.B, tr obs.Tracer) {
		env := machine.Env{Load: mem.Load, Store: mem.Store, Tracer: tr}
		var regs machine.Regs
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for pc := 0; pc < len(prog); {
				out, err := machine.Step(&regs, pc, prog[pc], env)
				if err != nil {
					b.Fatal(err)
				}
				if out.Halted {
					break
				}
				pc = out.NextPC
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { runProg(b, nil) })
	b.Run("discard", func(b *testing.B) { runProg(b, obs.Discard{}) })
	b.Run("recording", func(b *testing.B) {
		tr := obs.NewTrace()
		runProg(b, tr)
		if tr.Len() == 0 {
			b.Fatal("recording run captured nothing")
		}
	})
}

// BenchmarkMorphProbesTraced is BenchmarkMorphProbes with a recording
// tracer attached, so the cost of observing the whole P1 probe suite is
// measurable against the root package's untraced baseline.
func BenchmarkMorphProbesTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace()
		probes, err := workload.RunProbes(workload.WithTracer(tr))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range probes {
			if !p.Holds {
				b.Fatalf("claim failed: %s", p.Claim)
			}
		}
		if tr.Len() == 0 {
			b.Fatal("probes emitted no events")
		}
	}
}

// BenchmarkRecorderEmit replays the event stream of one traced conformance
// cell, IMP-II matmul at n=64 on 4 cores, into each recorder and reports
// the cost per event: go test ./internal/obs -run '^$' -bench RecorderEmit.
// Every iteration starts the recorder afresh, as a pooled or per-run
// recorder starts each run.
func BenchmarkRecorderEmit(b *testing.B) {
	class, err := taxonomy.LookupString("IMP-II")
	if err != nil {
		b.Fatal(err)
	}
	capture := obs.NewTrace()
	res, err := modelzoo.RunKernel(class, "matmul", 64, 4, workload.WithTracer(capture))
	if err != nil {
		b.Fatal(err)
	}
	events, want := capture.Events(), res.Stats.Totals()
	trace, head, tally := obs.NewTrace(), &obs.HeadTrace{}, &obs.Tally{}
	for _, r := range []struct {
		name string
		rec  interface {
			obs.Tracer
			Check(obs.Totals) error
		}
		reset func()
	}{
		{"trace", trace, trace.Reset},
		{"headtrace", head, func() { *head = obs.HeadTrace{} }},
		{"tally", tally, func() { *tally = obs.Tally{} }},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.reset()
				for _, e := range events {
					r.rec.Emit(e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
			if err := r.rec.Check(want); err != nil {
				b.Fatal(err)
			}
		})
	}
}
