package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b benchmarkJSON
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON pins BENCHMARK.json to the benchmark's own metric table
// and workload list, so the two cannot drift.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadDefs[i].name)
		}
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		}
		if d.Gated && d.Layer {
			layer = append(layer, d)
		} else if d.Gated {
			e2e = append(e2e, d)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d layer metrics, the table gates %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	for i, m := range b.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table says %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table says %+v", i, m, d)
		}
	}
}

// servingLayers are the layer metrics only the serve-* workloads report.
var servingLayers = regexp.MustCompile(`^(server|cache)\.`)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each run passes and emits every gated metric with its unit,
// and, traced on the serve-* workloads, every serving-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	layerUnits := map[string]string{}
	for _, m := range b.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	dir := t.TempDir()
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res := runWorkload(runConfig{Workload: w.name, Seed: 1, Seconds: 0.3, Smoke: true, Traced: traced, TraceDir: dir})
			if !res.Correct {
				t.Errorf("%s (traced %v) failed: %v", w.name, traced, res.Errors)
			}
			want := units
			if traced {
				want = layerUnits
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			line := res.contract()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (traced %v) emits %d gated metrics, BENCHMARK.json lists %d", w.name, traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v) does not emit %s", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s emits metric %q with characters outside [A-Za-z0-9_.-]", w.name, name)
				}
			}
			if traced && strings.HasPrefix(w.name, "serve-") {
				for _, d := range metricDefs {
					if _, ok := res.Metrics[d.Name]; servingLayers.MatchString(d.Name) && !ok {
						t.Errorf("%s (traced) does not emit %s", w.name, d.Name)
					}
				}
			}
		}
	}
}

func TestChildCover(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "item", Parent: noSpan, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps a
		{Name: "c", Parent: 0, Start: ms(60), End: ms(70)},  // disjoint
		{Name: "d", Parent: 0, Start: ms(95), End: ms(120)}, // runs past its parent
		{Name: "e", Parent: 3, Start: ms(62), End: ms(64)},  // grandchild
	}
	got := childCover(spans)
	want := []time.Duration{ms(55), 0, 0, ms(2), 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s covered %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if self := spans[0].End - spans[0].Start - got[0]; self != ms(45) {
		t.Errorf("item self time %v, want 45ms", self)
	}
}

// TestQuartiles checks the spread arithmetic against values computed with
// Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{5, 3}, 2.5, 5.5},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000 / 1e3 // ms
		if got := h.quantileMs(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile %v = %v ms, want %v within 1%%", q, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{Name: "items_per_s", Better: "higher", Bound: 0.10}
	series := func(vs ...float64) *Series {
		s := &Series{Values: vs, Median: median(vs)}
		s.Q1, s.Q3 = quartiles(vs)
		return s
	}
	flat := func(v float64) []float64 {
		vs := make([]float64, 10)
		for i := range vs {
			vs[i] = v + float64(i%2)
		}
		return vs
	}
	for _, tc := range []struct {
		base, head *Series
		want       string
	}{
		{series(flat(100)...), series(flat(100)...), "unchanged"},
		{series(flat(100)...), series(flat(120)...), "better"},
		{series(flat(100)...), series(flat(80)...), "worse"},
		{series(flat(100)...), series(50, 150, 60, 140, 100, 100, 55, 145, 100, 100), "unresolved"},
	} {
		if got := verdict(def, tc.base, tc.head); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.base.Values, tc.head.Values, got, tc.want)
		}
	}

	// A 20 ms set-up spreading about 25% and growing by 50% stays within the
	// 0.1 s floor; one that grows by 0.15 s is worse.
	setup, _ := lookupDef("setup_s")
	scaled := func(scale, add float64) *Series {
		vs := make([]float64, 10)
		for i := range vs {
			vs[i] = scale*(0.017+0.001*float64(i)) + add
		}
		return series(vs...)
	}
	for _, tc := range []struct {
		head *Series
		want string
	}{
		{scaled(1.5, 0), "unchanged"},
		{scaled(1, 0.15), "worse"},
	} {
		if got := verdict(setup, scaled(1, 0), tc.head); got != tc.want {
			t.Errorf("setup_s verdict -> %v = %s, want %s", tc.head.Values, got, tc.want)
		}
	}
}
