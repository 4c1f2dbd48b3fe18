package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// update regenerates the golden metric files instead of comparing:
//
//	go test ./cmd/simulate -run TestGoldenMetrics -update
var update = flag.Bool("update", false, "rewrite golden metric files")

// TestGoldenMetrics pins the -metrics (Prometheus text) and -metrics-json
// output of a small deterministic run byte-for-byte. The simulators are
// fully deterministic, so any diff is a real change to either the machine
// accounting or the metrics pipeline — review it, then rerun with -update.
func TestGoldenMetrics(t *testing.T) {
	cases := []struct {
		file string
		fn   func() error
	}{
		{"metrics_iup_vecadd.prom", func() error { return run("IUP", "vecadd", 8, 1, "", false, true, false) }},
		{"metrics_iup_vecadd.json", func() error { return run("IUP", "vecadd", 8, 1, "", false, false, true) }},
		{"metrics_imp2_dot.prom", func() error { return run("IMP-II", "dot", 16, 4, "", false, true, false) }},
		{"metrics_imp2_dot.json", func() error { return run("IMP-II", "dot", 16, 4, "", false, false, true) }},
	}
	for _, tc := range cases {
		out, err := capture(t, tc.fn)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		path := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with -update): %v", tc.file, err)
		}
		if string(want) != out {
			t.Errorf("%s drifted from golden (review, then rerun with -update):\n--- got ---\n%s--- want ---\n%s", tc.file, out, want)
		}
	}
}

// TestRun_MetricsJSON: the -metrics-json document must be valid JSON after
// the stats header (the metrics block starts at the first '[' or '{').
func TestRun_MetricsJSON(t *testing.T) {
	out, err := capture(t, func() error { return run("IMP-II", "dot", 64, 4, "", false, false, true) })
	if err != nil {
		t.Fatal(err)
	}
	start := -1
	for i, c := range out {
		if c == '[' || c == '{' {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("no JSON document in output:\n%s", out)
	}
	var doc any
	if err := json.Unmarshal([]byte(out[start:]), &doc); err != nil {
		t.Fatalf("metrics block is not valid JSON: %v\n%s", err, out[start:])
	}
}

// TestPrintMetricsCrossCheck: -metrics fails, naming the metric, when the
// run stats disagree with the trace it emitted.
func TestPrintMetricsCrossCheck(t *testing.T) {
	c, err := taxonomy.LookupString("IMP-II")
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace()
	res, err := modelzoo.RunKernel(c, "dot", 16, 4, workload.WithTracer(trace))
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.MemReads--
	_, err = capture(t, func() error { return printMetrics(c, trace, trace.Events(), res.Stats, false) })
	if err == nil || !strings.Contains(err.Error(), obs.MetricMemReads) {
		t.Fatalf("drifted stats: error %v does not name %s", err, obs.MetricMemReads)
	}
}
