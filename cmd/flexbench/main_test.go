package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden JSON result instead of comparing:
//
//	go test ./cmd/flexbench -run TestGoldenJSON -update
var update = flag.Bool("update", false, "rewrite the golden result file")

// TestGoldenJSON pins the full -json document of a small measurement byte
// for byte. The pipeline is deterministic end to end, so any diff is a real
// change to the machines, the scoring rule or the wire shape — review it,
// then rerun with -update.
func TestGoldenJSON(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "16", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "flexbench_n16.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != b.String() {
		t.Errorf("-json output drifted from golden (review, then rerun with -update):\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestRunText: the default report carries the frontier table, the figure
// and both correlation verdicts.
func TestRunText(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "16"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"class", "geo-slowdown", "IMP-II", "USP", "spearman", "Table II", "survey"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("report carries failed cells:\n%s", out)
	}
}

// TestRunJSONShape: the -json document is the flexbench.Result wire shape —
// passing, full-universe, with both correlations populated and no mention
// of the backend that produced it.
func TestRunJSONShape(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "16", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Pass    bool              `json:"pass"`
		Kernels []string          `json:"kernels"`
		Scores  []json.RawMessage `json:"scores"`
		TableII struct {
			Spearman float64 `json:"spearman"`
			Pairs    int     `json:"pairs"`
		} `json:"table_ii"`
		Survey struct {
			Pairs int `json:"pairs"`
		} `json:"survey"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if !doc.Pass || len(doc.Kernels) != 7 || len(doc.Scores) != 42 {
		t.Errorf("document = pass %v, %d kernels, %d scores", doc.Pass, len(doc.Kernels), len(doc.Scores))
	}
	if doc.TableII.Pairs != 42 || doc.Survey.Pairs != 25 {
		t.Errorf("correlations cover %d classes / %d machines, want 42 / 25", doc.TableII.Pairs, doc.Survey.Pairs)
	}
	if strings.Contains(b.String(), "backend") {
		t.Error("-json output mentions the execution backend; results must be backend-anonymous")
	}
}

// TestRunCSV: the -csv table has a header plus one row per class.
func TestRunCSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "16", "-csv"}, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 43 {
		t.Fatalf("CSV has %d lines, want 43 (header + 42 classes)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "class,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestRunBackendsAndWorkersByteIdentical is the CLI-level determinism pin:
// every worker count emits the exact bytes the serial run does. (The
// compiled code's equivalence with the Step reference is pinned by the
// modelzoo kernel-run golden test.)
func TestRunBackendsAndWorkersByteIdentical(t *testing.T) {
	var base strings.Builder
	if err := run([]string{"-n", "16", "-json", "-workers", "1"}, &base); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-n", "16", "-json", "-workers", "4"},
		{"-n", "16", "-json", "-workers", "16"},
	} {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if b.String() != base.String() {
			t.Errorf("%v: output differs from the serial default run", args)
		}
	}
}

// TestRunRejectsBadFlags: every invalid invocation is a loud error.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-n", "0"},
		{"-procs", "3"},
		{"-n", "30", "-procs", "4"},
		{"-workers", "0"},
		{"-backend", "interp"}, // retired flag
		{"-json", "-csv"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
