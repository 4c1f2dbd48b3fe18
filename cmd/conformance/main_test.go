package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunTable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "32", "-procs", "4", "-seeds", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"vecadd", "matmul", "all", "lockstep: 3/3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "✗") {
		t.Errorf("table reports mismatches:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "32", "-procs", "4", "-seeds", "2", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Pass  bool `json:"pass"`
		Cells []struct {
			Kernel string `json:"kernel"`
			Class  string `json:"class"`
			Pass   bool   `json:"pass"`
		} `json:"cells"`
		Summary  []string          `json:"summary"`
		Lockstep []json.RawMessage `json:"lockstep"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if !doc.Pass {
		t.Error("suite did not pass")
	}
	if len(doc.Cells) == 0 || len(doc.Summary) == 0 {
		t.Errorf("JSON document incomplete: %d cells, %d summary lines", len(doc.Cells), len(doc.Summary))
	}
	if len(doc.Lockstep) != 2 {
		t.Errorf("JSON document has %d lockstep results, want 2", len(doc.Lockstep))
	}
}

// TestRunWorkersByteIdentical is the CLI-level determinism pin: the full
// text output at -workers 4 must equal the serial run's, byte for byte.
func TestRunWorkersByteIdentical(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run([]string{"-n", "32", "-procs", "4", "-seeds", "3", "-workers", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "32", "-procs", "4", "-seeds", "3", "-workers", "4"}, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Error("-workers 4 output differs from -workers 1")
	}
}

func TestRunRejectsBadSizing(t *testing.T) {
	cases := [][]string{
		{"-procs", "3"},
		{"-n", "0"},
		{"-n", "63", "-procs", "4"},
		{"-seeds", "-1"},
		{"-workers", "0"},
		{"-backend", "interp"}, // retired flag
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
