package conformance

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden matrix file instead of comparing:
//
//	go test ./internal/conformance -run TestMatrixGolden -update
var update = flag.Bool("update", false, "rewrite the golden matrix file")

// TestMatrixGolden pins the whole matrix at a small sizing: every cell's
// kernel, class, verdict, cycles and instructions, in matrix order. The
// simulators are deterministic, so a diff is a real change to the cell
// set, its order or a kernel's cost on some class — review it, then rerun
// with -update.
func TestMatrixGolden(t *testing.T) {
	results, _ := RunMatrix(Params{N: 16, Procs: 4})
	got, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "matrix.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("matrix drifted from %s (review, then rerun with -update):\n--- got ---\n%s", path, got)
	}
}
