package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// runPlain is run without any observability flags.
func runPlain(class, kernel string, n, procs int) error {
	return run(class, kernel, n, procs, "", false, false, false)
}

func TestRun_AllClassKernelPairs(t *testing.T) {
	cases := []struct {
		class, kernel string
		n, procs      int
	}{
		{"IUP", "vecadd", 64, 1},
		{"IUP", "dot", 64, 1},
		{"IUP", "reduce", 64, 1},
		{"IUP", "fir", 64, 1},
		{"IAP-I", "vecadd", 64, 8},
		{"IAP-I", "dot", 64, 8}, // no DP-DP: host gathers per-lane partials
		{"IAP-II", "dot", 64, 8},
		{"IAP-II", "fir", 64, 8},
		{"IAP-II", "stencil", 64, 8},
		{"IAP-III", "dot", 64, 8},
		{"IAP-IV", "vecadd", 64, 8},
		{"IMP-I", "vecadd", 64, 8},
		{"IMP-I", "dot", 64, 8}, // no DP-DP: host gathers per-core partials
		{"IMP-I", "matmul", 16, 8},
		{"IMP-II", "dot", 64, 8},
		{"IMP-II", "scan", 64, 8},
		{"IMP-II", "stencil", 64, 8},
		{"IMP-III", "vecadd", 64, 8},
		{"IMP-IV", "matmul", 16, 8},
		{"DMP-I", "vecadd", 64, 8},
		{"DMP-IV", "vecadd", 64, 8},
		{"USP", "vecadd", 64, 1},
	}
	for _, tc := range cases {
		out, err := capture(t, func() error { return runPlain(tc.class, tc.kernel, tc.n, tc.procs) })
		if err != nil {
			t.Errorf("%s/%s: %v", tc.class, tc.kernel, err)
			continue
		}
		if !strings.Contains(out, "cycles:") || !strings.Contains(out, tc.class) {
			t.Errorf("%s/%s output incomplete:\n%s", tc.class, tc.kernel, out)
		}
	}
}

func TestRunGantt(t *testing.T) {
	out, err := capture(t, func() error { return runGantt("DMP-II", 4, "") })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sum = 136") || !strings.Contains(out, "PE0") {
		t.Errorf("gantt output:\n%s", out)
	}
	if _, err := capture(t, func() error { return runGantt("IAP-I", 4, "") }); err == nil {
		t.Error("gantt on a non-DMP class accepted")
	}
	if _, err := capture(t, func() error { return runGantt("NOPE", 4, "") }); err == nil {
		t.Error("gantt on a bad class accepted")
	}
	if _, err := capture(t, func() error { return runGantt("DMP-II", 0, "") }); err == nil {
		t.Error("gantt with 0 PEs accepted")
	}
}

func TestRun_Errors(t *testing.T) {
	cases := []struct {
		name          string
		class, kernel string
		n, procs      int
	}{
		{"bad class", "XXP", "vecadd", 64, 8},
		{"bad kernel on IUP", "IUP", "fft", 64, 1},
		{"bad kernel on IAP", "IAP-I", "fft", 64, 8},
		{"bad kernel on IMP", "IMP-I", "fft", 64, 8},
		{"dot on dataflow", "DMP-I", "dot", 64, 8},
		{"dot on fabric", "USP", "dot", 64, 1},
		{"stencil on IAP-I (no DP-DP)", "IAP-I", "stencil", 64, 8},
		{"scan on IMP-I (no DP-DP)", "IMP-I", "scan", 64, 8},
		{"dot on ISP (no runner)", "ISP-IV", "dot", 64, 8},
		{"non-dividing shard", "IAP-I", "vecadd", 65, 8},
	}
	for _, tc := range cases {
		if _, err := capture(t, func() error { return runPlain(tc.class, tc.kernel, tc.n, tc.procs) }); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestHelperProcess re-executes the test binary as the real CLI so
// TestBackendFlagExitCodes observes true exit codes.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("SIMULATE_HELPER") != "1" {
		t.Skip("helper process only")
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"simulate"}, os.Args[i+1:]...)
			break
		}
	}
	main()
	os.Exit(0)
}

// TestBackendFlagExitCodes: the retired -backend flag is an unknown flag,
// so the CLI exits non-zero instead of running.
func TestBackendFlagExitCodes(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess", "--",
		"-class", "IUP", "-kernel", "vecadd", "-n", "8", "-backend", "interp")
	cmd.Env = append(os.Environ(), "SIMULATE_HELPER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	_ = cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code == 0 {
		t.Fatalf("-backend interp exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -backend") {
		t.Errorf("-backend interp: stderr %q does not name the unknown flag", stderr.String())
	}
}

// TestDUPIsUnsupported: the data-flow uni-processor has no kernel runner,
// so -class DUP exits 1 with the unsupported message rather than failing
// inside a simulator constructor.
func TestDUPIsUnsupported(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess", "--",
		"-class", "DUP", "-kernel", "vecadd", "-n", "8")
	cmd.Env = append(os.Environ(), "SIMULATE_HELPER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	_ = cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("-class DUP exited %d, want 1; stderr: %s", code, stderr.String())
	}
	if want := "modelzoo: no simulator runner for class DUP"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not contain %q", stderr.String(), want)
	}
}

// TestRun_UnknownKernelListsValid checks the error on a bad kernel name
// names the kernels the class runner actually supports.
func TestRun_UnknownKernelListsValid(t *testing.T) {
	_, err := capture(t, func() error { return runPlain("IMP-II", "fft", 64, 8) })
	if err == nil {
		t.Fatal("fft accepted")
	}
	for _, want := range []string{"vecadd", "dot", "reduce", "matmul", "scan", "stencil"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list kernel %q", err, want)
		}
	}
}

func TestRun_Observability(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out, err := capture(t, func() error {
		return run("IMP-II", "dot", 64, 4, tracePath, true, true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "metrics cross-check: counters match the run stats") {
		t.Errorf("missing cross-check confirmation:\n%s", out)
	}
	if !strings.Contains(out, "sim_instructions_total") {
		t.Errorf("missing metrics exposition:\n%s", out)
	}
	if !strings.Contains(out, "cycles 0..") {
		t.Errorf("missing ASCII trace:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}
