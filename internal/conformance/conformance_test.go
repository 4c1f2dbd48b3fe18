package conformance

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestMatrixAllCellsConform is the tentpole invariant: every kernel × class
// cell of the matrix computes the reference answer with consistent metrics.
func TestMatrixAllCellsConform(t *testing.T) {
	results, allPass := RunMatrix(DefaultParams())
	if len(results) == 0 {
		t.Fatal("empty conformance matrix")
	}
	if !allPass {
		for _, r := range results {
			if !r.Pass {
				t.Errorf("%s on %s: %s", r.Kernel, r.Class, r.Err)
			}
		}
	}
	for _, r := range results {
		if r.Pass && r.Cycles <= 0 {
			t.Errorf("%s on %s: passing cell reports %d cycles", r.Kernel, r.Class, r.Cycles)
		}
	}
}

// TestMatrixAtLargerSizing re-runs the matrix at a second operating point so
// a kernel that only conforms at the default sizing cannot hide.
func TestMatrixAtLargerSizing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: default sizing only")
	}
	results, allPass := RunMatrix(Params{N: 128, Procs: 8})
	if !allPass {
		for _, r := range results {
			if !r.Pass {
				t.Errorf("%s on %s: %s", r.Kernel, r.Class, r.Err)
			}
		}
	}
}

// TestMatrixCoversEveryKernel: each kernel row exists, and every cell's
// labels come from the canonical vocabularies.
func TestMatrixCoversEveryKernel(t *testing.T) {
	kernels := map[string]bool{}
	for _, k := range KernelNames() {
		kernels[k] = false
	}
	classes := map[string]bool{}
	for _, c := range ClassNames() {
		classes[c] = true
	}
	for _, cell := range Matrix() {
		seen, known := kernels[cell.Kernel]
		if !known {
			t.Errorf("cell kernel %q not in KernelNames", cell.Kernel)
		}
		_ = seen
		kernels[cell.Kernel] = true
		if !classes[cell.Class] {
			t.Errorf("cell class %q not in ClassNames", cell.Class)
		}
	}
	for k, covered := range kernels {
		if !covered {
			t.Errorf("kernel %q has no conformance cell", k)
		}
	}
}

// TestEveryKernelHasConformanceCells: the kernels cmd/simulate and
// /v1/simulate accept and the kernels the conformance matrix covers must
// be the same set, and each must have at least one runnable matrix cell —
// a kernel users can invoke but the conformance suite never checks would
// be untested surface.
func TestEveryKernelHasConformanceCells(t *testing.T) {
	matrix := map[string]bool{}
	for _, k := range KernelNames() {
		matrix[k] = true
	}
	for _, k := range modelzoo.Kernels() {
		if !matrix[k] {
			t.Errorf("served kernel %q has no row in the conformance matrix", k)
			continue
		}
		if len(CellsForKernel(k)) == 0 {
			t.Errorf("kernel %q has no conformance cells", k)
		}
		delete(matrix, k)
	}
	for k := range matrix {
		t.Errorf("conformance kernel %q is not served by modelzoo.RunKernel", k)
	}
}

// TestVecAddCoversEveryClass: the universal kernel must appear on every
// machine-class column — all six classes, every simulated sub-type.
func TestVecAddCoversEveryClass(t *testing.T) {
	covered := map[string]bool{}
	for _, cell := range CellsForKernel("vecadd") {
		covered[cell.Class] = true
	}
	for _, class := range ClassNames() {
		if !covered[class] {
			t.Errorf("class %s has no vecadd cell", class)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"default", DefaultParams(), true},
		{"larger", Params{N: 128, Procs: 8}, true},
		{"zero n", Params{N: 0, Procs: 4}, false},
		{"negative n", Params{N: -8, Procs: 4}, false},
		{"procs too small", Params{N: 64, Procs: 2}, false},
		{"procs not pow2", Params{N: 60, Procs: 6}, false},
		{"n not sharded", Params{N: 63, Procs: 4}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

// TestRunDetectsWrongOutput: a cell whose machine result disagrees with the
// reference must fail — the detector itself is tested, not just the happy
// path.
func TestRunDetectsWrongOutput(t *testing.T) {
	lying := lie(t, func(res *workload.Result) {
		if len(res.Output) > 0 {
			res.Output[0]++ // inject a single-word divergence
		}
	})
	r := Run(lying, DefaultParams())
	if r.Pass {
		t.Fatal("cell with corrupted output passed")
	}
	if !strings.Contains(r.Err, "reference") {
		t.Errorf("error %q does not mention the reference", r.Err)
	}
}

// lie wraps the IUP vecadd cell so its result is mutated after a
// successful run.
func lie(t *testing.T, mutate func(*workload.Result)) Cell {
	t.Helper()
	cell := Matrix()[0]
	if cell.Kernel != "vecadd" || cell.Class != "IUP" {
		t.Fatalf("first matrix cell is %s/%s, want vecadd/IUP", cell.Kernel, cell.Class)
	}
	honest := cell.run
	cell.run = func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
		res, want, err := honest(p, opts...)
		if err == nil {
			mutate(&res)
		}
		return res, want, err
	}
	return cell
}

// TestRunDetectsBadParams: invalid sizing is reported per cell, not
// panicked on.
func TestRunDetectsBadParams(t *testing.T) {
	cells := Matrix()
	r := Run(cells[0], Params{N: 63, Procs: 4})
	if r.Pass {
		t.Fatal("cell passed with invalid params")
	}
}

// TestRunDetectsStatsDrift: a run whose reported Stats disagree with the
// trace it emitted must fail the metric cross-check, and a run claiming
// zero cycles must fail the timing sanity check — the detectors the
// whole matrix leans on.
func TestRunDetectsStatsDrift(t *testing.T) {
	r := Run(lie(t, func(res *workload.Result) { res.Stats.ALUOps++ }), DefaultParams())
	if r.Pass {
		t.Fatal("cell with drifted ALU count passed")
	}
	if !strings.Contains(r.Err, "cross-check") || !strings.Contains(r.Err, obs.MetricALUOps) {
		t.Errorf("error %q does not name the cross-checked %s", r.Err, obs.MetricALUOps)
	}
	r = Run(lie(t, func(res *workload.Result) { res.Stats.Cycles = 0 }), DefaultParams())
	if r.Pass {
		t.Fatal("cell claiming zero cycles passed")
	}
	if !strings.Contains(r.Err, "cycles") {
		t.Errorf("error %q does not mention cycles", r.Err)
	}
}

// TestRunDetectsLostEvents: a run whose events never reach Run's tally
// must fail the cross-check too — the event side of
// TestRunDetectsStatsDrift. The later WithTracer wins, so the honest run
// emits into Discard.
func TestRunDetectsLostEvents(t *testing.T) {
	cell := Matrix()[0]
	if cell.metricsExempt {
		t.Fatalf("first matrix cell %s/%s is not cross-checked", cell.Kernel, cell.Class)
	}
	honest := cell.run
	cell.run = func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
		return honest(p, append(opts, workload.WithTracer(obs.Discard{}))...)
	}
	r := Run(cell, DefaultParams())
	if r.Pass {
		t.Fatal("cell whose events were discarded passed")
	}
	if !strings.Contains(r.Err, "cross-check") || !strings.Contains(r.Err, obs.MetricInstructions) {
		t.Errorf("error %q does not name the cross-checked %s", r.Err, obs.MetricInstructions)
	}
}

func TestWriteTable(t *testing.T) {
	results, _ := RunMatrix(DefaultParams())
	var b strings.Builder
	if err := WriteTable(&b, results); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"vecadd", "matmul", "✓", "IMP×16", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "✗") {
		t.Errorf("table reports failing cells:\n%s", out)
	}
}

func TestWriteTableRendersFailure(t *testing.T) {
	results := []CellResult{
		{Kernel: "vecadd", Class: "IUP", Pass: true},
		{Kernel: "dot", Class: "IAP-II", Pass: false, Err: "boom"},
	}
	var b strings.Builder
	if err := WriteTable(&b, results); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "✗") || !strings.Contains(out, "boom") {
		t.Errorf("failing cell not surfaced:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	results := []CellResult{{Kernel: "vecadd", Class: "IUP", Pass: true, Cycles: 10}}
	var b strings.Builder
	if err := WriteJSON(&b, results); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"pass": true`, `"kernel": "vecadd"`, `"cycles": 10`, `"summary"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	results := []CellResult{
		{Kernel: "dot", Pass: true},
		{Kernel: "dot", Pass: false},
		{Kernel: "vecadd", Pass: true},
	}
	got := Summary(results)
	want := []string{"dot 1/2", "vecadd 1/1"}
	if len(got) != len(want) {
		t.Fatalf("Summary = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Summary[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLookupCellMatchesFilterCells pins the cell index to FilterCells: the
// same cell for every runnable pair, a hole for every other pair of the
// vocabulary, and FilterCells's error text for an unknown name.
func TestLookupCellMatchesFilterCells(t *testing.T) {
	for _, k := range KernelNames() {
		for _, cl := range ClassNames() {
			cells, err := FilterCells([]string{k}, []string{cl})
			if err != nil {
				t.Fatal(err)
			}
			cell, ok, err := LookupCell(k, cl)
			if err != nil || ok != (len(cells) == 1) {
				t.Fatalf("%s/%s: LookupCell ok=%v err=%v, FilterCells found %d cells", k, cl, ok, err, len(cells))
			}
			if ok && (cell.Kernel != cells[0].Kernel || cell.Class != cells[0].Class) {
				t.Fatalf("%s/%s: LookupCell found %s/%s", k, cl, cell.Kernel, cell.Class)
			}
		}
	}
	for _, names := range [][2]string{{"fft", "IUP"}, {"dot", "IMP-XX"}} {
		_, wantErr := FilterCells([]string{names[0]}, []string{names[1]})
		_, ok, err := LookupCell(names[0], names[1])
		if ok || err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("LookupCell(%q, %q) = %v, %v; FilterCells says %v", names[0], names[1], ok, err, wantErr)
		}
	}
	if cell, ok, err := LookupCell("dot", "IMP"); err != nil || !ok || cell.Class != "IMP-I" {
		t.Errorf("family prefix: %s, %v, %v", cell.Class, ok, err)
	}
}
