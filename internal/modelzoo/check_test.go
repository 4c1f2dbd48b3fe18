package modelzoo_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/modelzoo"
	"repro/internal/report"
	"repro/internal/taxonomy"
)

// TestCheckKernelMatrixClean runs the static checker over every guest
// program of every runnable kernel × class cell of the conformance matrix:
// no finding at all (even Info), and every budget bounded. This is the
// acceptance gate that keeps the zoo's own kernels honest against the
// checker. Cells outside the matrix are architectural holes (Table I) the
// checker is free — and expected — to reject.
func TestCheckKernelMatrixClean(t *testing.T) {
	cells, programs := 0, 0
	for _, cell := range conformance.Matrix() {
		c, err := taxonomy.LookupString(cell.Class)
		if err != nil {
			t.Fatalf("%s: %v", cell.Class, err)
		}
		progs, err := modelzoo.CheckKernel(c, cell.Kernel, 64, 4)
		if err != nil {
			t.Errorf("%s/%s: %v", cell.Class, cell.Kernel, err)
			continue
		}
		cells++
		for _, p := range progs {
			programs++
			if !p.Report.Clean(report.SevInfo) {
				t.Errorf("%s/%s/%s has findings:\n%s", cell.Class, cell.Kernel, p.Name, p.Report.Text())
			}
			if !p.Report.Budget.Bounded {
				t.Errorf("%s/%s/%s unbounded: %s", cell.Class, cell.Kernel, p.Name, p.Report.Budget.Reason)
			}
		}
	}
	if cells == 0 || programs == 0 {
		t.Fatalf("swept %d cells, %d programs — sweep is vacuous", cells, programs)
	}
	t.Logf("checked %d programs across %d kernel×class cells", programs, cells)
}

// TestCheckKernelRejectsArchitecturalHoles pins the checker's Table I
// behavior: scan needs SEND/RECV, so on IMP-I (no DP-DP switch) its
// program draws comm-shape errors instead of running to a machine fault.
func TestCheckKernelRejectsArchitecturalHoles(t *testing.T) {
	c, err := taxonomy.LookupString("IMP-I")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := modelzoo.CheckKernel(c, "scan", 64, 4)
	if err != nil {
		t.Fatalf("CheckKernel: %v", err)
	}
	if len(progs) == 0 {
		t.Fatal("no programs recorded")
	}
	for _, p := range progs {
		if p.Report.Clean(report.SevError) {
			t.Errorf("%s clean on a class with no DP-DP switch:\n%s", p.Name, p.Report.Text())
		}
	}
}
