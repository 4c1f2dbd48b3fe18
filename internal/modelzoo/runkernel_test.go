package modelzoo_test

import (
	"slices"
	"testing"

	"repro/internal/conformance"
	"repro/internal/modelzoo"
	"repro/internal/taxonomy"
)

// TestRunKernelMatchesMatrix: every matrix cell is reachable through
// RunKernel — the dispatch cmd/simulate and /v1/simulate use — where it
// computes its row's pure-Go reference and costs exactly the Stats the
// matrix measures. The program served is the program conformance checks.
func TestRunKernelMatchesMatrix(t *testing.T) {
	for _, p := range []conformance.Params{{N: 64, Procs: 4}, {N: 64, Procs: 8}} {
		for _, cell := range conformance.Matrix() {
			c, err := taxonomy.LookupString(cell.Class)
			if err != nil {
				t.Fatal(err)
			}
			want, ref, err := cell.Execute(p)
			if err != nil {
				t.Errorf("%s/%s procs %d: Execute: %v", cell.Kernel, cell.Class, p.Procs, err)
				continue
			}
			got, err := modelzoo.RunKernel(c, cell.Kernel, p.N, p.Procs)
			if err != nil {
				t.Errorf("%s/%s procs %d: RunKernel: %v", cell.Kernel, cell.Class, p.Procs, err)
				continue
			}
			if !slices.Equal(got.Output, ref) {
				t.Errorf("%s/%s procs %d: output %v, reference %v", cell.Kernel, cell.Class, p.Procs, got.Output, ref)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s/%s procs %d: RunKernel stats %+v, matrix stats %+v", cell.Kernel, cell.Class, p.Procs, got.Stats, want.Stats)
			}
		}
	}
}

// TestUnsupportedListsFamilyKernels: a kernel the class's family has no
// runner for is an Unsupported error naming the kernels it does run.
func TestUnsupportedListsFamilyKernels(t *testing.T) {
	cases := []struct{ class, kernel, want string }{
		{"DMP-I", "dot", `modelzoo: unknown kernel "dot" (have vecadd)`},
		{"DUP", "vecadd", `modelzoo: no simulator runner for class DUP`},
		{"ISP-IV", "dot", `modelzoo: unknown kernel "dot" (have vecadd)`},
		{"IUP", "scan", `modelzoo: unknown kernel "scan" (have vecadd, dot, reduce, fir)`},
		{"IMP-II", "fft", `modelzoo: unknown kernel "fft" (have vecadd, dot, reduce, matmul, scan, stencil)`},
	}
	for _, tc := range cases {
		c, err := taxonomy.LookupString(tc.class)
		if err != nil {
			t.Fatal(err)
		}
		_, err = modelzoo.RunKernel(c, tc.kernel, 64, 4)
		if err == nil || !modelzoo.Unsupported(err) || err.Error() != tc.want {
			t.Errorf("%s %s: error %v, want Unsupported %q", tc.class, tc.kernel, err, tc.want)
		}
	}
}
