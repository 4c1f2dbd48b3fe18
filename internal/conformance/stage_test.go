package conformance

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// TestStagedProgramsStayReadOnly pins the staging layers' read-only
// contract. The assembly, compile and check memos hand one program to
// every caller that stages the same content, so a simulator or caller
// that writes through one would corrupt every later run of it. After the
// full matrix (traced, two workers) and every servable cell (checked, then
// run untraced and traced) at n in {16, 64} and procs in {4, 8}, every
// memo entry must still be what its key encodes.
func TestStagedProgramsStayReadOnly(t *testing.T) {
	type cell struct {
		class  taxonomy.Class
		kernel string
	}
	var servable []cell
	for _, c := range taxonomy.Table() {
		for _, k := range modelzoo.Kernels() {
			if _, err := modelzoo.CheckKernel(c, k, 16, 4); !modelzoo.Unsupported(err) {
				servable = append(servable, cell{c, k})
			}
		}
	}
	runs := 0
	for _, n := range []int{16, 64} {
		for _, procs := range []int{4, 8} {
			results, _ := RunMatrixParallel(context.Background(), Params{N: n, Procs: procs}, 2)
			for _, r := range results {
				if r.Pass {
					runs++
				}
			}
			for _, c := range servable {
				if _, err := modelzoo.CheckKernel(c.class, c.kernel, n, procs); err != nil {
					continue
				}
				if _, err := modelzoo.RunKernel(c.class, c.kernel, n, procs); err == nil {
					runs++
				}
				var tally obs.Tally
				if _, err := modelzoo.RunKernel(c.class, c.kernel, n, procs, workload.WithTracer(&tally)); err == nil {
					runs++
				}
			}
		}
	}
	if runs == 0 || machine.StagedStats().Entries == 0 {
		t.Fatal("nothing ran or nothing was staged: the check is vacuous")
	}
	t.Logf("%d passing runs, %d staged programs", runs, machine.StagedStats().Entries)
	for _, verify := range []struct {
		memo string
		fn   func() error
	}{
		{"assembly", workload.VerifyAssembled},
		{"compile", machine.VerifyStaged},
		{"check", modelzoo.VerifyChecked},
	} {
		if err := verify.fn(); err != nil {
			t.Error(fmt.Errorf("%s memo: %w", verify.memo, err))
		}
	}
}
