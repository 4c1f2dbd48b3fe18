package modelzoo

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// TestExecuteChecksItsReference is the mutation test of the one reference
// a matrix cell computes: Execute hands it to the runner
// (workload.WithExpected), which checks the run's output against it, and
// returns it for the conformance matrix to diff the output against. With
// one word of it changed, as if the machine had computed that word wrong,
// every implementable cell's run must fail with the runner's mismatch
// error.
func TestExecuteChecksItsReference(t *testing.T) {
	cells := 0
	for _, c := range taxonomy.Table() {
		for _, k := range kernelTable {
			if !c.Implementable || !k.InMatrix(c) {
				continue
			}
			const n, procs = 16, 4
			res, want, err := k.Execute(c, n, procs)
			if err != nil {
				t.Fatalf("%s %s: %v", c, k.Name, err)
			}
			if !slices.Equal(res.Output, want) {
				t.Fatalf("%s %s: output %v, reference %v", c, k.Name, res.Output, want)
			}
			wrong := slices.Clone(want)
			wrong[len(wrong)-1]++
			_, err = k.runnerFor(c)(c, procs, k.operands(n), []workload.Option{workload.WithExpected(wrong)})
			if err == nil || !strings.Contains(err.Error(), "want") {
				t.Errorf("%s %s: a run checked against a wrong reference: %v, want the mismatch", c, k.Name, err)
			}
			cells++
		}
	}
	if cells == 0 {
		t.Fatal("no cell ran")
	}
}
