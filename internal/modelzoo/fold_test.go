package modelzoo_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// hiddenTally forwards every event to a Tally without being an *obs.Tally,
// so the simulators treat it as an ordinary Tracer and emit op by op.
type hiddenTally struct{ t *obs.Tally }

func (h hiddenTally) Emit(e obs.Event) { h.t.Emit(e) }

// TestTallyFoldMatchesEmission pins the fold against op-by-op emission.
// A run traced into an *obs.Tally lets fused code fold its events from
// batched Stats (uniproc's block program, mimd run-ahead and the
// committed optimistic windows of a DP-DM crossbar), so on those
// stretches the Tally no longer counts independently of the Stats it is
// checked against. Every implementable class × kernel at goldenShapes and
// matrixShape therefore runs twice, into a Tally and into the same Tally
// behind a wrapper that hides its type: error text, Stats, output, event
// count and totals must be equal. The rollback path of the windows is
// pinned by mimd's own tests and conformance.BackendCheck's rollback modes.
func TestTallyFoldMatchesEmission(t *testing.T) {
	shapes := append(slices.Clone(goldenShapes), matrixShape)
	for _, c := range taxonomy.Table() {
		if !c.Implementable {
			continue
		}
		for _, kernel := range modelzoo.Kernels() {
			for _, s := range shapes {
				n, procs := s[0], s[1]
				var folded, emitted obs.Tally
				res, err := modelzoo.RunKernel(c, kernel, n, procs, workload.WithTracer(&folded))
				ref, refErr := modelzoo.RunKernel(c, kernel, n, procs, workload.WithTracer(hiddenTally{&emitted}))
				cell := fmt.Sprintf("%s %s n=%d procs=%d", c, kernel, n, procs)
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Errorf("%s: folded run error %v, emitted run error %v", cell, err, refErr)
					continue
				}
				if res.Stats != ref.Stats || !slices.Equal(res.Output, ref.Output) {
					t.Errorf("%s: folded run %+v %v, emitted run %+v %v", cell, res.Stats, res.Output, ref.Stats, ref.Output)
				}
				if folded.Len() != emitted.Len() || folded.Totals() != emitted.Totals() {
					t.Errorf("%s: folded %d events, %+v; emitted %d, %+v",
						cell, folded.Len(), folded.Totals(), emitted.Len(), emitted.Totals())
				}
			}
		}
	}
}
