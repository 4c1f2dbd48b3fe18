package flexbench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/machine"
)

// TestDeterminismAcrossWorkersAndBackends: the marshalled Result — the exact
// bytes the CLI, the endpoint and the jobs campaign serve — must be
// byte-identical whatever the worker count and whichever execution backend
// ran the cells. The Params JSON omits the backend on purpose, so if any
// backend produced even one different cycle count this comparison would
// catch it.
func TestDeterminismAcrossWorkersAndBackends(t *testing.T) {
	p := Params{N: 16, Procs: 4}
	var want []byte
	for _, backend := range machine.Backends() {
		for _, workers := range []int{1, 4, 16} {
			p.Backend = backend
			res, err := Run(context.Background(), p, workers)
			if err != nil {
				t.Fatalf("backend %v workers %d: %v", backend, workers, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("backend %v workers %d: result bytes differ from baseline", backend, workers)
			}
		}
	}
}
