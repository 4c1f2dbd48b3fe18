package flexbench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestDeterminismAcrossWorkersAndBackends: the marshalled Result — the exact
// bytes the CLI, the endpoint and the jobs campaign serve — must be
// byte-identical whatever the worker count. (The compiled code's
// equivalence with the Step reference is pinned by the modelzoo
// kernel-run golden test.)
func TestDeterminismAcrossWorkersAndBackends(t *testing.T) {
	p := Params{N: 16, Procs: 4}
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		res, err := Run(context.Background(), p, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
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
			t.Errorf("workers %d: result bytes differ from baseline", workers)
		}
	}
}
