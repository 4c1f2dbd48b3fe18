package conformance

import (
	"context"
	"testing"
)

// TestCompiledEquivalence is the flagship differential run: thousands of
// generated programs, each executed on all four machine shapes (and into
// four failures) by both executors, untraced, traced into a Tally and
// traced into a Trace, every run diffed against the interp reference down
// to memories, full Stats structs, Tally totals and obs event streams. A
// failure prints the offending program's disassembly for reproduction.
func TestCompiledEquivalence(t *testing.T) {
	seeds := 5000
	if testing.Short() {
		seeds = 500
	}
	results, allPass := BackendSweepParallel(context.Background(), 20000, seeds, 0)
	if allPass {
		return
	}
	shown := 0
	for _, r := range results {
		if r.Pass {
			continue
		}
		t.Errorf("seed %d: %s\n%s", r.Seed, r.Err, r.Program)
		if shown++; shown == 3 {
			t.Fatalf("more backend divergences follow; stopping after 3")
		}
	}
}

// TestBackendSweepSerialMatchesParallel pins the worker-count independence
// of the backend sweep, mirroring the lockstep sweep's guarantee.
func TestBackendSweepSerialMatchesParallel(t *testing.T) {
	const seeds = 20
	serial, serialPass := BackendSweep(3000, seeds)
	par, parPass := BackendSweepParallel(context.Background(), 3000, seeds, 4)
	if serialPass != parPass || len(serial) != len(par) {
		t.Fatalf("serial pass=%v (%d results), parallel pass=%v (%d results)",
			serialPass, len(serial), parPass, len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("result %d: serial %+v, parallel %+v", i, serial[i], par[i])
		}
	}
}
