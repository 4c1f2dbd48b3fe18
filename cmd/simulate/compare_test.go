package main

import (
	"strings"
	"testing"
)

// TestRunCompare exercises the -compare mode: a full kernel row across the
// worker pool, plus its argument-validation failures.
func TestRunCompare(t *testing.T) {
	out, err := capture(t, func() error { return runCompare("dot", 64, 4, 2) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kernel dot", "IUP", "IAP-II", "IMP-XVI", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("comparison row has failures:\n%s", out)
	}

	if _, err := capture(t, func() error { return runCompare("nope", 64, 4, 1) }); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := capture(t, func() error { return runCompare("dot", 64, 4, 0) }); err == nil {
		t.Error("-workers 0 accepted")
	}
	if _, err := capture(t, func() error { return runCompare("dot", 63, 4, 1) }); err == nil {
		t.Error("non-sharding problem size accepted")
	}
}
