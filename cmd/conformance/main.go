// Command conformance runs the differential conformance suite: the full
// kernel × machine-class matrix (every cell checked against the pure-Go
// references, with metrics cross-checked against the machine stats) plus a
// sweep of randomly generated programs executed in lockstep on the
// uni-processor, SIMD and MIMD organisations. The exit status is the
// verdict — non-zero when any cell or seed mismatches — so CI can gate on
// the whole suite with one invocation.
//
// Usage:
//
//	conformance                 # table output, default sizing
//	conformance -n 128 -procs 8 # a different operating point
//	conformance -json           # machine-readable output
//	conformance -seeds 100      # a longer lockstep sweep
//	conformance -workers 8      # run matrix cells + seeds in parallel
//
// The -workers flag fans the independent cells and seeds across a batch
// worker pool (internal/exec). Results are deterministic: any worker count
// produces output byte-identical to -workers 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/conformance"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("conformance", flag.ContinueOnError)
	def := conformance.DefaultParams()
	n := fs.Int("n", def.N, "problem size per kernel (must divide by -procs)")
	procs := fs.Int("procs", def.Procs, "processors/lanes for parallel classes (power of two >= 4)")
	jsonOut := fs.Bool("json", false, "emit the results as JSON instead of a table")
	seeds := fs.Int("seeds", 25, "number of random-program lockstep seeds (0 disables the sweep)")
	seed := fs.Int64("seed", 1, "first lockstep seed")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines for matrix cells and lockstep seeds (1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 0 {
		return fmt.Errorf("-seeds must be >= 0, got %d", *seeds)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	p := conformance.Params{N: *n, Procs: *procs}
	if err := p.Validate(); err != nil {
		return err
	}

	ctx := context.Background()
	cells, matrixPass := conformance.RunMatrixParallel(ctx, p, *workers)
	lockstep, lockstepPass := conformance.LockstepSweepParallel(ctx, *seed, *seeds, *workers)

	if *jsonOut {
		doc := struct {
			Pass     bool                         `json:"pass"`
			Cells    []conformance.CellResult     `json:"cells"`
			Summary  []string                     `json:"summary"`
			Lockstep []conformance.LockstepResult `json:"lockstep,omitempty"`
		}{
			Pass:     matrixPass && lockstepPass,
			Cells:    cells,
			Summary:  conformance.Summary(cells),
			Lockstep: lockstep,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		if err := conformance.WriteTable(w, cells); err != nil {
			return err
		}
		if *seeds > 0 {
			passed := 0
			for _, r := range lockstep {
				if r.Pass {
					passed++
				}
			}
			fmt.Fprintf(w, "\nlockstep: %d/%d random programs agree across IUP / IAP-I / IMP-I\n", passed, len(lockstep))
			for _, r := range lockstep {
				if !r.Pass {
					fmt.Fprintf(w, "  seed %d: %s\n%s", r.Seed, r.Err, r.Program)
				}
			}
		}
	}

	switch {
	case !matrixPass && !lockstepPass:
		return fmt.Errorf("conformance matrix and lockstep sweep both have mismatches")
	case !matrixPass:
		return fmt.Errorf("conformance matrix has mismatched cells")
	case !lockstepPass:
		return fmt.Errorf("lockstep sweep found diverging programs")
	}
	return nil
}
