// Command flexbench measures architectural flexibility instead of merely
// scoring it structurally: it runs every workload kernel on every machine
// class (the conformance matrix's own cells), normalises each cell's
// cycles against the best class for that kernel, and reports a per-class
// flexibility/efficiency frontier — coverage, geomean slowdown, the
// headline score, and area/energy-weighted variants — correlated against
// the paper's Table II structural scores and the Table III survey.
//
// Usage:
//
//	flexbench                  # text report: table, frontier figure, correlations
//	flexbench -n 128 -procs 8  # a different operating point
//	flexbench -json            # the full machine-readable result
//	flexbench -csv             # the frontier table as CSV
//	flexbench -workers 8       # measure cells in parallel
//
// Output is deterministic: any -workers count produces byte-identical
// results (cycles are architectural, not host-dependent).
// The exit status is the verdict — non-zero when any runnable cell fails
// its reference check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/flexbench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	def := flexbench.DefaultParams()
	n := fs.Int("n", def.N, "problem size per kernel (must divide by -procs)")
	procs := fs.Int("procs", def.Procs, "processors/lanes for parallel classes (power of two >= 4)")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON")
	csvOut := fs.Bool("csv", false, "emit the frontier table as CSV")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines for the matrix cells (1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	p := flexbench.Params{N: *n, Procs: *procs}
	if err := p.Validate(); err != nil {
		return err
	}

	res, err := flexbench.Run(context.Background(), p, *workers)
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	case *csvOut:
		fmt.Fprint(w, res.CSV())
	default:
		fmt.Fprint(w, res.Text())
	}
	if !res.Pass {
		return fmt.Errorf("measurement failed: at least one runnable cell did not match its reference")
	}
	return nil
}
