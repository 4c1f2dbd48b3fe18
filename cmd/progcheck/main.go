// Command progcheck runs the static program checker (internal/progcheck)
// from the command line, in two modes:
//
// With no positional arguments it sweeps every runnable kernel × class cell
// of the conformance matrix, checking each guest program the model zoo
// would execute against the machine shape it would run on — the same audit
// the serving layer performs before admitting a /v1/simulate request. With
// positional arguments it assembles each file as guest ISA source and
// checks it against the target described by the -mem/-procs/-network/
// -barrier flags.
//
// The exit status is the verdict: non-zero when any program has a finding
// at or above the -min severity, or an unbounded budget, so CI gates on
// check-cleanliness with one invocation.
//
// Usage:
//
//	progcheck                   # kernel × class sweep, default sizing
//	progcheck -json             # machine-readable findings
//	progcheck -min error        # only errors fail the run
//	progcheck -workers 8        # parallel sweep (output identical to -workers 1)
//	progcheck -mem 64 prog.s    # check one assembly source
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
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/modelzoo"
	"repro/internal/progcheck"
	"repro/internal/report"
	"repro/internal/taxonomy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "progcheck:", err)
		os.Exit(1)
	}
}

// checked is one program's verdict, in both modes: Class/Kernel name the
// matrix cell (File instead for source mode).
type checked struct {
	Class   string            `json:"class,omitempty"`
	Kernel  string            `json:"kernel,omitempty"`
	File    string            `json:"file,omitempty"`
	Program string            `json:"program"`
	Report  *progcheck.Report `json:"report"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("progcheck", flag.ContinueOnError)
	def := conformance.DefaultParams()
	n := fs.Int("n", def.N, "problem size per kernel in sweep mode")
	procs := fs.Int("procs", def.Procs, "processors/lanes for parallel classes")
	jsonOut := fs.Bool("json", false, "emit the findings as JSON instead of text")
	minFlag := fs.String("min", "warn", "lowest severity that fails the run: info, warn or error")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines for the sweep (1 = serial; output is identical across worker counts)")
	mem := fs.Int("mem", 0, "source mode: data-memory words visible to the program (0 = unknown, bounds checks skipped)")
	tprocs := fs.Int("tprocs", 1, "source mode: processors/lanes of the target")
	network := fs.Bool("network", false, "source mode: target has a DP-DP network (SEND/RECV legal)")
	barrier := fs.Bool("barrier", false, "source mode: target has a barrier (SYNC legal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	min, err := report.ParseSeverity(*minFlag)
	if err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}

	var results []checked
	if files := fs.Args(); len(files) > 0 {
		tgt := progcheck.Target{MemWords: *mem, Procs: *tprocs, HasNetwork: *network, HasBarrier: *barrier}
		results, err = checkSources(files, tgt)
	} else {
		results, err = sweepMatrix(*n, *procs, *workers)
	}
	if err != nil {
		return err
	}

	fail := 0
	for _, c := range results {
		if !c.Report.Clean(min) || !c.Report.Budget.Bounded {
			fail++
		}
	}

	if *jsonOut {
		doc := struct {
			Pass     bool      `json:"pass"`
			Programs []checked `json:"programs"`
		}{Pass: fail == 0, Programs: results}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		writeText(w, results, min)
	}
	if fail > 0 {
		return fmt.Errorf("%d of %d programs have findings at or above %s (or an unbounded budget)", fail, len(results), min)
	}
	return nil
}

// checkSources assembles and checks each named file against one target.
func checkSources(files []string, tgt progcheck.Target) ([]checked, error) {
	results := make([]checked, 0, len(files))
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		prog, err := isa.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, checked{File: name, Program: name, Report: progcheck.Check(prog, tgt)})
	}
	return results, nil
}

// sweepMatrix checks every guest program of every runnable kernel × class
// cell. Cells fan across workers; the result order is the matrix order
// whatever the worker count, so the rendered output is byte-identical
// across -workers values.
func sweepMatrix(n, procs, workers int) ([]checked, error) {
	cells := conformance.Matrix()
	batch := exec.Map(context.Background(), workers, cells, func(ctx context.Context, cell conformance.Cell) ([]checked, error) {
		c, err := taxonomy.LookupString(cell.Class)
		if err != nil {
			return nil, err
		}
		progs, err := modelzoo.CheckKernel(c, cell.Kernel, n, procs)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cell.Class, cell.Kernel, err)
		}
		out := make([]checked, len(progs))
		for i, p := range progs {
			out[i] = checked{Class: cell.Class, Kernel: cell.Kernel, Program: p.Name, Report: p.Report}
		}
		return out, nil
	})
	var results []checked
	for _, r := range batch {
		if r.Err != nil {
			return nil, r.Err
		}
		results = append(results, r.Value...)
	}
	return results, nil
}

// writeText renders one line per clean program and the full report text for
// programs with findings at or above min.
func writeText(w io.Writer, results []checked, min report.Severity) {
	clean := 0
	for _, c := range results {
		label := c.Program
		if c.Class != "" {
			label = fmt.Sprintf("%s/%s/%s", c.Class, c.Kernel, c.Program)
		}
		switch {
		case c.Report.Clean(min) && c.Report.Budget.Bounded:
			clean++
			fmt.Fprintf(w, "ok   %-40s %d instrs, %d blocks, %d loops, <= %d cycles\n",
				label, c.Report.Instructions, c.Report.Blocks, c.Report.Loops, c.Report.Budget.MaxCycles)
		default:
			fmt.Fprintf(w, "FAIL %s\n%s", label, indent(c.Report.Text()))
		}
	}
	fmt.Fprintf(w, "\n%d/%d programs check-clean at %s\n", clean, len(results), min)
}

func indent(s string) string {
	out := ""
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out += "     " + s[:i] + "\n"
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}
