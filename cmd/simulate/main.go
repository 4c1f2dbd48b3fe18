// Command simulate runs a workload kernel on a chosen machine class and
// reports the cycle-level statistics — the executable form of the
// taxonomy's machine classes (figures 3-6 of the paper describe them only
// structurally).
//
// Usage:
//
//	simulate -class IUP      -kernel vecadd -n 256
//	simulate -class IAP-II   -kernel dot    -n 256 -procs 8
//	simulate -class IMP-III  -kernel matmul -n 64  -procs 8
//	simulate -class DMP-IV   -kernel vecadd -n 64  -procs 8
//	simulate -class USP      -kernel vecadd -n 64
//
// Comparison mode runs one kernel's whole conformance row — every machine
// class that implements it — as a parallel batch (internal/exec) and prints
// the per-class cycle counts side by side:
//
//	simulate -compare -kernel dot -n 64 -procs 4 -workers 8
//
// Observability:
//
//	-trace out.json   write a Chrome trace-event file (Perfetto-loadable)
//	-trace-ascii      print the trace as an ASCII timeline
//	-metrics          print Prometheus-style metrics aggregated from the
//	                  trace and cross-check them against the run stats
//	-cpuprofile f     write a pprof CPU profile of the simulation itself
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"repro/internal/conformance"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

func main() {
	class := flag.String("class", "IUP", "machine class (IUP, IAP-I..IV, IMP-I..XVI, ISP-I..XVI, DMP-I..IV, USP)")
	kernel := flag.String("kernel", "vecadd", "kernel: "+strings.Join(modelzoo.Kernels(), ", ")+" (support varies by class)")
	n := flag.Int("n", 256, "problem size (elements; matmul rows)")
	procs := flag.Int("procs", 8, "processors/lanes/PEs for parallel classes")
	gantt := flag.Bool("gantt", false, "for DMP classes: show the firing schedule of a reduction-tree demo")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	traceASCII := flag.Bool("trace-ascii", false, "print the recorded trace as an ASCII timeline")
	metrics := flag.Bool("metrics", false, "print Prometheus-style metrics aggregated from the trace and cross-check them against the run stats")
	metricsJSON := flag.Bool("metrics-json", false, "like -metrics but emit the aggregated metrics as a JSON document")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	compare := flag.Bool("compare", false, "run the kernel on every class that implements it and print the cycle counts side by side")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for -compare (1 = serial)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *gantt {
		if err := runGantt(*class, *procs, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if err := runCompare(*kernel, *n, *procs, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*class, *kernel, *n, *procs, *tracePath, *traceASCII, *metrics, *metricsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

// runGantt runs a 16-leaf reduction tree on a DMP machine and renders its
// firing schedule as a per-PE timeline. With tracePath set the same run is
// also exported as a Chrome trace file.
func runGantt(className string, procs int, tracePath string) error {
	c, err := taxonomy.LookupString(className)
	if err != nil {
		return err
	}
	if c.Name.Machine != taxonomy.DataFlow || c.Name.Proc != taxonomy.MultiProcessor {
		return fmt.Errorf("-gantt shows data-flow schedules; pick a DMP class (got %s)", c)
	}
	g := dataflow.NewGraph()
	var layer []int
	for i := 0; i < 16; i++ {
		layer = append(layer, g.Const(int64(i+1)))
	}
	for len(layer) > 1 {
		var next []int
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, g.Binary(dataflow.OpAdd, layer[i], layer[i+1]))
		}
		layer = next
	}
	g.MarkOutput(layer[0])
	cfg := dataflow.Config{PEs: procs, BankWords: 64, Class: c}
	var tr *obs.Trace
	if tracePath != "" {
		tr = obs.NewTrace()
		cfg.Tracer = tr
	}
	mapping, err := dataflow.GreedyLocalityMapping(g, procs)
	if err != nil {
		return err
	}
	m, err := dataflow.New(cfg, g, mapping)
	if err != nil {
		return err
	}
	defer m.Release()
	res, err := m.Run()
	if err != nil {
		return err
	}
	chart, err := report.Gantt(res.Schedule, 10000)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %d PEs: 16-leaf reduction tree, sum = %d, makespan %d cycles\n\n",
		c, procs, res.Outputs[0], res.Stats.Cycles)
	fmt.Print(chart)
	if tr != nil {
		if err := writeChrome(tracePath, c, "reduction-tree", tr.Events()); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s (load in https://ui.perfetto.dev)\n", tr.Len(), tracePath)
	}
	return nil
}

// runCompare executes one kernel's full conformance row — every machine
// class implementing it — as a batch across the worker pool and prints the
// per-class cycle counts side by side. Each cell is a self-contained
// simulation, so the batch engine's ordering guarantee keeps the table
// stable at any worker count.
func runCompare(kernel string, n, procs, workers int) error {
	cells, err := conformance.FilterCells([]string{kernel}, nil)
	if err != nil {
		return err
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", workers)
	}
	p := conformance.Params{N: n, Procs: procs}
	if err := p.Validate(); err != nil {
		return err
	}
	results := exec.Map(context.Background(), workers, cells, func(ctx context.Context, c conformance.Cell) (conformance.CellResult, error) {
		return conformance.Run(c, p), nil
	})
	fmt.Printf("kernel %s over %d elements, %d processors, %d workers\n\n", kernel, n, procs, workers)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CLASS\tCYCLES\tINSTRUCTIONS\tVERDICT")
	failed := false
	for i, r := range results {
		cr := r.Value
		if r.Err != nil {
			cr = conformance.CellResult{Kernel: cells[i].Kernel, Class: cells[i].Class, Err: r.Err.Error()}
		}
		verdict := "ok"
		if !cr.Pass {
			failed = true
			verdict = "FAIL: " + cr.Err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", cr.Class, cr.Cycles, cr.Instructions, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("comparison row has failing cells")
	}
	return nil
}

func run(className, kernel string, n, procs int, tracePath string, traceASCII, metrics, metricsJSON bool) error {
	c, err := taxonomy.LookupString(className)
	if err != nil {
		return err
	}

	var opts []workload.Option
	var trace *obs.Trace
	if tracePath != "" || traceASCII || metrics || metricsJSON {
		trace = obs.NewTrace()
		opts = append(opts, workload.WithTracer(trace))
	}

	// The kernel table lives in internal/modelzoo so the serving layer
	// (internal/server) and the conformance matrix run the exact
	// simulations this CLI does.
	res, err := modelzoo.RunKernel(c, kernel, n, procs, opts...)
	if err != nil {
		return err
	}
	printStats(c, kernel, n, procs, res.Stats)

	if trace == nil {
		return nil
	}
	events := trace.Events()
	if tracePath != "" {
		if err := writeChrome(tracePath, c, kernel, events); err != nil {
			return err
		}
		fmt.Printf("\ntrace: %d events -> %s (load in https://ui.perfetto.dev)\n", len(events), tracePath)
	}
	if traceASCII {
		chart, err := report.TraceGantt(events, 1<<20)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(chart)
	}
	if metrics || metricsJSON {
		if err := printMetrics(c, trace, events, res.Stats, metricsJSON); err != nil {
			return err
		}
	}
	return nil
}

// writeChrome exports events as a Chrome trace-event file.
func writeChrome(path string, c taxonomy.Class, kernel string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.WriteChromeTrace(f, events, obs.ChromeOptions{
		Process: fmt.Sprintf("%s %s", c, kernel),
	})
}

// printMetrics aggregates the trace's events into a registry, prints the
// Prometheus text exposition (or, with asJSON, a JSON document), and
// cross-checks the trace against the run stats — the invariant that the
// metrics layer observes exactly what the machine accounted. The USP
// runner is exempt: fabric cycles are not evented. In JSON mode a
// cross-check failure is still an error, but the confirmation line is
// suppressed to keep the emitted document parseable on its own.
func printMetrics(c taxonomy.Class, trace *obs.Trace, events []obs.Event, stats machine.Stats, asJSON bool) error {
	reg := obs.NewRegistry()
	if err := obs.Collect(reg, events); err != nil {
		return err
	}
	fmt.Println()
	if asJSON {
		if err := reg.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if err := reg.WriteProm(os.Stdout); err != nil {
		return err
	}
	if c.Name.Machine == taxonomy.UniversalFlow {
		return nil
	}
	if err := trace.Check(stats.Totals()); err != nil {
		return err
	}
	if !asJSON {
		fmt.Println("\nmetrics cross-check: counters match the run stats")
	}
	return nil
}

func printStats(c taxonomy.Class, kernel string, n, procs int, s machine.Stats) {
	fmt.Printf("%s: kernel %s over %d elements", c, kernel, n)
	if c.Name.Proc != taxonomy.UniProcessor {
		fmt.Printf(" on %d processors", procs)
	}
	fmt.Println()
	fmt.Printf("  cycles:        %d\n", s.Cycles)
	fmt.Printf("  instructions:  %d (IPC %.2f)\n", s.Instructions, s.IPC())
	fmt.Printf("  ALU ops:       %d\n", s.ALUOps)
	fmt.Printf("  memory:        %d reads, %d writes\n", s.MemReads, s.MemWrites)
	fmt.Printf("  messages:      %d\n", s.Messages)
	if s.Barriers > 0 {
		fmt.Printf("  barriers:      %d\n", s.Barriers)
	}
	if s.NetConflictCycles > 0 {
		fmt.Printf("  net conflicts: %d cycles\n", s.NetConflictCycles)
	}
}
