// Command bench is the repository's benchmark. It runs four workloads, each
// in its own process with GOMAXPROCS=2, prints every metric by name with its
// unit, checks every output, and exits non-zero on any failure:
//
//	matrix      the conformance matrix campaign, traced and cross-checked
//	flexbench   the flexbench campaign over the same cells, untraced
//	serve-cold  /v1/simulate requests that all miss the result cache
//	serve-warm  /v1/simulate requests drawn from a small cached hot set
//
// Run it from the repository root with bash bench/run.sh [flags]; see
// bench/README.md for the flags, the metrics and their baselines.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one benchmark workload; bench/README.md says why each is in
// the benchmark.
type workloadDef struct {
	name string
	run  func(*runner)
}

var workloadDefs = []workloadDef{
	{"matrix", runMatrix},
	{"flexbench", runFlexbench},
	{"serve-cold", runServeCold},
	{"serve-warm", runServeWarm},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed; seed 2 is held out for checking claims")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics, spans written under "+traceDir)
	runs := fs.Int("runs", 1, "repeat the full run this many times, interleaving workloads, and report medians and quartiles")
	out := fs.String("out", "", "write the JSON summary of a full run to this file")
	compare := fs.Bool("compare", false, "compare two summaries: -compare base.json head.json")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two summary files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Smoke: *smoke,
		Traced: *trace == 1, TraceDir: traceDir}
	if cfg.Seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	if cfg.Workload == "" {
		return runAll(cfg, *runs, *out, stdout, stderr)
	}
	if findWorkload(cfg.Workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", cfg.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res := runWorkload(cfg)
	printResult(stdout, res)
	detail, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) *Result {
	runtime.GOMAXPROCS(workers)
	r := newRunner(cfg)
	findWorkload(cfg.Workload).run(r)
	return r.finish()
}

func printResult(w io.Writer, res *Result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %gs): correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, mode, res.Seconds, res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, warn := range res.Warnings {
		fmt.Fprintf(w, "   warning: %s\n", warn)
	}
	for _, name := range sortedMetricNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", res.TraceFile)
	}
}

// sortedMetricNames orders metrics as metricDefs lists them, then by name.
func sortedMetricNames(ms map[string]Metric) []string {
	rank := map[string]int{}
	for i, d := range metricDefs {
		rank[d.Name] = i
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, okI := rank[names[i]]
		rj, okJ := rank[names[j]]
		if okI != okJ {
			return okI
		}
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	return names
}

// childTimeout bounds one workload process; a run is sized to end well
// within it.
const childTimeout = 5 * time.Minute

// runAll runs every workload in a child process, `runs` times over,
// interleaving the workloads, and summarises the results.
func runAll(cfg runConfig, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sum := newSummary(cfg, runs)
	status := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloadDefs {
			c := cfg
			c.Workload = w.name
			res, err := runChild(exe, c, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				sum.Failures = append(sum.Failures, fmt.Sprintf("%s run %d: %v", w.name, i+1, err))
				status = 1
				continue
			}
			printResult(stdout, res)
			sum.add(res)
			if !res.Correct {
				sum.Failures = append(sum.Failures, fmt.Sprintf("%s run %d: %s", w.name, i+1, strings.Join(res.Errors, "; ")))
				status = 1
			}
		}
	}
	sum.finish()
	if runs > 1 {
		sum.print(stdout)
	}
	if out != "" {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process with GOMAXPROCS=2 and
// returns the result it printed.
func runChild(exe string, cfg runConfig, stderr io.Writer) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64)}
	if cfg.Traced {
		args = append(args, "-trace", "1")
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	cmd := osexec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = stderr
	outb, runErr := cmd.Output()
	sc := bufio.NewScanner(bytes.NewReader(outb))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if line := sc.Bytes(); bytes.HasPrefix(line, []byte(`{"workload":`)) {
			var res Result
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				return nil, fmt.Errorf("reading its result: %w", err)
			}
			return &res, nil
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return nil, fmt.Errorf("it printed no result")
}
