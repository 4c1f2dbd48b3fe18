// Command repro runs every experiment of the reproduction end-to-end and
// prints (or writes) the paper's artefacts: Tables I-III, Figures 1, 2 and
// 7, the Eq 1/Eq 2 cost sweep, and the §III.B morph probes. It is the
// one-shot regeneration entry the EXPERIMENTS.md index points at.
//
// Usage:
//
//	repro              # everything to stdout
//	repro -out dir     # one file per artefact under dir
//	repro -traces dir  # additionally write Chrome trace-event JSON files
//	                   # (Perfetto-loadable) per simulated experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bibliometrics"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

func main() {
	out := flag.String("out", "", "directory to write one file per artefact (default: stdout)")
	width := flag.Int("width", 48, "chart width")
	traces := flag.String("traces", "", "directory to write Chrome trace-event JSON per simulated experiment (F3-F6 class runs and P1 probes)")
	flag.Parse()

	if err := run(*out, *width, *traces); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// writeTrace dumps one experiment's recorded events as a Chrome trace file
// under dir, named for the experiment id.
func writeTrace(dir, name, process string, tr *obs.Trace) error {
	if tr.Len() == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteChrome(f, obs.ChromeOptions{Process: process})
}

// artefact is one regenerated table or figure.
type artefact struct {
	id, title, file string
	render          func() (string, error)
}

func artefacts(width int, tracesDir string) []artefact {
	return []artefact{
		{"T1", "Table I: extended taxonomy classes", "table1.txt",
			func() (string, error) { return report.TableI(), nil }},
		{"T2", "Table II: relative flexibility values", "table2.txt",
			func() (string, error) { return report.TableII(), nil }},
		{"T3", "Table III: survey classification (printed vs derived)", "table3.txt",
			report.TableIII},
		{"F1", "Fig 1: research trends (synthetic corpus)", "fig1.txt",
			func() (string, error) {
				corpus, err := bibliometrics.Generate(bibliometrics.DefaultConfig())
				if err != nil {
					return "", err
				}
				var b strings.Builder
				b.WriteString(report.Fig1Table(corpus))
				b.WriteString("\n")
				for _, s := range bibliometrics.Trends(corpus) {
					fmt.Fprintf(&b, "%-26s last-5-years growth: %.1fx\n", s.Topic, s.GrowthRatio(5))
				}
				return b.String(), nil
			}},
		{"F2", "Fig 2: hierarchy of computing machines", "fig2.txt",
			func() (string, error) { return report.Fig2Tree(), nil }},
		{"F3-F6", "Machine-class simulators: one kernel across every class", "classes.txt",
			func() (string, error) { return renderClassRuns(tracesDir) }},
		{"F7", "Fig 7: flexibility comparison of surveyed architectures", "fig7.txt",
			func() (string, error) { return report.Fig7Chart(width) }},
		{"E1/E2", "Eq 1 and Eq 2: area and configuration bits per class (n=16)", "cost.txt",
			func() (string, error) { return report.CostTable(16) }},
		{"E3", "Flexibility/area Pareto frontier (n=16, extension)", "pareto.txt",
			func() (string, error) { return report.ParetoTable(16) }},
		{"E4", "Eq 1 / Eq 2 for every surveyed architecture (extension)", "surveycost.txt",
			func() (string, error) { return report.SurveyCostTable(16) }},
		{"A1", "Flynn collapse of the survey (motivation, extension)", "flynn.txt",
			report.FlynnCollapseTable},
		{"P1", "Morph probes: the executable flexibility claims of paragraph III.B", "probes.txt",
			func() (string, error) {
				var opts []workload.Option
				var tr *obs.Trace
				if tracesDir != "" {
					tr = obs.NewTrace()
					opts = append(opts, workload.WithTracer(tr))
				}
				probes, err := workload.RunProbes(opts...)
				if err != nil {
					return "", err
				}
				if tr != nil {
					if err := writeTrace(tracesDir, "P1-probes.json", "P1 morph probes", tr); err != nil {
						return "", err
					}
				}
				var b strings.Builder
				for _, p := range probes {
					status := "CONFIRMED"
					if !p.Holds {
						status = "FAILED"
					}
					fmt.Fprintf(&b, "[%s] %s\n        %s\n", status, p.Claim, p.Detail)
				}
				return b.String(), nil
			}},
	}
}

// renderClassRuns regenerates the F3-F6 companion table: the kernel
// table's vector add over 256 elements, at width 8 where the class is
// parallel, executed on a representative of every machine family the
// figures illustrate, with the cycle-level statistics that make the
// structural diagrams operational. With tracesDir set, each run also
// writes a Chrome trace file classes-<class>.json there.
func renderClassRuns(tracesDir string) (string, error) {
	const n = 256
	runs := []struct{ class, label string }{
		{"IUP", "IUP (fig: Von Neumann baseline)"},
		{"IAP-I", "IAP-I x8 (Fig 4)"},
		{"IAP-IV", "IAP-IV x8 (Fig 4)"},
		{"IMP-I", "IMP-I x8 (Fig 5 family)"},
		{"IMP-XVI", "IMP-XVI x8 (Fig 5 family)"},
		{"DMP-II", "DMP-II x8 (Fig 3)"},
		{"DMP-IV", "DMP-IV x8 (Fig 3)"},
		{"USP", "USP adder overlay (Fig 6)"},
	}
	t := report.Table{Headers: []string{"Machine", "Cycles", "Instr", "IPC", "MemOps", "Messages", "Conflicts"}}
	for _, r := range runs {
		var opts []workload.Option
		var tr *obs.Trace
		if tracesDir != "" {
			tr = obs.NewTrace()
			opts = append(opts, workload.WithTracer(tr))
		}
		c, err := taxonomy.LookupString(r.class)
		if err != nil {
			return "", err
		}
		res, err := modelzoo.RunKernel(c, "vecadd", n, 8, opts...)
		if err != nil {
			return "", fmt.Errorf("%s: %w", r.label, err)
		}
		if tr != nil {
			name := fmt.Sprintf("classes-%s.json", r.class)
			if err := writeTrace(tracesDir, name, r.label+" vecadd", tr); err != nil {
				return "", err
			}
		}
		s := res.Stats
		t.AddRow(r.label,
			fmt.Sprint(s.Cycles), fmt.Sprint(s.Instructions), fmt.Sprintf("%.2f", s.IPC()),
			fmt.Sprint(s.MemReads+s.MemWrites), fmt.Sprint(s.Messages), fmt.Sprint(s.NetConflictCycles))
	}
	return fmt.Sprintf("Vector add, %d elements, per machine class:\n\n%s", n, t.Text()), nil
}

func run(out string, width int, tracesDir string) error {
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	if tracesDir != "" {
		if err := os.MkdirAll(tracesDir, 0o755); err != nil {
			return err
		}
	}
	for _, a := range artefacts(width, tracesDir) {
		body, err := a.render()
		if err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
		if out == "" {
			fmt.Printf("==== %s — %s ====\n%s\n", a.id, a.title, body)
			continue
		}
		path := filepath.Join(out, a.file)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-5s %s -> %s\n", a.id, a.title, path)
	}
	if tracesDir != "" {
		entries, err := os.ReadDir(tracesDir)
		if err != nil {
			return err
		}
		fmt.Printf("traces: %d Chrome trace files under %s (load in https://ui.perfetto.dev)\n", len(entries), tracesDir)
	}
	return nil
}
