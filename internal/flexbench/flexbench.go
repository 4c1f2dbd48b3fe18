// Package flexbench upgrades the paper's structural flexibility score to a
// measured one. Table II scores a class by counting its n's and crossbars;
// Huang, Waeijen & Corporaal (arXiv 2106.01139) argue flexibility should
// instead be measured: how well does a system run workloads it was not
// specialised for? This repo holds every ingredient the paper lacked — six
// executable machine classes, seven kernels, cycle-accurate machine.Stats
// and the Eq 1 cost model — so flexbench runs the full kernel suite across
// every class, normalises each cell's cycles against the best-in-class for
// that kernel, and derives an empirical flexibility/efficiency frontier
// per architecture class.
//
// The measurement reuses the conformance matrix's cells verbatim
// (conformance.Cell.Execute), so every cycle count in a flexbench result
// is pinned — cell for cell — to the 112-cell differential conformance
// suite; a table-driven test enforces the equality. Scoring is a pure
// function of the measured cells (ScoreCells), which makes the scoring
// rule itself property-testable and fuzzable, and the whole pipeline is
// deterministic: results are byte-identical across worker counts.
package flexbench

import (
	"context"
	"fmt"

	"repro/internal/conformance"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
)

// Params sizes a flexbench measurement. It deliberately mirrors
// conformance.Params: the differential tier compares the two suites at the
// same operating point.
type Params struct {
	// N is the problem size (elements; matmul rows). Default 64.
	N int `json:"n"`
	// Procs is the lane/core/PE count for the parallel classes (power of
	// two >= 4, dividing N). Default 4.
	Procs int `json:"procs"`
}

// DefaultParams is the measurement sizing used by tests and the CLI.
func DefaultParams() Params { return Params{N: 64, Procs: 4} }

// conf converts to the conformance sizing.
func (p Params) conf() conformance.Params {
	return conformance.Params{N: p.N, Procs: p.Procs}
}

// Validate checks that every runnable cell can execute at this sizing.
func (p Params) Validate() error { return p.conf().Validate() }

// CellMeasure is one (kernel, class) cell of the measured matrix: either an
// architecturally unrunnable hole (Runnable false — the class cannot run
// the kernel, which costs it coverage), or the run's full statistics. The
// stat counters are spelled out rather than embedding machine.Stats so the
// JSON shape is stable snake_case.
type CellMeasure struct {
	Kernel   string `json:"kernel"`
	Class    string `json:"class"`
	Runnable bool   `json:"runnable"`
	Cycles   int64  `json:"cycles,omitempty"`

	Instructions int64 `json:"instructions,omitempty"`
	ALUOps       int64 `json:"alu_ops,omitempty"`
	MemReads     int64 `json:"mem_reads,omitempty"`
	MemWrites    int64 `json:"mem_writes,omitempty"`
	Messages     int64 `json:"messages,omitempty"`

	// Err reports a failed run (reference mismatch, zero cycles, machine
	// error). A failed cell is not scored and fails the whole measurement.
	Err string `json:"error,omitempty"`
}

// stats reconstructs the counters the energy model prices.
func (c CellMeasure) stats() machine.Stats {
	return machine.Stats{
		Cycles:       c.Cycles,
		Instructions: c.Instructions,
		ALUOps:       c.ALUOps,
		MemReads:     c.MemReads,
		MemWrites:    c.MemWrites,
		Messages:     c.Messages,
	}
}

// scored reports whether the cell contributes to the scores: runnable, ran
// without error, and with a positive cycle count (so normalisation can
// never divide by zero).
func (c CellMeasure) scored() bool {
	return c.Runnable && c.Err == "" && c.Cycles > 0
}

// Universe enumerates the full kernel × class grid in kernel-major display
// order: every conformance kernel row crossed with every machine-class
// column, runnable or not. The unrunnable holes are the point — they are
// what the coverage fraction measures.
func Universe() []CellMeasure {
	kernels := conformance.KernelNames()
	classes := conformance.ClassNames()
	out := make([]CellMeasure, 0, len(kernels)*len(classes))
	for _, k := range kernels {
		for _, cl := range classes {
			_, runnable, _ := conformance.LookupCell(k, cl) // names from the vocabulary: no error
			out = append(out, CellMeasure{Kernel: k, Class: cl, Runnable: runnable})
		}
	}
	return out
}

// RunnableCells returns just the runnable cells of Universe, in the same
// order — the jobs campaign's chunk list.
func RunnableCells() []CellMeasure {
	var out []CellMeasure
	for _, c := range Universe() {
		if c.Runnable {
			out = append(out, c)
		}
	}
	return out
}

// MeasureCell executes one cell. An unknown or architecturally unrunnable
// (kernel, class) pair comes back with Runnable false; a runnable cell
// executes through the conformance matrix's own runner, has its output
// checked against the pure-Go reference, and reports its statistics.
func MeasureCell(kernel, class string, p Params) CellMeasure {
	m := CellMeasure{Kernel: kernel, Class: class}
	cell, runnable, err := conformance.LookupCell(kernel, class)
	if err != nil {
		m.Err = err.Error()
		return m
	}
	if !runnable {
		return m // architecturally unrunnable: a coverage hole, not an error
	}
	m.Runnable = true
	if err := p.Validate(); err != nil {
		m.Err = err.Error()
		return m
	}
	res, want, err := cell.Execute(p.conf())
	if err != nil {
		m.Err = err.Error()
		return m
	}
	if err := diffWords(res.Output, want); err != nil {
		m.Err = err.Error()
		return m
	}
	if res.Stats.Cycles <= 0 {
		m.Err = fmt.Sprintf("flexbench: run reported %d cycles", res.Stats.Cycles)
		return m
	}
	m.Cycles = res.Stats.Cycles
	m.Instructions = res.Stats.Instructions
	m.ALUOps = res.Stats.ALUOps
	m.MemReads = res.Stats.MemReads
	m.MemWrites = res.Stats.MemWrites
	m.Messages = res.Stats.Messages
	return m
}

// Measure executes the full universe across the given number of workers
// (<= 0 means GOMAXPROCS). Every cell builds its own machines, so cells are
// independent; results land in universe order whatever the worker count,
// making the parallel run byte-identical to the serial one.
func Measure(ctx context.Context, p Params, workers int) ([]CellMeasure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	uni := Universe()
	results := exec.Map(ctx, workers, uni, func(ctx context.Context, cell CellMeasure) (CellMeasure, error) {
		if !cell.Runnable {
			return cell, nil
		}
		return MeasureCell(cell.Kernel, cell.Class, p), nil
	})
	out := make([]CellMeasure, len(results))
	for i, r := range results {
		if r.Err != nil { // cancellation or a panicking cell
			c := uni[i]
			c.Err = r.Err.Error()
			out[i] = c
			continue
		}
		out[i] = r.Value
	}
	return out, ctx.Err()
}

// Run measures the universe and scores it: the one-call entry point the
// CLI, the server endpoint and the jobs campaign all share.
func Run(ctx context.Context, p Params, workers int) (Result, error) {
	cells, err := Measure(ctx, p, workers)
	if err != nil {
		return Result{}, err
	}
	return Analyze(p, cells)
}

// diffWords compares a machine output against the reference element-wise.
func diffWords(got, want []isa.Word) error {
	if len(got) != len(want) {
		return fmt.Errorf("flexbench: output length %d, reference length %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("flexbench: output[%d] = %d, reference says %d", i, got[i], want[i])
		}
	}
	return nil
}
