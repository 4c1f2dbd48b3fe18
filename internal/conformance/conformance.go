// Package conformance is the differential-testing backstop for the
// behavioural-equivalence claim at the heart of the taxonomy: the same
// kernel must compute the same answer on every machine class capable of
// running it — uni-processor, array processor, multi-processor, spatial
// processor, data-flow machine or universal fabric — differing only in
// cycles and configuration bits (PAPER.md §IV–V).
//
// It provides two instruments:
//
//   - The conformance matrix: every kernel of internal/workload crossed
//     with every machine class/sub-type that can architecturally run it.
//     Each cell executes the kernel, checks the output against the pure-Go
//     reference, and cross-checks the run's obs metrics against its
//     machine.Stats.
//
//   - The random-program lockstep differ (randprog.go): generated ISA
//     programs executed on a uni-processor, a SIMD array and a MIMD
//     multi-processor, whose final memories (including a register dump)
//     must agree word-for-word.
//
// cmd/conformance exposes both as a CI gate.
package conformance

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// Params sizes the matrix runs.
type Params struct {
	// N is the problem size (elements; matmul rows).
	N int
	// Procs is the lane/core/PE count for the parallel classes. It must be
	// a power of two >= 4 (the butterfly reductions need the power of two,
	// the stencils need >= 3 processors) and divide N.
	Procs int
}

// DefaultParams is the matrix sizing used by tests and the CLI default.
func DefaultParams() Params { return Params{N: 64, Procs: 4} }

// Validate checks that every cell of the matrix can run at this sizing.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("conformance: problem size must be >= 1, got %d", p.N)
	}
	if p.Procs < 4 || p.Procs&(p.Procs-1) != 0 {
		return fmt.Errorf("conformance: procs must be a power of two >= 4, got %d", p.Procs)
	}
	if p.N%p.Procs != 0 {
		return fmt.Errorf("conformance: %d elements do not shard over %d processors", p.N, p.Procs)
	}
	return nil
}

// Cell is one kernel × machine-class entry of the conformance matrix.
type Cell struct {
	// Kernel is the kernel row name (see KernelNames).
	Kernel string
	// Class is the machine-class column label (IUP, IAP-I..IV, IMP-I..XVI,
	// ISP-I..XVI, DMP-I..IV, USP).
	Class string
	// metricsExempt marks cells whose simulator does not event every stat
	// (the fabric's cycles are clock steps, not traced instructions).
	metricsExempt bool
	// run executes the kernel and returns the machine result plus the
	// expected output computed by the pure-Go reference.
	run func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error)
}

// CellResult is the outcome of executing one matrix cell.
type CellResult struct {
	Kernel       string `json:"kernel"`
	Class        string `json:"class"`
	Pass         bool   `json:"pass"`
	Cycles       int64  `json:"cycles"`
	Instructions int64  `json:"instructions"`
	Err          string `json:"error,omitempty"`
}

// KernelNames lists the kernel rows of the matrix, in display order: the
// vocabulary of modelzoo's kernel table, which cmd/simulate and
// /v1/simulate accept too, so no kernel can be served without also being
// conformance-checked.
func KernelNames() []string { return modelzoo.Kernels() }

// ClassNames lists the machine-class columns of the matrix, in display
// order: the six machine classes of the taxonomy with every simulated
// sub-type.
func ClassNames() []string {
	names := make([]string, len(columns))
	for i, c := range columns {
		names[i] = c.String()
	}
	return names
}

// columns are the matrix's machine classes, in display order: Table I's
// implementable classes, instruction-flow first, except the data-flow
// uni-processor (DUP): modelzoo has no runner for it and reports every
// kernel on it as unsupported.
var columns = func() []taxonomy.Class {
	var classes []taxonomy.Class
	for _, c := range taxonomy.Table() {
		if c.Implementable && (c.Name.Machine != taxonomy.DataFlow || c.Name.Proc != taxonomy.UniProcessor) {
			classes = append(classes, c)
		}
	}
	rank := map[taxonomy.MachineType]int{taxonomy.InstructionFlow: 0, taxonomy.DataFlow: 1, taxonomy.UniversalFlow: 2}
	slices.SortStableFunc(classes, func(a, b taxonomy.Class) int { return rank[a.Name.Machine] - rank[b.Name.Machine] })
	return classes
}()

// matrix is every kernel row crossed with the columns its row admits.
var matrix = func() []Cell {
	var cells []Cell
	for _, k := range modelzoo.KernelTable() {
		for i := range columns {
			c := &columns[i]
			if !k.InMatrix(*c) {
				continue
			}
			cells = append(cells, Cell{
				Kernel: k.Name,
				Class:  c.String(),
				// The fabric's cycles are clock steps, not traced instructions.
				metricsExempt: c.Name.Machine == taxonomy.UniversalFlow,
				run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
					return k.Execute(*c, p.N, p.Procs, opts...)
				},
			})
		}
	}
	return cells
}()

// Matrix enumerates every architecturally runnable kernel × class cell:
// each row of modelzoo's kernel table crossed with the columns its
// Table I predicate admits — butterfly reductions and halo exchanges need
// a DP-DP switch, the local-addressing runners a direct DP-DM switch.
// Cells come in row order, and within a row in ClassNames order.
func Matrix() []Cell { return slices.Clone(matrix) }

// Execute runs the cell's kernel and returns the raw machine result plus
// the pure-Go reference output, without Run's tracer and metric
// cross-checks — the measurement accessor internal/flexbench builds on,
// where the full machine.Stats (not just cycles and instructions) feed the
// energy-weighted scores. The cycles it reports are the same ones Run
// reports; flexbench's differential test tier pins that equality.
func (c Cell) Execute(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
	return c.run(p, opts...)
}

// Run executes one cell: the kernel runs with an obs.Tally attached, the
// output is compared against the pure-Go reference, and the totals the
// tally folded from every emitted event must reproduce the run's
// machine.Stats exactly. The tally is the run's own, so Run is safe to call
// from several goroutines at once.
func Run(c Cell, p Params) CellResult {
	r := CellResult{Kernel: c.Kernel, Class: c.Class}
	if err := p.Validate(); err != nil {
		r.Err = err.Error()
		return r
	}
	var tally obs.Tally
	res, want, err := c.run(p, workload.WithTracer(&tally))
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Cycles = res.Stats.Cycles
	r.Instructions = res.Stats.Instructions
	if err := diffOutput(res.Output, want); err != nil {
		r.Err = err.Error()
		return r
	}
	if res.Stats.Cycles <= 0 {
		r.Err = fmt.Sprintf("conformance: run reported %d cycles", res.Stats.Cycles)
		return r
	}
	if !c.metricsExempt {
		if err := tally.Check(res.Stats.Totals()); err != nil {
			r.Err = "conformance: " + err.Error()
			return r
		}
	}
	r.Pass = true
	return r
}

// RunMatrix executes every cell and reports the results in matrix order
// plus whether all of them passed.
func RunMatrix(p Params) ([]CellResult, bool) {
	return RunMatrixParallel(context.Background(), p, 1)
}

// RunMatrixParallel is RunMatrix across the given number of workers (<= 0
// means GOMAXPROCS). Every cell builds its own machines, networks and
// trace, so cells are independent; results land in matrix order whatever
// the worker count, making the parallel run byte-identical to the serial
// one. A cancelled context or a panicking cell surfaces as that cell's
// Err.
func RunMatrixParallel(ctx context.Context, p Params, workers int) ([]CellResult, bool) {
	return RunCellsParallel(ctx, Matrix(), p, workers)
}

// diffOutput compares a machine output against the reference element-wise.
func diffOutput(got, want []isa.Word) error {
	if len(got) != len(want) {
		return fmt.Errorf("conformance: output length %d, reference length %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("conformance: output[%d] = %d, reference says %d", i, got[i], want[i])
		}
	}
	return nil
}

// CellsForKernel returns the matrix cells of one kernel row.
func CellsForKernel(kernel string) []Cell {
	// The only error is an unknown kernel, which has no cells.
	cells, _ := FilterCells([]string{kernel}, nil)
	return cells
}

// Summary condenses results into per-kernel pass/total counts, sorted by
// kernel name.
func Summary(results []CellResult) []string {
	pass := map[string]int{}
	total := map[string]int{}
	for _, r := range results {
		total[r.Kernel]++
		if r.Pass {
			pass[r.Kernel]++
		}
	}
	kernels := make([]string, 0, len(total))
	for k := range total {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	out := make([]string, len(kernels))
	for i, k := range kernels {
		out[i] = fmt.Sprintf("%s %d/%d", k, pass[k], total[k])
	}
	return out
}
