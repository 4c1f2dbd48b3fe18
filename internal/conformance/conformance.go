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
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
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
	// Backend selects the execution backend for the instruction-flow
	// machines; the zero value is the repo-wide default (compiled). The
	// matrix verdicts must not depend on it — that is the point.
	Backend machine.Backend
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

// KernelNames lists the kernel rows of the matrix, in display order. It is
// the canonical kernel vocabulary: cmd/simulate's -kernel values are tested
// to be exactly this set, so no kernel can be added to the simulator
// without also being conformance-checked.
func KernelNames() []string {
	return []string{"vecadd", "dot", "reduce", "fir", "matmul", "scan", "stencil"}
}

// ClassNames lists the machine-class columns of the matrix, in display
// order: the six machine classes of the taxonomy with every simulated
// sub-type.
func ClassNames() []string {
	names := []string{"IUP"}
	for sub := 1; sub <= 4; sub++ {
		names = append(names, "IAP-"+taxonomy.Roman(sub))
	}
	for sub := 1; sub <= 16; sub++ {
		names = append(names, "IMP-"+taxonomy.Roman(sub))
	}
	for sub := 1; sub <= 16; sub++ {
		names = append(names, "ISP-"+taxonomy.Roman(sub))
	}
	for sub := 1; sub <= 4; sub++ {
		names = append(names, "DMP-"+taxonomy.Roman(sub))
	}
	return append(names, "USP")
}

// inputs builds the deterministic operand vectors every cell shares (the
// same generator cmd/simulate uses, so the matrix exercises the exact runs
// users see).
func inputs(n int) (a, b []isa.Word) {
	a = make([]isa.Word, n)
	b = make([]isa.Word, n)
	for i := range a {
		a[i] = isa.Word(i%97 + 1)
		b[i] = isa.Word(i%89 + 2)
	}
	return a, b
}

// ones is the all-ones vector that turns the dot runners into the reduce
// kernel: sum(a) == dot(a, 1).
func ones(n int) []isa.Word {
	v := make([]isa.Word, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// firInputs derives the FIR operands at output length n with 8 taps.
func firInputs(n int) (x, h []isa.Word) {
	const taps = 8
	x = make([]isa.Word, n+taps-1)
	for i := range x {
		x[i] = isa.Word(i%31 + 1)
	}
	h = make([]isa.Word, taps)
	for i := range h {
		h[i] = isa.Word(i + 1)
	}
	return x, h
}

// matmulInputs derives the matmul operands: rows x 8 times 8 x 8.
func matmulInputs(rows int) (am, bm []isa.Word, k, cols int) {
	k, cols = 8, 8
	am = make([]isa.Word, rows*k)
	bm = make([]isa.Word, k*cols)
	for i := range am {
		am[i] = isa.Word(i%23 + 1)
	}
	for i := range bm {
		bm[i] = isa.Word(i%19 + 1)
	}
	return am, bm, k, cols
}

// Matrix enumerates every architecturally runnable kernel × class cell.
// The support rules are the taxonomy's own: butterfly reductions and halo
// exchanges need a DP-DP switch, the local-addressing runners need a direct
// DP-DM switch, and classes without a DP-DP switch fall back to the
// host-gather strategies exactly as cmd/simulate dispatches them.
func Matrix() []Cell {
	var cells []Cell
	add := func(c Cell) { cells = append(cells, c) }

	// vecadd: every class and sub-type runs it.
	add(Cell{Kernel: "vecadd", Class: "IUP", run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
		a, b := inputs(p.N)
		want, err := workload.RefVecAdd(a, b)
		if err != nil {
			return workload.Result{}, nil, err
		}
		res, err := workload.VecAddUni(a, b, opts...)
		return res, want, err
	}})
	for sub := 1; sub <= 4; sub++ {
		sub := sub
		add(Cell{Kernel: "vecadd", Class: "IAP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, b := inputs(p.N)
			want, err := workload.RefVecAdd(a, b)
			if err != nil {
				return workload.Result{}, nil, err
			}
			res, err := workload.VecAddSIMD(sub, p.Procs, a, b, opts...)
			return res, want, err
		}})
	}
	for sub := 1; sub <= 16; sub++ {
		sub := sub
		add(Cell{Kernel: "vecadd", Class: "IMP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, b := inputs(p.N)
			want, err := workload.RefVecAdd(a, b)
			if err != nil {
				return workload.Result{}, nil, err
			}
			res, err := workload.VecAddMIMD(sub, p.Procs, a, b, opts...)
			return res, want, err
		}})
	}
	for sub := 1; sub <= 16; sub++ {
		sub := sub
		add(Cell{Kernel: "vecadd", Class: "ISP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, b := inputs(p.N)
			want, err := workload.RefVecAdd(a, b)
			if err != nil {
				return workload.Result{}, nil, err
			}
			res, err := workload.VecAddSpatial(sub, p.Procs, a, b, opts...)
			return res, want, err
		}})
	}
	for sub := 1; sub <= 4; sub++ {
		sub := sub
		add(Cell{Kernel: "vecadd", Class: "DMP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, b := inputs(p.N)
			want, err := workload.RefVecAdd(a, b)
			if err != nil {
				return workload.Result{}, nil, err
			}
			res, err := workload.VecAddDataflow(sub, p.Procs, a, b, opts...)
			return res, want, err
		}})
	}
	add(Cell{Kernel: "vecadd", Class: "USP", metricsExempt: true, run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
		a, b := inputs(p.N)
		want, err := workload.RefVecAdd(a, b)
		if err != nil {
			return workload.Result{}, nil, err
		}
		res, err := workload.VecAddFabric(16, a, b, opts...)
		return res, want, err
	}})

	// dot and reduce: the instruction-flow classes. Classes without a DP-DP
	// switch use the host-gather partial strategy; the rest all-reduce with
	// the butterfly. reduce is dot against the all-ones vector, checked
	// against the independent RefReduce.
	dotCell := func(kernel, class string, runDot func(p Params, a, b []isa.Word, opts ...workload.Option) (workload.Result, error)) Cell {
		return Cell{Kernel: kernel, Class: class, run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, b := inputs(p.N)
			var want isa.Word
			if kernel == "reduce" {
				b = ones(p.N)
				want = workload.RefReduce(a)
			} else {
				var err error
				want, err = workload.RefDot(a, b)
				if err != nil {
					return workload.Result{}, nil, err
				}
			}
			res, err := runDot(p, a, b, opts...)
			return res, []isa.Word{want}, err
		}}
	}
	for _, kernel := range []string{"dot", "reduce"} {
		add(dotCell(kernel, "IUP", func(p Params, a, b []isa.Word, opts ...workload.Option) (workload.Result, error) {
			return workload.DotUni(a, b, opts...)
		}))
		for sub := 1; sub <= 4; sub++ {
			sub := sub
			add(dotCell(kernel, "IAP-"+taxonomy.Roman(sub), func(p Params, a, b []isa.Word, opts ...workload.Option) (workload.Result, error) {
				if sub == 1 || sub == 3 { // no DP-DP switch: butterfly impossible
					return workload.DotSIMDPartial(sub, p.Procs, a, b, opts...)
				}
				return workload.DotSIMD(sub, p.Procs, a, b, opts...)
			}))
		}
		for sub := 1; sub <= 16; sub++ {
			sub := sub
			add(dotCell(kernel, "IMP-"+taxonomy.Roman(sub), func(p Params, a, b []isa.Word, opts ...workload.Option) (workload.Result, error) {
				if (sub-1)&1 == 0 { // no DP-DP switch: butterfly impossible
					return workload.DotMIMDPartial(sub, p.Procs, a, b, opts...)
				}
				return workload.DotMIMD(sub, p.Procs, a, b, opts...)
			}))
		}
	}

	// fir: the uni-processor and the local-addressing IAP sub-types (the
	// overlapped sharding needs no DP-DP switch, so even IAP-I runs it).
	add(Cell{Kernel: "fir", Class: "IUP", run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
		x, h := firInputs(p.N)
		want, err := workload.RefFIR(x, h)
		if err != nil {
			return workload.Result{}, nil, err
		}
		res, err := workload.FIRUni(x, h, opts...)
		return res, want, err
	}})
	for sub := 1; sub <= 2; sub++ {
		sub := sub
		add(Cell{Kernel: "fir", Class: "IAP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			x, h := firInputs(p.N)
			want, err := workload.RefFIR(x, h)
			if err != nil {
				return workload.Result{}, nil, err
			}
			res, err := workload.FIRSIMD(sub, p.Procs, x, h, opts...)
			return res, want, err
		}})
	}

	// matmul: every IMP sub-type; direct DP-DM banks replicate B, crossbar
	// sub-types share one copy of B through the memory switch.
	for sub := 1; sub <= 16; sub++ {
		sub := sub
		add(Cell{Kernel: "matmul", Class: "IMP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			am, bm, k, cols := matmulInputs(p.N)
			want, err := workload.RefMatMul(am, bm, p.N, k, cols)
			if err != nil {
				return workload.Result{}, nil, err
			}
			var res workload.Result
			if (sub-1)&2 != 0 {
				res, err = workload.MatMulMIMDShared(sub, p.Procs, am, bm, p.N, k, cols, opts...)
			} else {
				res, err = workload.MatMulMIMDReplicated(sub, p.Procs, am, bm, p.N, k, cols, opts...)
			}
			return res, want, err
		}})
	}

	// scan: the coordinator/worker split needs per-core control flow and
	// the runner's local addressing needs direct DP-DM with a DP-DP
	// crossbar — IMP sub-types II, VI, X, XIV.
	for _, sub := range []int{2, 6, 10, 14} {
		sub := sub
		add(Cell{Kernel: "scan", Class: "IMP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, _ := inputs(p.N)
			want := workload.RefScan(a)
			res, err := workload.ScanMIMD(sub, p.Procs, a, opts...)
			return res, want, err
		}})
	}

	// stencil: halo exchange over the DP-DP network with local addressing —
	// IAP-II, and IMP sub-types II, VI, X, XIV.
	add(Cell{Kernel: "stencil", Class: "IAP-II", run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
		a, _ := inputs(p.N)
		want := workload.RefStencil3Periodic(a)
		res, err := workload.Stencil3SIMD(2, p.Procs, a, opts...)
		return res, want, err
	}})
	for _, sub := range []int{2, 6, 10, 14} {
		sub := sub
		add(Cell{Kernel: "stencil", Class: "IMP-" + taxonomy.Roman(sub), run: func(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
			a, _ := inputs(p.N)
			want := workload.RefStencil3Periodic(a)
			res, err := workload.Stencil3MIMD(sub, p.Procs, a, opts...)
			return res, want, err
		}})
	}

	return cells
}

// Execute runs the cell's kernel and returns the raw machine result plus
// the pure-Go reference output, without Run's tracer and metric
// cross-checks — the measurement accessor internal/flexbench builds on,
// where the full machine.Stats (not just cycles and instructions) feed the
// energy-weighted scores. The cycles it reports are the same ones Run
// reports; flexbench's differential test tier pins that equality.
func (c Cell) Execute(p Params, opts ...workload.Option) (workload.Result, []isa.Word, error) {
	return c.run(p, opts...)
}

// Run executes one cell: the kernel runs with a tracer attached, the output
// is compared against the pure-Go reference, and the trace's folded totals
// must reproduce the run's machine.Stats exactly.
func Run(c Cell, p Params) CellResult {
	r := CellResult{Kernel: c.Kernel, Class: c.Class}
	if err := p.Validate(); err != nil {
		r.Err = err.Error()
		return r
	}
	trace := obs.AcquireTrace()
	defer obs.ReleaseTrace(trace)
	res, want, err := c.run(p, workload.WithTracer(trace), workload.WithBackend(p.Backend))
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
		if err := trace.Check(res.Stats.Totals()); err != nil {
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
	var out []Cell
	for _, c := range Matrix() {
		if c.Kernel == kernel {
			out = append(out, c)
		}
	}
	return out
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
