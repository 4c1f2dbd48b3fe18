package modelzoo

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/isa"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// Kernel is one row of the kernel table: a named kernel, the operands it
// runs on, its pure-Go reference and one runner per machine family. The
// table is the repo's single kernel vocabulary — cmd/simulate's -kernel
// flag, /v1/simulate, the progcheck sweep and the conformance matrix
// (hence flexbench and the jobs campaigns) all read it, so a kernel name
// means the same program everywhere.
type Kernel struct {
	// Name is the kernel's name in every vocabulary.
	Name string
	// operands builds the deterministic inputs at problem size n.
	operands func(n int) operands
	// ref computes the expected output from the operands.
	ref func(in operands) ([]isa.Word, error)
	// run holds the runner for each machine family; nil where the family
	// has no runner for the kernel.
	run [familyCount]runner
	// matrix narrows the conformance matrix to the classes whose Table I
	// links the runner is written for; nil admits every class with a
	// runner. Off-matrix sub-types still run: they fail for the reason
	// the taxonomy predicts.
	matrix func(c taxonomy.Class) bool
}

// family is a machine family: the column a runner fills. Runners read the
// class's Table I links to pick their strategy.
type family int

const (
	familyIUP family = iota
	familyIAP
	familyIMP
	familyISP
	familyDMP
	familyUSP
	familyCount
)

// familyOf maps a Table I class to the family whose runners execute it.
// The data-flow uni-processor has none: the data-flow simulator runs the
// DMP sub-types, and DUP is reported as unsupported.
func familyOf(c taxonomy.Class) (family, bool) {
	switch c.Name.Machine {
	case taxonomy.DataFlow:
		return familyDMP, c.Name.Proc == taxonomy.MultiProcessor
	case taxonomy.UniversalFlow:
		return familyUSP, true
	case taxonomy.InstructionFlow:
		return [...]family{
			taxonomy.UniProcessor:     familyIUP,
			taxonomy.ArrayProcessor:   familyIAP,
			taxonomy.MultiProcessor:   familyIMP,
			taxonomy.SpatialProcessor: familyISP,
		}[c.Name.Proc], true
	default:
		return 0, false
	}
}

// runner executes a kernel on one class at the given parallel width.
type runner func(c taxonomy.Class, procs int, in operands, opts []workload.Option) (workload.Result, error)

// operands are one run's inputs: a and b for the vector kernels, samples
// and taps for fir, the rows x k and k x cols matrices for matmul.
type operands struct {
	a, b          []isa.Word
	rows, k, cols int
}

// seq builds v[i] = i%mod + base, the generator behind every operand.
func seq(n, mod, base int) []isa.Word {
	v := make([]isa.Word, n)
	for i := range v {
		v[i] = isa.Word(i%mod + base)
	}
	return v
}

func vector(n int) operands  { return operands{a: seq(n, 97, 1)} }
func vectors(n int) operands { return operands{a: seq(n, 97, 1), b: seq(n, 89, 2)} }

// vectorAndOnes turns the dot runners into the reduce kernel:
// sum(a) == dot(a, 1).
func vectorAndOnes(n int) operands { return operands{a: seq(n, 97, 1), b: seq(n, 1, 1)} }

// firOperands are n outputs' worth of samples, extended by the ghost
// overlap of the 8 taps.
func firOperands(n int) operands {
	const taps = 8
	return operands{a: seq(n+taps-1, 31, 1), b: seq(taps, taps, 1)}
}

// matmulOperands are A (n x 8) and B (8 x 8).
func matmulOperands(n int) operands {
	const k, cols = 8, 8
	return operands{a: seq(n*k, 23, 1), b: seq(k*cols, 19, 1), rows: n, k: k, cols: cols}
}

// uni, pair and single adapt the workload runner shapes to runner.
func uni(f func(a, b []isa.Word, opts ...workload.Option) (workload.Result, error)) runner {
	return func(_ taxonomy.Class, _ int, in operands, opts []workload.Option) (workload.Result, error) {
		return f(in.a, in.b, opts...)
	}
}

func pair(f func(c taxonomy.Class, procs int, a, b []isa.Word, opts ...workload.Option) (workload.Result, error)) runner {
	return func(c taxonomy.Class, procs int, in operands, opts []workload.Option) (workload.Result, error) {
		return f(c, procs, in.a, in.b, opts...)
	}
}

func single(f func(c taxonomy.Class, procs int, a []isa.Word, opts ...workload.Option) (workload.Result, error)) runner {
	return func(c taxonomy.Class, procs int, in operands, opts []workload.Option) (workload.Result, error) {
		return f(c, procs, in.a, opts...)
	}
}

// reduction all-reduces with the butterfly over the DP-DP switch, and
// falls back to host-gathered partial sums on classes without one.
func reduction(c taxonomy.Class, procs int, in operands, opts []workload.Option) (workload.Result, error) {
	if c.Links[taxonomy.SiteDPDP].Switched() {
		return workload.Dot(c, procs, in.a, in.b, opts...)
	}
	return workload.DotPartial(c, procs, in.a, in.b, opts...)
}

// matmul runs the matrix product; the DP-DM link picks B's layout.
func matmul(c taxonomy.Class, procs int, in operands, opts []workload.Option) (workload.Result, error) {
	return workload.MatMul(c, procs, in.a, in.b, in.rows, in.k, in.cols, opts...)
}

// fabric runs the vector add on the LUT fabric's 16-bit adder overlay.
func fabric(_ taxonomy.Class, _ int, in operands, opts []workload.Option) (workload.Result, error) {
	return workload.VecAddFabric(16, in.a, in.b, opts...)
}

// localAddressing admits classes with a direct DP-DM switch, where each
// processor addresses only its own bank.
func localAddressing(c taxonomy.Class) bool { return !c.Links[taxonomy.SiteDPDM].Switched() }

// haloExchange admits local addressing plus a DP-DP switch to trade
// boundary elements over.
func haloExchange(c taxonomy.Class) bool {
	return localAddressing(c) && c.Links[taxonomy.SiteDPDP].Switched()
}

func refVecAdd(in operands) ([]isa.Word, error)  { return workload.RefVecAdd(in.a, in.b) }
func refFIR(in operands) ([]isa.Word, error)     { return workload.RefFIR(in.a, in.b) }
func refScan(in operands) ([]isa.Word, error)    { return workload.RefScan(in.a), nil }
func refReduce(in operands) ([]isa.Word, error)  { return []isa.Word{workload.RefReduce(in.a)}, nil }
func refStencil(in operands) ([]isa.Word, error) { return workload.RefStencil3Periodic(in.a), nil }

func refDot(in operands) ([]isa.Word, error) {
	s, err := workload.RefDot(in.a, in.b)
	return []isa.Word{s}, err
}

func refMatMul(in operands) ([]isa.Word, error) {
	return workload.RefMatMul(in.a, in.b, in.rows, in.k, in.cols)
}

// dotRunners serve both dot and reduce: reduce is dot against ones.
var dotRunners = [familyCount]runner{
	familyIUP: uni(workload.DotUni),
	familyIAP: reduction,
	familyIMP: reduction,
}

// kernelTable is the kernel table in display order.
var kernelTable = []Kernel{
	{Name: "vecadd", operands: vectors, ref: refVecAdd, run: [familyCount]runner{
		familyIUP: uni(workload.VecAddUni),
		familyIAP: pair(workload.VecAdd),
		familyIMP: pair(workload.VecAdd),
		familyISP: pair(workload.VecAdd),
		familyDMP: pair(workload.VecAddDataflow),
		familyUSP: fabric,
	}},
	{Name: "dot", operands: vectors, ref: refDot, run: dotRunners},
	{Name: "reduce", operands: vectorAndOnes, ref: refReduce, run: dotRunners},
	{Name: "fir", operands: firOperands, ref: refFIR, matrix: localAddressing, run: [familyCount]runner{
		familyIUP: uni(workload.FIRUni),
		familyIAP: pair(workload.FIR),
	}},
	{Name: "matmul", operands: matmulOperands, ref: refMatMul, run: [familyCount]runner{
		familyIMP: matmul,
	}},
	// scan's coordinator/worker split needs per-core control flow.
	{Name: "scan", operands: vector, ref: refScan, matrix: haloExchange, run: [familyCount]runner{
		familyIMP: single(workload.Scan),
	}},
	{Name: "stencil", operands: vector, ref: refStencil, matrix: haloExchange, run: [familyCount]runner{
		familyIAP: single(workload.Stencil3),
		familyIMP: single(workload.Stencil3),
	}},
}

// KernelTable returns a copy of the kernel table, in display order.
func KernelTable() []Kernel { return slices.Clone(kernelTable) }

// Kernels lists the kernel vocabulary in display order, for flag help and
// request validation.
func Kernels() []string {
	names := make([]string, len(kernelTable))
	for i, k := range kernelTable {
		names[i] = k.Name
	}
	return names
}

// lookupKernel finds a table row by name, nil if there is none.
func lookupKernel(name string) *Kernel {
	for i := range kernelTable {
		if kernelTable[i].Name == name {
			return &kernelTable[i]
		}
	}
	return nil
}

// KnownKernel reports whether name is in the Kernels vocabulary.
func KnownKernel(name string) bool { return lookupKernel(name) != nil }

// runnerFor returns the kernel's runner for c's family, nil if none.
func (k *Kernel) runnerFor(c taxonomy.Class) runner {
	if f, ok := familyOf(c); ok {
		return k.run[f]
	}
	return nil
}

// InMatrix reports whether c is one of the kernel's conformance-matrix
// columns: its family has a runner and the class has the links that
// runner is written for.
func (k *Kernel) InMatrix(c taxonomy.Class) bool {
	return k.runnerFor(c) != nil && (k.matrix == nil || k.matrix(c))
}

// Execute runs the kernel on c and returns the result together with the
// pure-Go reference output for the same operands. The runner checks its
// output against that reference (workload.WithExpected), so the reference
// is computed once and a wrong output fails the run.
func (k *Kernel) Execute(c taxonomy.Class, n, procs int, opts ...workload.Option) (workload.Result, []isa.Word, error) {
	run := k.runnerFor(c)
	if run == nil {
		return workload.Result{}, nil, unsupported(c, k.Name)
	}
	in := k.operands(n)
	want, err := k.ref(in)
	if err != nil {
		return workload.Result{}, nil, err
	}
	res, err := run(c, procs, in, append(opts[:len(opts):len(opts)], workload.WithExpected(want)))
	return res, want, err
}

// RunKernel executes one kernel on the simulator of the named class — the
// run cmd/simulate performs and the serving layer reuses. It dispatches by
// machine family, not by the matrix: an off-matrix sub-type still stages
// its program and fails the way the taxonomy predicts. The run is fully
// deterministic in (class, kernel, n, procs): inputs derive from n alone.
func RunKernel(c taxonomy.Class, kernel string, n, procs int, opts ...workload.Option) (workload.Result, error) {
	k := lookupKernel(kernel)
	if k == nil || k.runnerFor(c) == nil {
		return workload.Result{}, unsupported(c, kernel)
	}
	return k.runnerFor(c)(c, procs, k.operands(n), opts)
}

// unsupportedError marks (class, kernel) combinations no runner covers, as
// opposed to run failures.
type unsupportedError struct{ msg string }

func (e *unsupportedError) Error() string { return e.msg }

// Unsupported reports whether err marks a (class, kernel) combination
// RunKernel cannot run — the signal sweeps use to skip holes in the
// kernel × class matrix rather than fail on them.
func Unsupported(err error) bool {
	var u *unsupportedError
	return errors.As(err, &u)
}

// unsupported names the kernels c's family does run.
func unsupported(c taxonomy.Class, kernel string) error {
	f, ok := familyOf(c)
	if !ok {
		return &unsupportedError{fmt.Sprintf("modelzoo: no simulator runner for class %s", c)}
	}
	var have []string
	for _, k := range kernelTable {
		if k.run[f] != nil {
			have = append(have, k.Name)
		}
	}
	return &unsupportedError{fmt.Sprintf("modelzoo: unknown kernel %q (have %s)", kernel, strings.Join(have, ", "))}
}
