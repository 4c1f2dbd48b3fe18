package workload

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/taxonomy"
)

// VecAddUni runs c = a + b on the instruction-flow uni-processor.
func VecAddUni(a, b []isa.Word, opts ...Option) (Result, error) {
	if err := sameLength(a, b); err != nil {
		return Result{}, err
	}
	n := len(a)
	prog, err := VecAddProgram(n)
	if err != nil {
		return Result{}, err
	}
	return runUni("vecadd", prog, 3*n+16, a, b, 2*n, n, func() ([]isa.Word, error) { return RefVecAdd(a, b) }, opts)
}

// VecAdd runs c = a + b on an IAP, IMP or ISP class, splitting the
// vectors into contiguous per-processor chunks; len(a) must divide evenly.
// A DP-DM crossbar class runs the global-addressing program, every other
// class the local program the uni-processor runs too.
func VecAdd(c taxonomy.Class, procs int, a, b []isa.Word, opts ...Option) (Result, error) {
	if err := sameLength(a, b); err != nil {
		return Result{}, err
	}
	m, err := shard(len(a), procs, 2, "elements")
	if err != nil {
		return Result{}, err
	}
	return runSPMD(c, spmd{name: "vecadd", procs: procs, bankWords: 3*m + 16,
		program: func(global int) (isa.Program, error) {
			if global == 0 {
				return VecAddProgram(m)
			}
			return vecAddProgramGlobal(m, global)
		},
		load: chunks(m, a, b), outBase: 2 * m, outLen: m}, func() ([]isa.Word, error) { return RefVecAdd(a, b) }, opts)
}

// DotUni computes the dot product on the uni-processor.
func DotUni(a, b []isa.Word, opts ...Option) (Result, error) {
	if err := sameLength(a, b); err != nil {
		return Result{}, err
	}
	n := len(a)
	prog, err := dotProgram(n)
	if err != nil {
		return Result{}, err
	}
	return runUni("dot", prog, 2*n+16, a, b, 2*n, 1, refDot(a, b), opts)
}

// Dot computes the dot product on an IAP, IMP or ISP class with a
// butterfly all-reduce over the DP-DP switch and a power-of-two processor
// count. Without a DP-DP switch the run fails with the machine's no-DP-DP
// error — the probe relies on that; DotPartial is the strategy for those
// classes.
func Dot(c taxonomy.Class, procs int, a, b []isa.Word, opts ...Option) (Result, error) {
	return dot(c, procs, a, b, "dot-butterfly", gatherFirst, func(m, global int) (isa.Program, error) {
		return dotButterflyProgram(m, procs, global)
	}, opts)
}

// DotPartial computes the dot product on a class without a DP-DP switch:
// every processor reduces its own chunk to a partial in its bank and the
// host gathers — the only dot strategy those classes admit, since Dot's
// all-reduce is architecturally impossible without processor-to-processor
// exchange (Table I).
func DotPartial(c taxonomy.Class, procs int, a, b []isa.Word, opts ...Option) (Result, error) {
	return dot(c, procs, a, b, "dot-partial", gatherSum, dotPartialProgram, opts)
}

// dot runs a dot-product program that leaves each processor's word at
// address 2m of its bank.
func dot(c taxonomy.Class, procs int, a, b []isa.Word, name string, g gather,
	program func(m, global int) (isa.Program, error), opts []Option) (Result, error) {
	if err := sameLength(a, b); err != nil {
		return Result{}, err
	}
	m, err := shard(len(a), procs, 2, "elements")
	if err != nil {
		return Result{}, err
	}
	return runSPMD(c, spmd{name: name, procs: procs, bankWords: 2*m + 16,
		program: func(global int) (isa.Program, error) { return program(m, global) },
		load:    chunks(m, a, b), outBase: 2 * m, outLen: 1, gather: g}, refDot(a, b), opts)
}

// VecAddDataflow runs c = a + b as a static dataflow graph on a DMP
// class. Elements are load/add/store chains; on multi-PE machines
// each chain is kept PE-local (so even DMP-I can run it) and the banks are
// sharded like the SIMD layout.
func VecAddDataflow(c taxonomy.Class, pes int, a, b []isa.Word, opts ...Option) (Result, error) {
	if err := sameLength(a, b); err != nil {
		return Result{}, err
	}
	n := len(a)
	if pes < 1 || n%pes != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d PEs", n, pes)
	}
	ro := applyOpts(opts)
	if ro.sinkOnly() {
		return Result{}, nil // token graph, no guest ISA program to record
	}
	want, err := ro.reference(func() ([]isa.Word, error) { return RefVecAdd(a, b) })
	if err != nil {
		return Result{}, err
	}
	m := n / pes
	g := dataflow.NewGraph()
	var mapping []int
	var stores []int
	for pe := 0; pe < pes; pe++ {
		for i := 0; i < m; i++ {
			// Local addresses within the PE's bank (direct DP-DM), which
			// also work as global addresses when pe==0 under a crossbar;
			// for crossbar sub-types the bank offset is pe*bankWords.
			base := int64(0)
			bankWords := int64(3*m + 16)
			if c.Links[taxonomy.SiteDPDM].Switched() {
				base = int64(pe) * bankWords
			}
			aAddr := g.Const(base + int64(i))
			bAddr := g.Const(base + int64(m+i))
			cAddr := g.Const(base + int64(2*m+i))
			av := g.Load(aAddr)
			bv := g.Load(bAddr)
			sum := g.Binary(dataflow.OpAdd, av, bv)
			st := g.Store(cAddr, sum)
			g.MarkOutput(st)
			stores = append(stores, st)
			for k := 0; k < 7; k++ { // 7 nodes per element chain
				mapping = append(mapping, pe)
			}
		}
	}
	mach, err := dataflow.New(dataflow.Config{PEs: pes, BankWords: 3*m + 16, Class: c,
		Tracer: applyOpts(opts).tracer}, g, mapping)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for pe := 0; pe < pes; pe++ {
		chunk := concat(a[pe*m:(pe+1)*m], b[pe*m:(pe+1)*m])
		if err := mach.LoadBank(pe, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	res, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, 0, n)
	for pe := 0; pe < pes; pe++ {
		part, err := mach.ReadBank(pe, 2*m, m)
		if err != nil {
			return Result{}, err
		}
		out = append(out, part...)
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	return Result{Output: out, Stats: res.Stats}, nil
}

// VecAddFabric runs c = a + b serially through an adder overlay on the
// universal-flow fabric: the USP acting as a pure data processor.
func VecAddFabric(width int, a, b []isa.Word, opts ...Option) (Result, error) {
	if err := sameLength(a, b); err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	if ro.sinkOnly() {
		return Result{}, nil // LUT bitstream, no guest ISA program to record
	}
	want, err := ro.reference(func() ([]isa.Word, error) { return RefVecAdd(a, b) })
	if err != nil {
		return Result{}, err
	}
	f, err := fabric.New(2*width, 2*width)
	if err != nil {
		return Result{}, err
	}
	f.SetTracer(applyOpts(opts).tracer)
	ov, err := fabric.BuildAdder(f, width)
	if err != nil {
		return Result{}, err
	}
	if err := f.Configure(ov.Bitstream); err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, len(a))
	for i := range a {
		if a[i] < 0 || b[i] < 0 || a[i] >= 1<<uint(width) || b[i] >= 1<<uint(width) {
			return Result{}, fmt.Errorf("workload: operand %d/%d outside the %d-bit adder range", a[i], b[i], width)
		}
		sum, err := ov.Add(f, uint64(a[i]), uint64(b[i]))
		if err != nil {
			return Result{}, err
		}
		out[i] = isa.Word(sum)
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	stats := machineStatsForFabric(f)
	return Result{Output: out, Stats: stats}, nil
}
