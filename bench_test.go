// Package repro's root benchmark harness: one benchmark per paper artefact
// (Tables I-III, Figures 1, 2, 7, Eq 1/Eq 2) plus simulator ablations over
// the machine classes and the §III.B morph probes. Run with
//
//	go test -bench=. -benchmem
//
// The benchmarks double as the experiment index's regeneration targets:
// each validates its artefact's invariants while timing it, so a silent
// regression in the reproduction fails the bench rather than just slowing
// it down.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bibliometrics"
	"repro/internal/conformance"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/fabric"
	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// BenchmarkTableI_Generate regenerates the 47-class extended taxonomy (T1).
func BenchmarkTableI_Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		classes := taxonomy.Table()
		if len(classes) != 47 {
			b.Fatalf("Table I has %d classes", len(classes))
		}
	}
}

// BenchmarkTableII_Flexibility scores every named class (T2).
func BenchmarkTableII_Flexibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := taxonomy.FlexibilityTable()
		if len(rows) != 43 {
			b.Fatalf("Table II has %d rows", len(rows))
		}
		if rows[len(rows)-1].Score != 8 {
			b.Fatalf("USP score %d", rows[len(rows)-1].Score)
		}
	}
}

// BenchmarkTableIII_ClassifySurvey re-derives the class of all 25 surveyed
// architectures from their printed connectivity cells (T3).
func BenchmarkTableIII_ClassifySurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := registry.DeriveAll()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.NameMatches {
				b.Fatalf("%s misclassified as %s", r.Entry.Arch.Name, r.Class)
			}
		}
	}
}

// BenchmarkFig1_Trends generates the synthetic corpus and runs the
// count-by-topic-and-year query (F1).
func BenchmarkFig1_Trends(b *testing.B) {
	cfg := bibliometrics.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpus, err := bibliometrics.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		series := bibliometrics.Trends(corpus)
		if len(series) != len(cfg.Topics) {
			b.Fatalf("%d series", len(series))
		}
	}
}

// BenchmarkFig2_Hierarchy renders the naming-hierarchy tree (F2).
func BenchmarkFig2_Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := report.Fig2Tree(); len(out) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkFig7_FlexibilityChart renders the survey comparison chart (F7).
func BenchmarkFig7_FlexibilityChart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := report.Fig7Chart(48)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// BenchmarkEq1_Area evaluates the area equation across all classes (E1).
func BenchmarkEq1_Area(b *testing.B) {
	model, err := cost.NewModel(cost.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rows, err := model.SweepClasses(16)
		if err != nil {
			b.Fatal(err)
		}
		if rows[len(rows)-1].Estimate.Area <= rows[0].Estimate.Area {
			b.Fatal("USP not the largest")
		}
	}
}

// BenchmarkEq2_ConfigBits evaluates the configuration-bit equation and its
// headline ordering: USP >> everything coarse-grained (E2).
func BenchmarkEq2_ConfigBits(b *testing.B) {
	model, err := cost.NewModel(cost.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	usp, err := taxonomy.LookupString("USP")
	if err != nil {
		b.Fatal(err)
	}
	iup, err := taxonomy.LookupString("IUP")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ratio, err := model.OverheadRatio(usp, iup, 16)
		if err != nil {
			b.Fatal(err)
		}
		if ratio < 100 {
			b.Fatalf("USP/IUP overhead ratio %g", ratio)
		}
	}
}

// BenchmarkMorphProbes runs the §III.B executable flexibility claims (P1).
func BenchmarkMorphProbes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		probes, err := workload.RunProbes()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range probes {
			if !p.Holds {
				b.Fatalf("claim failed: %s", p.Claim)
			}
		}
	}
}

// benchClass looks up a Table I class by name.
func benchClass(name string) taxonomy.Class {
	c, err := taxonomy.LookupString(name)
	if err != nil {
		panic(err)
	}
	return c
}

// benchVectors builds deterministic operand vectors.
func benchVectors(n int) (a, b []isa.Word) {
	a = make([]isa.Word, n)
	b = make([]isa.Word, n)
	for i := range a {
		a[i] = isa.Word(i%97 + 1)
		b[i] = isa.Word(i%89 + 2)
	}
	return a, b
}

// BenchmarkSim_VecAdd ablates one kernel across the machine classes of
// figures 3-6: the same vector add on IUP, IAP-I/IV, IMP-I/III, DMP-II/IV
// and the USP fabric.
func BenchmarkSim_VecAdd(b *testing.B) {
	const n = 256
	a, v := benchVectors(n)
	iap1 := benchClass("IAP-I")
	iap4 := benchClass("IAP-IV")
	imp1 := benchClass("IMP-I")
	imp3 := benchClass("IMP-III")
	dmp2 := benchClass("DMP-II")
	dmp4 := benchClass("DMP-IV")
	cases := []struct {
		name string
		run  func() (workload.Result, error)
	}{
		{"IUP", func() (workload.Result, error) { return workload.VecAddUni(a, v) }},
		{"IAP-I/8", func() (workload.Result, error) { return workload.VecAdd(iap1, 8, a, v) }},
		{"IAP-IV/8", func() (workload.Result, error) { return workload.VecAdd(iap4, 8, a, v) }},
		{"IMP-I/8", func() (workload.Result, error) { return workload.VecAdd(imp1, 8, a, v) }},
		{"IMP-III/8", func() (workload.Result, error) { return workload.VecAdd(imp3, 8, a, v) }},
		{"DMP-II/8", func() (workload.Result, error) { return workload.VecAddDataflow(dmp2, 8, a, v) }},
		{"DMP-IV/8", func() (workload.Result, error) { return workload.VecAddDataflow(dmp4, 8, a, v) }},
		{"USP", func() (workload.Result, error) { return workload.VecAddFabric(16, a, v) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}

// BenchmarkSim_Dot ablates the communication-heavy kernel across the
// classes that have a DP-DP switch.
func BenchmarkSim_Dot(b *testing.B) {
	const n = 256
	a, v := benchVectors(n)
	iap2 := benchClass("IAP-II")
	imp2 := benchClass("IMP-II")
	imp4 := benchClass("IMP-IV")
	cases := []struct {
		name string
		run  func() (workload.Result, error)
	}{
		{"IUP", func() (workload.Result, error) { return workload.DotUni(a, v) }},
		{"IAP-II/8", func() (workload.Result, error) { return workload.Dot(iap2, 8, a, v) }},
		{"IMP-II/8", func() (workload.Result, error) { return workload.Dot(imp2, 8, a, v) }},
		{"IMP-IV/8", func() (workload.Result, error) { return workload.Dot(imp4, 8, a, v) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}

// BenchmarkSim_Stencil runs the halo-exchange stencil on the two classes
// that can express it: lockstep IAP-II and SPMD IMP-II.
func BenchmarkSim_Stencil(b *testing.B) {
	a, _ := benchVectors(256)
	iap2 := benchClass("IAP-II")
	imp2 := benchClass("IMP-II")
	cases := []struct {
		name string
		run  func() (workload.Result, error)
	}{
		{"IAP-II/8", func() (workload.Result, error) { return workload.Stencil3(iap2, 8, a) }},
		{"IMP-II/8", func() (workload.Result, error) { return workload.Stencil3(imp2, 8, a) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}

// BenchmarkSim_Scan runs the coordinator/worker prefix sum — the kernel
// only per-processor control flow can express (no IAP entry by design).
func BenchmarkSim_Scan(b *testing.B) {
	a, _ := benchVectors(256)
	imp2 := benchClass("IMP-II")
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := workload.Scan(imp2, 8, a)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles), "guest-cycles")
}

// BenchmarkSim_MatMul ablates the two matmul organisations: replicated B
// (IMP-I, duplicated storage, zero conflicts) vs shared B through the
// memory crossbar (IMP-III, contention). The traced case runs IMP-I with an
// obs.Tally attached, so every op steps in slot order where the untraced
// run's cores run ahead through fused blocks: the two sides of that split.
func BenchmarkSim_MatMul(b *testing.B) {
	const rows, k, n = 16, 12, 10
	a, v := benchVectors(rows * k)
	_ = v
	bm := make([]isa.Word, k*n)
	for i := range bm {
		bm[i] = isa.Word(i%7 + 1)
	}
	imp1 := benchClass("IMP-I")
	imp3 := benchClass("IMP-III")
	cases := []struct {
		name string
		run  func() (workload.Result, error)
	}{
		{"replicated-B/IMP-I", func() (workload.Result, error) {
			return workload.MatMul(imp1, 4, a, bm, rows, k, n)
		}},
		{"shared-B/IMP-III", func() (workload.Result, error) {
			return workload.MatMul(imp3, 4, a, bm, rows, k, n)
		}},
		{"replicated-B/IMP-I/traced", func() (workload.Result, error) {
			var tally obs.Tally
			return workload.MatMul(imp1, 4, a, bm, rows, k, n, workload.WithTracer(&tally))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var cycles, conflicts int64
			for i := 0; i < b.N; i++ {
				res, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
				conflicts = res.Stats.NetConflictCycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
			b.ReportMetric(float64(conflicts), "conflict-cycles")
		})
	}
}

// BenchmarkSim_LaneScaling sweeps lane counts on IAP-I: the speedup curve
// behind the flexibility argument (more DPs are what an IUP cannot morph
// into).
func BenchmarkSim_LaneScaling(b *testing.B) {
	const n = 512
	a, v := benchVectors(n)
	iap1 := benchClass("IAP-I")
	for _, lanes := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := workload.VecAdd(iap1, lanes, a, v)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}

// BenchmarkSurveyZoo runs the canonical kernel on every Table III machine:
// the executable form of the whole survey.
func BenchmarkSurveyZoo(b *testing.B) {
	entries := registry.Survey().Architectures
	for i := 0; i < b.N; i++ {
		results, err := modelzoo.RunSurvey(entries, 128)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 25 {
			b.Fatalf("%d results", len(results))
		}
	}
}

// BenchmarkNet_CrossbarVsOmega ablates the switch implementations under
// random permutation traffic: the crossbar never blocks internally, the
// omega network pays conflict cycles for its O(N log N) cost.
func BenchmarkNet_CrossbarVsOmega(b *testing.B) {
	const ports = 64
	const rounds = 32
	run := func(b *testing.B, net interconnect.Network) {
		var conflicts int64
		for i := 0; i < b.N; i++ {
			net.Reset()
			now := int64(0)
			for r := 0; r < rounds; r++ {
				for p := 0; p < ports; p++ {
					// Bit-reversal permutation: conflict-free on a true
					// crossbar, heavily blocking on an omega network.
					dst := 0
					for bit := 0; bit < 6; bit++ { // 64 ports = 6 bits
						dst |= (p >> uint(bit) & 1) << uint(5-bit)
					}
					if _, err := net.Transfer(now, p, dst); err != nil {
						b.Fatal(err)
					}
				}
				now += 2
			}
			conflicts = net.Stats().ConflictCycles
		}
		b.ReportMetric(float64(conflicts), "conflict-cycles")
	}
	b.Run("crossbar", func(b *testing.B) {
		net, err := interconnect.NewCrossbar(ports)
		if err != nil {
			b.Fatal(err)
		}
		run(b, net)
	})
	b.Run("omega", func(b *testing.B) {
		net, err := interconnect.NewOmega(ports)
		if err != nil {
			b.Fatal(err)
		}
		run(b, net)
	})
	b.Run("bus", func(b *testing.B) {
		net, err := interconnect.NewBus(ports)
		if err != nil {
			b.Fatal(err)
		}
		run(b, net)
	})
}

// BenchmarkDataflow_Mapping ablates node placement: greedy locality vs
// round-robin on a chain-structured graph (the design choice REDEFINE's
// HyperOp former makes).
func BenchmarkDataflow_Mapping(b *testing.B) {
	build := func() *dataflow.Graph {
		g := dataflow.NewGraph()
		for c := 0; c < 8; c++ {
			cur := g.Const(int64(c))
			inc := g.Const(1)
			for d := 0; d < 32; d++ {
				cur = g.Binary(dataflow.OpAdd, cur, inc)
			}
			g.MarkOutput(cur)
		}
		return g
	}
	cfg := dataflow.Config{PEs: 8, BankWords: 64, Class: benchClass("DMP-II")}
	cases := []struct {
		name    string
		mapping func(g *dataflow.Graph) ([]int, error)
	}{
		{"roundrobin", func(g *dataflow.Graph) ([]int, error) {
			return dataflow.RoundRobinMapping(g.Nodes(), 8), nil
		}},
		{"greedy", func(g *dataflow.Graph) ([]int, error) {
			return dataflow.GreedyLocalityMapping(g, 8)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				g := build()
				mapping, err := tc.mapping(g)
				if err != nil {
					b.Fatal(err)
				}
				m, err := dataflow.New(cfg, g, mapping)
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}

// BenchmarkFabric_MicroMachine clocks the stored-program machine overlay:
// the USP in its instruction-flow role.
func BenchmarkFabric_MicroMachine(b *testing.B) {
	program := [fabric.MicroProgramLen]fabric.MicroInstr{
		{Op: fabric.MicroLdi, Imm: 1},
		{Op: fabric.MicroAdd, Imm: 2},
		{Op: fabric.MicroXor, Imm: 7},
		{Op: fabric.MicroAdd, Imm: 3},
		{Op: fabric.MicroNop}, {Op: fabric.MicroNop}, {Op: fabric.MicroNop}, {Op: fabric.MicroNop},
	}
	f, err := fabric.New(fabric.MicroMachineCells, 0)
	if err != nil {
		b.Fatal(err)
	}
	mm, err := fabric.BuildMicroMachine(f, program)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Configure(mm.Bitstream); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq2_ReconfigBreakEven evaluates the reconfiguration-time
// extension: how many kernel runs amortize a USP bitstream to 1%.
func BenchmarkEq2_ReconfigBreakEven(b *testing.B) {
	model, err := cost.NewModel(cost.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	usp, err := taxonomy.LookupString("USP")
	if err != nil {
		b.Fatal(err)
	}
	est, err := model.ForClass(usp, 16)
	if err != nil {
		b.Fatal(err)
	}
	var runs int64
	for i := 0; i < b.N; i++ {
		rc, err := cost.ReconfigCycles(est.ConfigBits, 32)
		if err != nil {
			b.Fatal(err)
		}
		runs, err = cost.BreakEvenRuns(rc, 1000, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs), "break-even-runs")
}

// BenchmarkStep_RawVsCompiled is the backend ablation: the same guest loop
// executed instruction by instruction through the raw Step interpreter
// (re-decoding operands every cycle), and through machine.Compile's
// threaded-closure chain over the program lowered once by isa.Predecode,
// with basic-block fusion and batched cycle accounting. The delta is what
// pre-decode, dispatch elimination and superinstruction fusion save per
// retired instruction.
func BenchmarkStep_RawVsCompiled(b *testing.B) {
	prog, err := isa.Assemble(`
        ldi  r1, 0
        ldi  r2, 64
loop:   beq  r1, r2, done
        ld   r3, [r1+0]
        addi r3, r3, 5
        st   r3, [r1+0]
        addi r1, r1, 1
        jmp  loop
done:   halt
`)
	if err != nil {
		b.Fatal(err)
	}
	dec := isa.Predecode(prog)
	mem := make(machine.Memory, 128)
	env := machine.Env{Load: mem.Load, Store: mem.Store}
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var regs machine.Regs
			pc := 0
			for pc < len(prog) {
				out, err := machine.Step(&regs, pc, prog[pc], env)
				if err != nil {
					b.Fatal(err)
				}
				if out.Halted {
					break
				}
				pc = out.NextPC
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		comp := machine.Compile(dec, machine.CompileOptions{})
		for i := 0; i < b.N; i++ {
			cpu := machine.CPU{Mem: mem}
			if _, err := comp.Run(&cpu, machine.DefaultMaxCycles); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConformance_Matrix is the serial-vs-parallel ablation on the
// real batch workload: the full 112-cell kernel x class matrix through the
// internal/exec worker pool at increasing worker counts. workers=1 is the
// serial baseline (the engine runs the jobs inline); the speedup at higher
// counts is bounded by GOMAXPROCS on the host.
func BenchmarkConformance_Matrix(b *testing.B) {
	p := conformance.Params{N: 16, Procs: 4}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, allPass := conformance.RunMatrixParallel(ctx, p, workers)
				if !allPass {
					b.Fatalf("matrix failed: %+v", results)
				}
			}
		})
	}
}

// BenchmarkConformance_Lockstep is the same ablation on the randomized
// lockstep differ: each seed assembles a random program and runs it on
// three machine organisations, so the per-job grain is coarser than a
// matrix cell.
func BenchmarkConformance_Lockstep(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, pass := conformance.LockstepSweepParallel(ctx, 1, 8, workers)
				if !pass {
					b.Fatalf("sweep failed: %+v", results)
				}
			}
		})
	}
}

// BenchmarkSurveyZoo_Parallel fans the 25 Table III machines across the
// worker pool — the model zoo as a batch job.
func BenchmarkSurveyZoo_Parallel(b *testing.B) {
	entries := registry.Survey().Architectures
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := modelzoo.RunSurveyParallel(ctx, entries, 128, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 25 {
					b.Fatalf("%d results", len(results))
				}
			}
		})
	}
}

// BenchmarkEq1_ScalingInN sweeps the instantiation size for one class: the
// cost model's n-scaling, the ablation DESIGN.md calls out for Eq 1.
func BenchmarkEq1_ScalingInN(b *testing.B) {
	model, err := cost.NewModel(cost.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	impXVI, err := taxonomy.LookupString("IMP-XVI")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var area float64
			for i := 0; i < b.N; i++ {
				est, err := model.ForClass(impXVI, n)
				if err != nil {
					b.Fatal(err)
				}
				area = est.Area
			}
			b.ReportMetric(area, "GE")
		})
	}
}
