package workload

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/simd"
	"repro/internal/spatial"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/uniproc"
)

// machineStatsForFabric summarises a fabric run in machine.Stats terms.
func machineStatsForFabric(f *fabric.Fabric) machine.Stats {
	return machine.Stats{Cycles: f.Steps(), Instructions: f.Steps()}
}

// Probe is the executable form of one §III.B flexibility claim.
type Probe struct {
	// Claim restates the paper's argument.
	Claim string
	// Holds reports whether the executable check confirmed it.
	Holds bool
	// Detail explains what ran and what was observed.
	Detail string
}

// RunProbes executes every morph probe and returns the reports. An error
// means a probe could not run at all (an infrastructure failure, not a
// claim failure).
func RunProbes(opts ...Option) ([]Probe, error) {
	var probes []Probe
	for _, fn := range []func(...Option) (Probe, error){
		probeIMPActsAsIAP,
		probeIAPCannotActAsIMP,
		probeIAPActsAsIUP,
		probeIUPCannotActAsIAP,
		probeIAP1CannotExchange,
		probeUSPImplementsBothParadigms,
		probeUSPPaysConfigOverhead,
		probeUSPExecutesStoredPrograms,
		probeISPMorphsBetweenIMPAndIAP,
		probeUSPImplementsDataflow,
	} {
		p, err := fn(opts...)
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
	}
	return probes, nil
}

// probeIMPActsAsIAP: "IMP-I can act as an array processor if all the
// processors are executing the same program."
func probeIMPActsAsIAP(opts ...Option) (Probe, error) {
	a := seq(64, 1)
	b := seq(64, 3)
	simdRes, err := VecAdd(mustClass("IAP-I"), 8, a, b, opts...)
	if err != nil {
		return Probe{}, fmt.Errorf("workload: IAP-I reference run failed: %v", err)
	}
	mimdRes, err := VecAdd(mustClass("IMP-I"), 8, a, b, opts...)
	claim := Probe{Claim: "IMP-I can act as an array processor by running the same program on every core (§III.B)"}
	if err != nil {
		claim.Detail = fmt.Sprintf("SPMD vector add failed on IMP-I: %v", err)
		return claim, nil
	}
	claim.Holds = slices.Equal(simdRes.Output, mimdRes.Output)
	claim.Detail = fmt.Sprintf("vector add over 64 elements: IAP-I produced %d outputs, IMP-I (same program on 8 cores) matched = %v",
		len(simdRes.Output), claim.Holds)
	return claim, nil
}

// probeIAPCannotActAsIMP: "IAP-I cannot execute n different programs at the
// same time" — per-processor control flow diverges and the lockstep machine
// follows the control lane.
func probeIAPCannotActAsIMP(opts ...Option) (Probe, error) {
	const procs = 4
	claim := Probe{Claim: "IAP cannot act as a multi-processor: one instruction stream cannot follow n divergent control flows (§III.B)"}

	// On the IMP, every core loops its own number of times.
	ro := applyOpts(opts)
	images := make([]isa.Program, procs)
	for i := range images {
		images[i] = divergentProgram()
	}
	mm, err := mimd.New(mimd.Config{Cores: procs, BankWords: 16, Class: mustClass("IMP-I"),
		Tracer: ro.tracer, Interp: ro.interp}, images)
	if err != nil {
		return Probe{}, err
	}
	defer mm.Release()
	if _, err := mm.Run(); err != nil {
		return Probe{}, fmt.Errorf("workload: divergent kernel failed on IMP: %v", err)
	}
	mimdOK := true
	for core := 0; core < procs; core++ {
		out, err := mm.ReadBank(core, 0, 1)
		if err != nil {
			return Probe{}, err
		}
		if out[0] != isa.Word(core+1) {
			mimdOK = false
		}
	}

	// On the IAP, the lockstep stream follows lane 0's bound: every lane
	// reports 1 and lanes 1..n-1 are wrong.
	sm, err := simd.New(simd.Config{Lanes: procs, BankWords: 16, Class: mustClass("IAP-I"),
		Tracer: ro.tracer, Interp: ro.interp}, divergentProgram())
	if err != nil {
		return Probe{}, err
	}
	defer sm.Release()
	if _, err := sm.Run(); err != nil {
		return Probe{}, fmt.Errorf("workload: divergent kernel failed to run on IAP: %v", err)
	}
	simdWrong := false
	for lane := 1; lane < procs; lane++ {
		out, err := sm.ReadBank(lane, 0, 1)
		if err != nil {
			return Probe{}, err
		}
		if out[0] != isa.Word(lane+1) {
			simdWrong = true
		}
	}

	claim.Holds = mimdOK && simdWrong
	claim.Detail = fmt.Sprintf("divergent loop kernel: IMP cores each produced their own count (correct = %v); IAP lanes followed the control lane's bound (diverged lanes wrong = %v)",
		mimdOK, simdWrong)
	return claim, nil
}

// probeIAPActsAsIUP: "IAP-I can act as a uni-processor by turning off its
// extra DPs."
func probeIAPActsAsIUP(opts ...Option) (Probe, error) {
	a := seq(16, 2)
	b := seq(16, 5)
	uniRes, err := VecAddUni(a, b, opts...)
	if err != nil {
		return Probe{}, err
	}
	// Run the whole problem on lane 0 of an IAP; other lanes execute the
	// same stream on zeroed banks (their results are ignored: turned off).
	n := len(a)
	prog, err := VecAddProgram(n)
	if err != nil {
		return Probe{}, err
	}
	ro := applyOpts(opts)
	sm, err := simd.New(simd.Config{Lanes: 4, BankWords: 3*n + 16, Class: mustClass("IAP-I"),
		Tracer: ro.tracer, Interp: ro.interp}, prog)
	if err != nil {
		return Probe{}, err
	}
	defer sm.Release()
	input := concat(a, b)
	if err := sm.LoadBank(0, 0, input); err != nil {
		return Probe{}, err
	}
	if _, err := sm.Run(); err != nil {
		return Probe{}, fmt.Errorf("workload: IAP-as-IUP run failed: %v", err)
	}
	out, err := sm.ReadBank(0, 2*n, n)
	if err != nil {
		return Probe{}, err
	}
	holds := slices.Equal(out, uniRes.Output)
	return Probe{
		Claim:  "IAP-I can act as a uni-processor by turning off its extra DPs (§III.B)",
		Holds:  holds,
		Detail: fmt.Sprintf("full vector add on lane 0 only, lanes 1-3 idle: matches the IUP result = %v", holds),
	}, nil
}

// probeIUPCannotActAsIAP: "IUP cannot act as an IAP-I simply because it
// doesn't have enough DPs" — operationally, the IUP has no lane network and
// no lanes, so the lane-parallel program is meaningless; the measurable
// form is that the IUP takes ~n times the cycles of the n-lane IAP.
func probeIUPCannotActAsIAP(opts ...Option) (Probe, error) {
	a := seq(128, 1)
	b := seq(128, 2)
	uniRes, err := VecAddUni(a, b, opts...)
	if err != nil {
		return Probe{}, err
	}
	simdRes, err := VecAdd(mustClass("IAP-I"), 8, a, b, opts...)
	if err != nil {
		return Probe{}, err
	}
	speedup := float64(uniRes.Stats.Cycles) / float64(simdRes.Stats.Cycles)
	holds := speedup > 4 // 8 lanes must deliver well over half their ideal speedup here
	return Probe{
		Claim:  "IUP cannot substitute an IAP: it lacks the n data processors (§III.B)",
		Holds:  holds,
		Detail: fmt.Sprintf("vector add over 128 elements: IUP %d cycles vs 8-lane IAP-I %d cycles (speedup %.1fx); the IUP has no way to close that gap", uniRes.Stats.Cycles, simdRes.Stats.Cycles, speedup),
	}, nil
}

// probeIAP1CannotExchange: sub-type I has no DP-DP switch, so the dot
// product's butterfly all-reduce is impossible on IAP-I but runs on IAP-II.
func probeIAP1CannotExchange(opts ...Option) (Probe, error) {
	a := seq(64, 1)
	b := seq(64, 1)
	if _, err := Dot(mustClass("IAP-II"), 8, a, b, opts...); err != nil {
		return Probe{}, fmt.Errorf("workload: dot on IAP-II failed: %v", err)
	}
	_, err := Dot(mustClass("IAP-I"), 8, a, b, opts...)
	holds := err != nil && strings.Contains(err.Error(), "DP-DP")
	detail := "dot-product all-reduce ran on IAP-II (DP-DP crossbar)"
	if err != nil {
		detail += fmt.Sprintf("; on IAP-I it failed with: %v", err)
	} else {
		detail += "; unexpectedly it also ran on IAP-I"
	}
	return Probe{
		Claim:  "sub-type I has no DP-DP switch: cross-lane reduction is impossible on IAP-I, possible on IAP-II (Table I)",
		Holds:  holds,
		Detail: detail,
	}, nil
}

// probeUSPImplementsBothParadigms: the universal-flow fabric morphs into a
// data processor, a state element and an instruction processor by
// reconfiguration alone (§II.C, Fig 6).
func probeUSPImplementsBothParadigms(opts ...Option) (Probe, error) {
	f, err := fabric.New(32, 16)
	if err != nil {
		return Probe{}, err
	}
	f.SetTracer(applyOpts(opts).tracer)
	adder, err := fabric.BuildAdder(f, 8)
	if err != nil {
		return Probe{}, err
	}
	if err := f.Configure(adder.Bitstream); err != nil {
		return Probe{}, err
	}
	sum, err := adder.Add(f, 99, 28)
	if err != nil {
		return Probe{}, err
	}
	seqOv, err := fabric.BuildSequencer(f, 4)
	if err != nil {
		return Probe{}, err
	}
	if err := f.Configure(seqOv.Bitstream); err != nil {
		return Probe{}, err
	}
	phases := []int{}
	for i := 0; i < 6; i++ {
		if err := f.Step(make([]bool, 16)); err != nil {
			return Probe{}, err
		}
		p, err := seqOv.Phase(f)
		if err != nil {
			return Probe{}, err
		}
		phases = append(phases, p)
	}
	// Visible phases lag the clock edge by one step: after step i (1-based)
	// the phase is (i-2) mod 4 for i >= 2.
	holds := sum == 127 && phases[1] == 0 && phases[2] == 1 && phases[3] == 2 && phases[4] == 3 && phases[5] == 0
	return Probe{
		Claim:  "a universal-flow fabric assumes the role of a DP or an IP upon reconfiguration (§II.C)",
		Holds:  holds,
		Detail: fmt.Sprintf("same 32-cell fabric: as DP computed 99+28=%d; reconfigured as one-hot sequencer emitted phases %v", sum, phases),
	}, nil
}

// probeUSPPaysConfigOverhead: "this flexibility comes at the cost of
// reconfiguration overhead in terms of configuration bits".
func probeUSPPaysConfigOverhead(opts ...Option) (Probe, error) {
	// Configuration cost of implementing an 8-bit add: on the fabric it is
	// the full bitstream (a real FPGA always loads configuration for every
	// cell, used or not); on the IUP it is the program's instruction bits.
	// The fabric is sized like a small real device, far larger than the 16
	// cells the adder occupies.
	f, err := fabric.New(256, 16)
	if err != nil {
		return Probe{}, err
	}
	f.SetTracer(applyOpts(opts).tracer)
	ov, err := fabric.BuildAdder(f, 8)
	if err != nil {
		return Probe{}, err
	}
	if err := f.Configure(ov.Bitstream); err != nil {
		return Probe{}, err
	}
	fabricBits := f.ConfigBits()

	prog := isa.MustAssemble(`
        ld  r1, [r0+0]
        ld  r2, [r0+1]
        add r3, r1, r2
        st  r3, [r0+2]
        halt
`)
	um, err := uniproc.New(uniproc.Config{MemWords: 8}, prog)
	if err != nil {
		return Probe{}, err
	}
	um.Release()
	progBits := len(prog) * 64 // one 64-bit instruction word each

	holds := fabricBits > 4*progBits
	return Probe{
		Claim:  "universal-flow flexibility costs enormous configuration overhead (§III.B)",
		Holds:  holds,
		Detail: fmt.Sprintf("8-bit add: USP bitstream %d bits vs IUP program %d bits (%.1fx)", fabricBits, progBits, float64(fabricBits)/float64(progBits)),
	}, nil
}

// probeUSPExecutesStoredPrograms is the strongest universal-flow check: a
// complete stored-program machine (instruction ROM + program counter +
// accumulator datapath) synthesised onto the LUT fabric executes a program
// with the same semantics as its pure-software reference — the fabric
// literally *becomes* an instruction-flow machine.
func probeUSPExecutesStoredPrograms(opts ...Option) (Probe, error) {
	f, err := fabric.New(fabric.MicroMachineCells, 0)
	if err != nil {
		return Probe{}, err
	}
	f.SetTracer(applyOpts(opts).tracer)
	program := [fabric.MicroProgramLen]fabric.MicroInstr{
		{Op: fabric.MicroLdi, Imm: 9},
		{Op: fabric.MicroAdd, Imm: 8}, // 17 mod 16 = 1
		{Op: fabric.MicroXor, Imm: 5}, // 4
		{Op: fabric.MicroAdd, Imm: 6}, // 10
		{Op: fabric.MicroNop}, {Op: fabric.MicroNop}, {Op: fabric.MicroNop}, {Op: fabric.MicroNop},
	}
	mm, err := fabric.BuildMicroMachine(f, program)
	if err != nil {
		return Probe{}, err
	}
	if err := f.Configure(mm.Bitstream); err != nil {
		return Probe{}, err
	}
	const steps = 4
	for i := 0; i < steps+1; i++ { // visible state lags the clock by one
		if err := f.Step(nil); err != nil {
			return Probe{}, err
		}
	}
	got, err := mm.Acc(f)
	if err != nil {
		return Probe{}, err
	}
	want := fabric.SimulateMicroProgram(program, steps)
	return Probe{
		Claim: "a fine-grained fabric can implement a complete instruction-flow machine (§II.C: blocks assume the role of IP, DP or memory)",
		Holds: got == want && want == 10,
		Detail: fmt.Sprintf("stored-program micro-machine on %d LUT cells executed ldi/add/xor/add: acc = %d, reference = %d",
			fabric.MicroMachineCells, got, want),
	}, nil
}

// probeISPMorphsBetweenIMPAndIAP: the spatial classes' defining ability
// (§II.C, Fig 5) — the same ISP hardware re-partitions between one composed
// instruction processor spanning all cells (the IAP morph, program stored
// once) and singleton groups (the IMP morph, programs replicated), with
// identical results and the storage/control-traffic trade measurable.
func probeISPMorphsBetweenIMPAndIAP(opts ...Option) (Probe, error) {
	const cells = 4
	prog := isa.MustAssemble(`
        lane r1
        muli r2, r1, 5
        addi r2, r2, 1
        st   r2, [r0+0]
        halt
`)
	build := func() (*spatial.Machine, error) {
		return spatial.New(spatial.Config{Cores: cells, BankWords: 16, Class: mustClass("ISP-II"), Tracer: applyOpts(opts).tracer})
	}

	composed, err := build()
	if err != nil {
		return Probe{}, err
	}
	defer composed.Release()
	if err := composed.Compose(0, []int{1, 2, 3}, prog); err != nil {
		return Probe{}, err
	}
	composedStats, err := composed.Run()
	if err != nil {
		return Probe{}, err
	}

	split, err := build()
	if err != nil {
		return Probe{}, err
	}
	defer split.Release()
	for c := 0; c < cells; c++ {
		if err := split.Compose(c, nil, prog); err != nil {
			return Probe{}, err
		}
	}
	splitStats, err := split.Run()
	if err != nil {
		return Probe{}, err
	}

	same := true
	for c := 0; c < cells; c++ {
		a, err := composed.ReadBank(c, 0, 1)
		if err != nil {
			return Probe{}, err
		}
		b, err := split.ReadBank(c, 0, 1)
		if err != nil {
			return Probe{}, err
		}
		if a[0] != b[0] || a[0] != isa.Word(c*5+1) {
			same = false
		}
	}
	storageRatio := split.InstructionWords() / composed.InstructionWords()
	holds := same && storageRatio == cells &&
		composedStats.Messages > 0 && splitStats.Messages == 0
	return Probe{
		Claim: "an ISP re-partitions between a composed array processor and independent cores (§II.C spatial computing)",
		Holds: holds,
		Detail: fmt.Sprintf(
			"same fabric, same program: composed IP stores the program once (%dx less storage) and streams %d control words; singleton groups stream none; results identical = %v",
			storageRatio, composedStats.Messages, same),
	}, nil
}

// probeUSPImplementsDataflow closes the §II.C loop in the data-flow
// direction: the same dataflow graph runs as a token program on the DMP
// engine and as synthesized spatial logic on the LUT fabric, with
// identical results — so the fabric implements data-flow machines as
// literally as the micro-machine showed it implements instruction flow.
func probeUSPImplementsDataflow(opts ...Option) (Probe, error) {
	g := dataflow.NewGraph()
	a := g.Const(123)
	b := g.Const(77)
	c := g.Const(19)
	sum := g.Binary(dataflow.OpAdd, a, b)
	diff := g.Binary(dataflow.OpSub, sum, c)
	x := g.Binary(dataflow.OpXor, diff, a)
	g.MarkOutput(x)

	dm, err := dataflow.New(dataflow.Config{PEs: 1, BankWords: 16, Class: mustClass("DMP-I"),
		Tracer: applyOpts(opts).tracer}, g, dataflow.SinglePEMapping(g.Nodes()))
	if err != nil {
		return Probe{}, err
	}
	defer dm.Release()
	dres, err := dm.Run()
	if err != nil {
		return Probe{}, err
	}

	need, err := synth.CellsFor(g, 16)
	if err != nil {
		return Probe{}, err
	}
	f, err := fabric.New(need, 0)
	if err != nil {
		return Probe{}, err
	}
	f.SetTracer(applyOpts(opts).tracer)
	sres, err := synth.Synthesize(f, g, 16)
	if err != nil {
		return Probe{}, err
	}
	outs, err := sres.Run(f)
	if err != nil {
		return Probe{}, err
	}

	want := (int64(123) + 77 - 19) ^ 123
	holds := dres.Outputs[0] == want && outs[0] == want
	return Probe{
		Claim: "a universal-flow fabric implements data-flow machines: the same graph runs as tokens on a DMP and as synthesized LUT logic (§II.C)",
		Holds: holds,
		Detail: fmt.Sprintf("(123+77-19) xor 123: DMP token engine = %d, %d-cell synthesized netlist = %d, reference = %d",
			dres.Outputs[0], sres.CellsUsed, outs[0], want),
	}, nil
}

// mustClass looks up a Table I class the probes name.
func mustClass(name string) taxonomy.Class {
	c, err := taxonomy.LookupString(name)
	if err != nil {
		panic(err)
	}
	return c
}

// seq builds the vector v[i] = start + i.
func seq(n int, start isa.Word) []isa.Word {
	v := make([]isa.Word, n)
	for i := range v {
		v[i] = start + isa.Word(i)
	}
	return v
}
