package workload

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/taxonomy"
)

// tableClasses lists Table I's classes of one machine and processing type,
// in table order.
func tableClasses(m taxonomy.MachineType, proc taxonomy.ProcessingType) []taxonomy.Class {
	var cs []taxonomy.Class
	for _, c := range taxonomy.Table() {
		if c.Implementable && c.Name.Machine == m && c.Name.Proc == proc {
			cs = append(cs, c)
		}
	}
	return cs
}

func TestRefHelpers(t *testing.T) {
	c, err := RefVecAdd([]isa.Word{1, 2}, []isa.Word{10, 20})
	if err != nil || c[0] != 11 || c[1] != 22 {
		t.Errorf("RefVecAdd = (%v, %v)", c, err)
	}
	if _, err := RefVecAdd([]isa.Word{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	d, err := RefDot([]isa.Word{1, 2, 3}, []isa.Word{4, 5, 6})
	if err != nil || d != 32 {
		t.Errorf("RefDot = (%d, %v)", d, err)
	}
	if _, err := RefDot([]isa.Word{1}, nil); err == nil {
		t.Error("dot length mismatch accepted")
	}
	if RefSum([]isa.Word{5, -2, 7}) != 10 {
		t.Error("RefSum wrong")
	}
}

func TestVecAddUni(t *testing.T) {
	res, err := VecAddUni(seq(32, 0), seq(32, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 32 || res.Output[5] != 110 {
		t.Errorf("output = %v", res.Output[:8])
	}
	if res.Stats.Instructions == 0 || res.Stats.Cycles == 0 {
		t.Error("no stats recorded")
	}
}

func TestVecAddSIMD_AllSubtypes(t *testing.T) {
	for _, c := range tableClasses(taxonomy.InstructionFlow, taxonomy.ArrayProcessor) {
		res, err := VecAdd(c, 8, seq(64, 1), seq(64, 7))
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		if res.Output[63] != (1+63)+(7+63) {
			t.Errorf("%s: tail = %d, want 134", c, res.Output[63])
		}
	}
	if _, err := VecAdd(mustClass("IAP-I"), 7, seq(64, 1), seq(64, 7)); err == nil {
		t.Error("non-dividing shard accepted")
	}
	// Classes without a sharded machine are refused, not run on some
	// other simulator.
	for _, name := range []string{"IUP", "DMP-I", "USP"} {
		if _, err := VecAdd(mustClass(name), 8, seq(64, 1), seq(64, 7)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestVecAddMIMD_SubtypesAndSharing(t *testing.T) {
	// IMP-I uses private images, IMP-V shares one image.
	for _, name := range []string{"IMP-I", "IMP-V"} {
		res, err := VecAdd(mustClass(name), 4, seq(32, 1), seq(32, 2))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Output[0] != 3 {
			t.Errorf("%s: head = %d", name, res.Output[0])
		}
	}
	if _, err := VecAdd(mustClass("IMP-I"), 5, seq(32, 1), seq(32, 2)); err == nil {
		t.Error("non-dividing shard accepted")
	}
}

func TestVecAddMIMD_AllSixteenSubtypes(t *testing.T) {
	// Every IMP sub-type runs the kernel: the runner picks local or global
	// addressing and private or shared images per the class's links.
	a, b := seq(32, 1), seq(32, 9)
	want, _ := RefVecAdd(a, b)
	for _, c := range tableClasses(taxonomy.InstructionFlow, taxonomy.MultiProcessor) {
		res, err := VecAdd(c, 4, a, b)
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		if !slices.Equal(res.Output, want) {
			t.Errorf("%s produced wrong output", c)
		}
	}
}

func TestDotAcrossClasses(t *testing.T) {
	a, b := seq(64, 1), seq(64, 3)
	want, _ := RefDot(a, b)
	uni, err := DotUni(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Output[0] != want {
		t.Errorf("uni dot = %d, want %d", uni.Output[0], want)
	}
	sres, err := Dot(mustClass("IAP-II"), 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Output[0] != want {
		t.Errorf("SIMD dot = %d", sres.Output[0])
	}
	mres, err := Dot(mustClass("IMP-II"), 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Output[0] != want {
		t.Errorf("MIMD dot = %d", mres.Output[0])
	}
}

func TestDot_RequiresDPDP(t *testing.T) {
	a, b := seq(16, 1), seq(16, 1)
	if _, err := Dot(mustClass("IAP-I"), 4, a, b); err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("dot on IAP-I: %v", err)
	}
	if _, err := Dot(mustClass("IAP-III"), 4, a, b); err == nil {
		t.Error("dot on IAP-III accepted (no DP-DP switch)")
	}
}

func TestDot_RequiresPow2(t *testing.T) {
	a, b := seq(12, 1), seq(12, 1)
	if _, err := Dot(mustClass("IAP-II"), 6, a, b); err == nil {
		t.Error("butterfly on 6 lanes accepted")
	}
}

func TestVecAddDataflow_AllSubtypes(t *testing.T) {
	for _, c := range tableClasses(taxonomy.DataFlow, taxonomy.MultiProcessor) {
		res, err := VecAddDataflow(c, 4, seq(16, 5), seq(16, 9))
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		if res.Output[15] != 5+15+9+15 {
			t.Errorf("%s: tail = %d", c, res.Output[15])
		}
	}
	// A single PE makes DMP-I the data-flow uni-processor's shape.
	if _, err := VecAddDataflow(mustClass("DMP-I"), 1, seq(8, 1), seq(8, 1)); err != nil {
		t.Errorf("1-PE vecadd: %v", err)
	}
	if _, err := VecAddDataflow(mustClass("DMP-I"), 3, seq(16, 1), seq(16, 1)); err == nil {
		t.Error("non-dividing shard accepted")
	}
}

func TestVecAddFabric(t *testing.T) {
	res, err := VecAddFabric(8, seq(16, 1), seq(16, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[15] != 16+25 {
		t.Errorf("tail = %d", res.Output[15])
	}
	if _, err := VecAddFabric(4, []isa.Word{100}, []isa.Word{1}); err == nil {
		t.Error("overflowing operand accepted")
	}
}

func TestConsistencyAcrossClasses_Property(t *testing.T) {
	// The same vector add gives identical results on every machine class.
	f := func(seed uint8) bool {
		a := make([]isa.Word, 16)
		b := make([]isa.Word, 16)
		for i := range a {
			a[i] = isa.Word((int(seed) + i*7) % 100)
			b[i] = isa.Word((int(seed)*3 + i*11) % 100)
		}
		uni, err := VecAddUni(a, b)
		if err != nil {
			return false
		}
		sim, err := VecAdd(mustClass("IAP-II"), 4, a, b)
		if err != nil {
			return false
		}
		mim, err := VecAdd(mustClass("IMP-II"), 4, a, b)
		if err != nil {
			return false
		}
		df, err := VecAddDataflow(mustClass("DMP-II"), 4, a, b)
		if err != nil {
			return false
		}
		fb, err := VecAddFabric(8, a, b)
		if err != nil {
			return false
		}
		return slices.Equal(uni.Output, sim.Output) &&
			slices.Equal(uni.Output, mim.Output) &&
			slices.Equal(uni.Output, df.Output) &&
			slices.Equal(uni.Output, fb.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunProbes_AllClaimsHold(t *testing.T) {
	probes, err := RunProbes()
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 10 {
		t.Fatalf("got %d probes, want 10", len(probes))
	}
	for _, p := range probes {
		if !p.Holds {
			t.Errorf("claim failed: %s\n  %s", p.Claim, p.Detail)
		}
		if p.Detail == "" {
			t.Errorf("probe %q has no detail", p.Claim)
		}
	}
}

func TestParallelismPaysOff(t *testing.T) {
	// More lanes reduce cycle counts for the same problem: the reason the
	// flexibility to morph into an array machine matters at all.
	a, b := seq(256, 1), seq(256, 2)
	lanes2, err := VecAdd(mustClass("IAP-I"), 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	lanes16, err := VecAdd(mustClass("IAP-I"), 16, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if lanes16.Stats.Cycles >= lanes2.Stats.Cycles {
		t.Errorf("16 lanes (%d cycles) not faster than 2 lanes (%d cycles)",
			lanes16.Stats.Cycles, lanes2.Stats.Cycles)
	}
}

// TestProgramSinkSkipsReference: a program-sink run records its program
// and returns before it computes the reference output, on the
// uni-processor and on every sharded family, while a real run computes it
// once.
func TestProgramSinkSkipsReference(t *testing.T) {
	a := []isa.Word{1, 2, 3, 4}
	calls := 0
	ref := func() ([]isa.Word, error) {
		calls++
		return RefVecAdd(a, a)
	}
	prog, err := VecAddProgram(len(a))
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(opts []Option) (Result, error){
		"IUP": func(opts []Option) (Result, error) {
			return runUni("vecadd", prog, 3*len(a)+16, a, a, 2*len(a), len(a), ref, opts)
		},
	}
	for _, proc := range []taxonomy.ProcessingType{taxonomy.ArrayProcessor, taxonomy.MultiProcessor, taxonomy.SpatialProcessor} {
		c := tableClasses(taxonomy.InstructionFlow, proc)[0]
		runs[c.String()] = func(opts []Option) (Result, error) {
			return runSPMD(c, spmd{name: "vecadd", procs: 2, bankWords: 3*2 + 16,
				program: func(int) (isa.Program, error) { return VecAddProgram(2) },
				load:    chunks(2, a, a), outBase: 4, outLen: 2}, ref, opts)
		}
	}
	for name, run := range runs {
		calls = 0
		var specs []ProgramSpec
		if _, err := run([]Option{WithProgramSink(&specs)}); err != nil || len(specs) != 1 || calls != 0 {
			t.Errorf("%s: sink run recorded %d programs, computed the reference %d times, error %v; want 1, 0, nil",
				name, len(specs), calls, err)
		}
		res, err := run(nil)
		if err != nil || calls != 1 || !slices.Equal(res.Output, []isa.Word{2, 4, 6, 8}) {
			t.Errorf("%s: run output %v, computed the reference %d times, error %v; want [2 4 6 8], 1, nil",
				name, res.Output, calls, err)
		}
	}
}
