package workload

import (
	"testing"

	"repro/internal/isa"
)

func TestProgramGenerators_RejectBadShapes(t *testing.T) {
	if _, err := VecAddProgram(0); err == nil {
		t.Error("VecAddProgram(0) accepted")
	}
	if _, err := vecAddProgramGlobal(0, 64); err == nil {
		t.Error("vecAddProgramGlobal(0) accepted")
	}
	if _, err := vecAddProgramGlobal(8, 10); err == nil {
		t.Error("undersized bank accepted")
	}
	if _, err := dotProgram(0); err == nil {
		t.Error("dotProgram(0) accepted")
	}
	if _, err := dotButterflyProgram(0, 4, 0); err == nil {
		t.Error("dotButterflyProgram(0,4) accepted")
	}
	if _, err := dotButterflyProgram(4, 3, 0); err == nil {
		t.Error("non-pow2 butterfly accepted")
	}
	if _, err := dotButterflyProgram(0, 4, 64); err == nil {
		t.Error("global dotButterflyProgram(0) accepted")
	}
	if _, err := dotButterflyProgram(4, 3, 64); err == nil {
		t.Error("global non-pow2 butterfly accepted")
	}
	if _, err := dotButterflyProgram(8, 4, 10); err == nil {
		t.Error("global butterfly undersized bank accepted")
	}
	if _, err := stencilProgram(1, 4); err == nil {
		t.Error("1-element stencil chunk accepted")
	}
	if _, err := stencilProgram(4, 2); err == nil {
		t.Error("2-processor stencil accepted")
	}
	if _, err := scanProgram(0, 4); err == nil {
		t.Error("scanProgram(0) accepted")
	}
	if _, err := scanProgram(4, 1); err == nil {
		t.Error("1-processor scan accepted")
	}
	if _, err := matmulProgram(0, 2, 2); err == nil {
		t.Error("0-row matmul accepted")
	}
	if _, err := matmulSharedProgram(0, 2, 2, 64, 0); err == nil {
		t.Error("0-row shared matmul accepted")
	}
	if _, err := matmulSharedProgram(4, 4, 4, 10, 0); err == nil {
		t.Error("undersized shared matmul bank accepted")
	}
	if _, err := firProgram(0, 3); err == nil {
		t.Error("0-element FIR accepted")
	}
	if _, err := firProgram(8, 0); err == nil {
		t.Error("0-tap FIR accepted")
	}
}

func TestDot_GlobalAddressingSubtypes(t *testing.T) {
	// IAP-IV and IMP-IV exercise the global-addressing butterfly program.
	a, b := seq(64, 2), seq(64, 5)
	want, _ := RefDot(a, b)
	sres, err := Dot(mustClass("IAP-IV"), 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Output[0] != want {
		t.Errorf("IAP-IV dot = %d, want %d", sres.Output[0], want)
	}
	mres, err := Dot(mustClass("IMP-IV"), 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Output[0] != want {
		t.Errorf("IMP-IV dot = %d, want %d", mres.Output[0], want)
	}
	// IMP-VIII: all three data-side crossbars.
	m8, err := Dot(mustClass("IMP-VIII"), 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m8.Output[0] != want {
		t.Errorf("IMP-VIII dot = %d, want %d", m8.Output[0], want)
	}
}

func TestDivergentProgram_ReferenceShape(t *testing.T) {
	p := divergentProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Must contain a lane read and a store, the ingredients of divergence.
	hasLane, hasStore := false, false
	for _, ins := range p {
		if ins.Op == isa.OpLane {
			hasLane = true
		}
		if ins.Op == isa.OpSt {
			hasStore = true
		}
	}
	if !hasLane || !hasStore {
		t.Error("divergent program missing lane/store")
	}
}
