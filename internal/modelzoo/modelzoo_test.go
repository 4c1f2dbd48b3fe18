package modelzoo

import (
	"testing"

	"repro/internal/registry"
	"repro/internal/spec"
)

func TestRunVecAdd_WholeSurvey(t *testing.T) {
	// Every one of the 25 surveyed architectures instantiates and runs the
	// canonical kernel: the survey is executable, not just a table.
	for _, e := range registry.All() {
		res, err := RunVecAdd(e.Arch, 256)
		if err != nil {
			t.Errorf("%s: %v", e.Arch.Name, err)
			continue
		}
		if res.Instance.Class.String() != e.PrintedName {
			t.Errorf("%s instantiated as %s, survey prints %s",
				e.Arch.Name, res.Instance.Class, e.PrintedName)
		}
		if res.Stats.Cycles <= 0 {
			t.Errorf("%s: no cycles simulated", e.Arch.Name)
		}
	}
}

func TestRunVecAdd_ConcreteWidths(t *testing.T) {
	cases := map[string]int{
		"MorphoSys":             64, // printed 64 DPs
		"IMAGINE":               6,
		"Montium":               5,
		"ELM processor":         2,
		"Cortex-A9 (Quad core)": 4,
		"PADDI-2":               48,
		"Colt":                  16,
		"Redefine":              64,
		"ARM7TDMI":              1, // uni-processor
		"FPGA":                  1, // fabric runner
		"Pact XPP":              DefaultWidth,
		"DRRA":                  DefaultWidth,
	}
	for name, want := range cases {
		e, ok := registry.Find(name)
		if !ok {
			t.Fatalf("%s missing from registry", name)
		}
		res, err := RunVecAdd(e.Arch, 960) // 960 = lcm-friendly for 2..8, 16, 48, 64... rounded per width
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Instance.Processors != want {
			t.Errorf("%s instantiated with %d processors, want %d", name, res.Instance.Processors, want)
		}
	}
}

func TestRunVecAdd_ParallelBeatsSerial(t *testing.T) {
	arm, _ := registry.Find("ARM7TDMI")
	morpho, _ := registry.Find("MorphoSys")
	serial, err := RunVecAdd(arm.Arch, 512)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunVecAdd(morpho.Arch, 512)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Stats.Cycles >= serial.Stats.Cycles {
		t.Errorf("MorphoSys (%d cycles) not faster than ARM7TDMI (%d cycles)",
			parallel.Stats.Cycles, serial.Stats.Cycles)
	}
}

func TestRunVecAdd_RoundsProblemSize(t *testing.T) {
	e, _ := registry.Find("Montium") // width 5
	res, err := RunVecAdd(e.Arch, 7) // rounds down to 5
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance.Processors != 5 {
		t.Errorf("width %d", res.Instance.Processors)
	}
	// Tiny n below the width rounds up to one element per lane.
	if _, err := RunVecAdd(e.Arch, 1); err != nil {
		t.Errorf("n=1: %v", err)
	}
}

func TestRunVecAdd_Rejects(t *testing.T) {
	bad := spec.Architecture{
		Name: "Broken", IPs: "1", DPs: "1",
		IPIP: "none", IPDP: "??", IPIM: "1-1", DPDM: "1-1", DPDP: "none",
	}
	if _, err := RunVecAdd(bad, 64); err == nil {
		t.Error("unparseable architecture accepted")
	}
	ni := spec.Architecture{
		Name: "NIShape", IPs: "4", DPs: "1",
		IPIP: "none", IPDP: "4-1", IPIM: "4-4", DPDM: "1-1", DPDP: "none",
	}
	if _, err := RunVecAdd(ni, 64); err == nil {
		t.Error("NI shape instantiated")
	}
}

func TestRunSurvey(t *testing.T) {
	col := registry.Survey()
	results, err := RunSurvey(col.Architectures, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 25 {
		t.Fatalf("%d results", len(results))
	}
	bad := append([]spec.Architecture{}, col.Architectures...)
	bad[0].DPDM = "??"
	if _, err := RunSurvey(bad, 128); err == nil {
		t.Error("broken entry accepted")
	}
}

// TestRunVecAddIsKernelTableVecAdd pins the survey to the kernel table:
// every survey row costs exactly what RunKernel reports for its class at
// the instantiated width, so a survey cycle count and a cmd/simulate or
// /v1/simulate vecadd run of the same class and width are one measurement.
func TestRunVecAddIsKernelTableVecAdd(t *testing.T) {
	for _, n := range []int{256, 960} {
		for _, e := range registry.All() {
			res, err := RunVecAdd(e.Arch, n)
			if err != nil {
				t.Errorf("%s n=%d: %v", e.Arch.Name, n, err)
				continue
			}
			p := res.Instance.Processors
			m := max(n, p)
			m -= m % p
			want, err := RunKernel(res.Instance.Class, "vecadd", m, p)
			if err != nil {
				t.Errorf("%s n=%d: RunKernel: %v", e.Arch.Name, n, err)
				continue
			}
			if res.Stats != want.Stats {
				t.Errorf("%s n=%d: survey stats %+v, kernel table stats %+v", e.Arch.Name, n, res.Stats, want.Stats)
			}
		}
	}
}
