package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/taxonomy"
)

// TestVecAddSpatial_AllSixteenSubtypes: the ISP composed into array shape
// must compute the reference vecadd on every sub-type, switching between
// the local and global addressing programs with the DP-DM link.
func TestVecAddSpatial_AllSixteenSubtypes(t *testing.T) {
	a := make([]isa.Word, 32)
	b := make([]isa.Word, 32)
	for i := range a {
		a[i] = isa.Word(i%13 + 1)
		b[i] = isa.Word(i%7 + 2)
	}
	want, err := RefVecAdd(a, b)
	if err != nil {
		t.Fatal(err)
	}
	classes := tableClasses(taxonomy.InstructionFlow, taxonomy.SpatialProcessor)
	if len(classes) != 16 {
		t.Fatalf("Table I has %d ISP classes, want 16", len(classes))
	}
	for _, c := range classes {
		res, err := VecAdd(c, 4, a, b)
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		for i := range want {
			if res.Output[i] != want[i] {
				t.Errorf("%s: c[%d] = %d, want %d", c, i, res.Output[i], want[i])
				break
			}
		}
		if res.Stats.Cycles <= 0 || res.Stats.Instructions <= 0 {
			t.Errorf("%s: empty stats %+v", c, res.Stats)
		}
	}
}

func TestVecAddSpatial_RejectsBadShapes(t *testing.T) {
	a := make([]isa.Word, 32)
	b := make([]isa.Word, 32)
	isp := mustClass("ISP-I")
	// A hand-built spatial class whose sub-type is not in Table I.
	offTable := func(sub int) taxonomy.Class {
		return taxonomy.Class{Name: taxonomy.Name{Machine: taxonomy.InstructionFlow,
			Proc: taxonomy.SpatialProcessor, Sub: sub}, Implementable: true}
	}
	cases := []struct {
		name  string
		class taxonomy.Class
		cells int
		a, b  []isa.Word
	}{
		{"mismatched vectors", isp, 4, a, b[:16]},
		{"one cell", isp, 1, a, b},
		{"non-dividing shard", isp, 5, a, b},
		{"bad sub", offTable(0), 4, a, b},
		{"sub too large", offTable(17), 4, a, b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := VecAdd(tc.class, tc.cells, tc.a, tc.b); err == nil {
				t.Error("accepted")
			}
		})
	}
}
