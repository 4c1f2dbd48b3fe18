package dataflow

import (
	"math/rand"
	"testing"
)

// TestRun_BackfillsIdleCycles: a node whose inputs are ready early fires in
// a gap an earlier-scheduled node left on its PE, not after the PE's latest
// firing. A next-free counter per PE would push it past the late node.
func TestRun_BackfillsIdleCycles(t *testing.T) {
	g := NewGraph()
	a := g.Const(5)               // PE 0
	b := g.Const(7)               // PE 1
	late := g.Binary(OpAdd, a, b) // PE 0, waits for b's token
	early := g.Const(1)           // PE 0, ready at once
	g.MarkOutput(g.Binary(OpAdd, late, early))
	m := mustMachine(t, 2, 2, g, []int{0, 1, 0, 0, 0})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0] != 13 {
		t.Errorf("outputs = %v, want [13]", res.Outputs)
	}
	fl, fe := res.Schedule[late], res.Schedule[early]
	if fl.FireAt < 2 {
		t.Fatalf("late node fired at %d: the token crossing leaves no gap to test", fl.FireAt)
	}
	if fe.FireAt != 1 || fe.PE != fl.PE {
		t.Errorf("early node fired at %d on PE %d, want the gap at cycle 1 on PE %d (late node at %d)",
			fe.FireAt, fe.PE, fl.PE, fl.FireAt)
	}
}

// TestBusySetClaim: claim returns the first cycle at or after its argument
// that no earlier claim took, the rule the per-cycle probe it replaced
// implemented with a map.
func TestBusySetClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var set busySet
		ref := map[int64]bool{}
		for i := 0; i < 300; i++ {
			from := rng.Int63n(int64(1 + rng.Intn(700)))
			want := from
			for ref[want] {
				want++
			}
			ref[want] = true
			if got := set.claim(from); got != want {
				t.Fatalf("trial %d claim %d: claim(%d) = %d, want %d", trial, i, from, got, want)
			}
		}
	}
}
