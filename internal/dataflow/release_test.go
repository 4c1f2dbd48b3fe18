package dataflow

import "testing"

// TestRelease pins the pooling contract on the dataflow machine: Release
// returns the shared-memory banks, a second Release is a no-op, and a
// machine built afterwards still runs correctly.
func TestRelease(t *testing.T) {
	build := func() (*Machine, error) {
		g := NewGraph()
		a := g.Const(20)
		b := g.Const(22)
		g.MarkOutput(g.Binary(OpAdd, a, b))
		cfg := mustConfig(t, 4, 2)
		return New(cfg, g, RoundRobinMapping(g.Nodes(), 2))
	}
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release()

	m2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Release()
	res, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 42 {
		t.Fatalf("post-release run computed %d, want 42", res.Outputs[0])
	}
}
