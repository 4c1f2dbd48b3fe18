package dataflow

import (
	"testing"

	"repro/internal/taxonomy"
)

// TestMeshNoC_SameResultsSlowerTokens: REDEFINE's packet-switched mesh as
// the token network gives identical outputs to a crossbar but pays per-hop
// latency on scattered mappings.
func TestMeshNoC_SameResultsSlowerTokens(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		// A chain that ping-pongs between far-apart PEs under round-robin.
		cur := g.Const(1)
		inc := g.Const(3)
		for i := 0; i < 24; i++ {
			cur = g.Binary(OpAdd, cur, inc)
		}
		g.MarkOutput(cur)
		return g
	}
	base := mustConfig(t, 2, 16)

	gX := build()
	mX, err := New(base, gX, RoundRobinMapping(gX.Nodes(), 16))
	if err != nil {
		t.Fatal(err)
	}
	rX, err := mX.Run()
	if err != nil {
		t.Fatal(err)
	}

	meshCfg := base
	meshCfg.MeshCols = 4 // 4x4 mesh
	gM := build()
	mM, err := New(meshCfg, gM, RoundRobinMapping(gM.Nodes(), 16))
	if err != nil {
		t.Fatal(err)
	}
	rM, err := mM.Run()
	if err != nil {
		t.Fatal(err)
	}

	if rX.Outputs[0] != rM.Outputs[0] {
		t.Fatalf("mesh changed the result: %d vs %d", rM.Outputs[0], rX.Outputs[0])
	}
	if rM.Stats.Cycles <= rX.Stats.Cycles {
		t.Errorf("mesh (%d cycles) not slower than crossbar (%d cycles) on scattered mapping",
			rM.Stats.Cycles, rX.Stats.Cycles)
	}
}

func TestMeshNoC_RejectsRaggedGrid(t *testing.T) {
	cfg := mustConfig(t, 2, 6)
	cfg.MeshCols = 4 // 6 PEs do not fill a 4-column grid
	g := NewGraph()
	g.MarkOutput(g.Const(1))
	if _, err := New(cfg, g, SinglePEMapping(1)); err == nil {
		t.Error("ragged mesh accepted")
	}
}

func TestMeshNoC_LocalityMappingHelpsMore(t *testing.T) {
	// On a mesh the greedy locality mapping saves even more than on a
	// crossbar, because cross-PE hops cost distance.
	build := func() *Graph { return buildChains(4, 12) }
	cfg := mustConfig(t, 2, 16)
	cfg.MeshCols = 4
	gRR := build()
	mRR, err := New(cfg, gRR, RoundRobinMapping(gRR.Nodes(), 16))
	if err != nil {
		t.Fatal(err)
	}
	rRR, err := mRR.Run()
	if err != nil {
		t.Fatal(err)
	}
	gG := build()
	mapping, err := GreedyLocalityMapping(gG, 16)
	if err != nil {
		t.Fatal(err)
	}
	mG, err := New(cfg, gG, mapping)
	if err != nil {
		t.Fatal(err)
	}
	rG, err := mG.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rG.Outputs[0] != rRR.Outputs[0] {
		t.Fatal("mapping changed the result")
	}
	if rG.Stats.Cycles >= rRR.Stats.Cycles {
		t.Errorf("locality mapping (%d cycles) not faster on the mesh (round-robin %d)",
			rG.Stats.Cycles, rRR.Stats.Cycles)
	}
}

// TestMeshNoC_NotUsedWithoutDPDP: MeshCols is meaningless when the class
// has no DP-DP switch; the machine simply never builds the network.
func TestMeshNoC_NotUsedWithoutDPDP(t *testing.T) {
	cfg := mustConfig(t, 1, 4)
	cfg.MeshCols = 2
	if cfg.Class.Links[taxonomy.SiteDPDP] != taxonomy.LinkNone {
		t.Fatal("sub-type I should have no DP-DP switch")
	}
	g := NewGraph()
	g.MarkOutput(g.Const(5))
	m, err := New(cfg, g, SinglePEMapping(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || res.Outputs[0] != 5 {
		t.Errorf("run = (%v, %v)", res.Outputs, err)
	}
}
