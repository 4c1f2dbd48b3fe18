package dataflow

import (
	"testing"
	"testing/quick"
)

// buildChains builds `chains` independent chains of `depth` binary ops each
// — the shape where locality-aware mapping shines.
func buildChains(chains, depth int) *Graph {
	g := NewGraph()
	for c := 0; c < chains; c++ {
		cur := g.Const(int64(c))
		inc := g.Const(1)
		for d := 0; d < depth; d++ {
			cur = g.Binary(OpAdd, cur, inc)
		}
		g.MarkOutput(cur)
	}
	return g
}

func TestCrossEdges(t *testing.T) {
	g := buildExpr() // 7 nodes: consts 0-3, add(0,1), sub(2,3), mul(4,5)
	all0 := SinglePEMapping(g.Nodes())
	cross, err := CrossEdges(g, all0)
	if err != nil || cross != 0 {
		t.Errorf("single-PE cross edges = (%d, %v)", cross, err)
	}
	rr := RoundRobinMapping(g.Nodes(), 2)
	cross, err = CrossEdges(g, rr)
	if err != nil || cross == 0 {
		t.Errorf("round-robin cross edges = (%d, %v), want > 0", cross, err)
	}
	if _, err := CrossEdges(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := CrossEdges(g, []int{0}); err == nil {
		t.Error("short mapping accepted")
	}
}

func TestLoadImbalance(t *testing.T) {
	v, err := LoadImbalance([]int{0, 0, 1, 1}, 2)
	if err != nil || v != 0 {
		t.Errorf("balanced = (%d, %v)", v, err)
	}
	v, err = LoadImbalance([]int{0, 0, 0, 1}, 2)
	if err != nil || v != 2 {
		t.Errorf("3-1 split = (%d, %v)", v, err)
	}
	if _, err := LoadImbalance([]int{0}, 0); err == nil {
		t.Error("0 PEs accepted")
	}
	if _, err := LoadImbalance([]int{5}, 2); err == nil {
		t.Error("out-of-range PE accepted")
	}
}

func TestGreedyLocalityMapping_BeatsRoundRobinOnChains(t *testing.T) {
	g := buildChains(4, 16)
	const pes = 4
	greedy, err := GreedyLocalityMapping(g, pes)
	if err != nil {
		t.Fatal(err)
	}
	rr := RoundRobinMapping(g.Nodes(), pes)
	gCross, err := CrossEdges(g, greedy)
	if err != nil {
		t.Fatal(err)
	}
	rrCross, err := CrossEdges(g, rr)
	if err != nil {
		t.Fatal(err)
	}
	if gCross >= rrCross {
		t.Errorf("greedy cross edges %d not below round-robin %d", gCross, rrCross)
	}
	// Balance stays bounded by the capacity rule.
	imb, err := LoadImbalance(greedy, pes)
	if err != nil {
		t.Fatal(err)
	}
	if imb > (g.Nodes()+pes-1)/pes {
		t.Errorf("greedy imbalance %d exceeds capacity bound", imb)
	}
}

func TestGreedyLocalityMapping_RunsFasterOrEqual(t *testing.T) {
	// Fewer cross edges means fewer token transfers: on DMP-II the greedy
	// mapping must not be slower than round-robin for the chain graph.
	build := func() *Graph { return buildChains(4, 16) }
	cfg := mustConfig(t, 2, 4)
	gGreedy := build()
	greedy, err := GreedyLocalityMapping(gGreedy, 4)
	if err != nil {
		t.Fatal(err)
	}
	mG, err := New(cfg, gGreedy, greedy)
	if err != nil {
		t.Fatal(err)
	}
	resG, err := mG.Run()
	if err != nil {
		t.Fatal(err)
	}
	gRR := build()
	mRR, err := New(cfg, gRR, RoundRobinMapping(gRR.Nodes(), 4))
	if err != nil {
		t.Fatal(err)
	}
	resRR, err := mRR.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resG.Outputs[0] != resRR.Outputs[0] {
		t.Fatal("mappings changed the result")
	}
	if resG.Stats.Cycles > resRR.Stats.Cycles {
		t.Errorf("greedy (%d cycles) slower than round-robin (%d cycles)",
			resG.Stats.Cycles, resRR.Stats.Cycles)
	}
	if resG.Stats.Messages >= resRR.Stats.Messages {
		t.Errorf("greedy messages %d not below round-robin %d",
			resG.Stats.Messages, resRR.Stats.Messages)
	}
}

func TestGreedyLocalityMapping_Rejects(t *testing.T) {
	if _, err := GreedyLocalityMapping(nil, 2); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := GreedyLocalityMapping(buildExpr(), 0); err == nil {
		t.Error("0 PEs accepted")
	}
	empty := NewGraph()
	if _, err := GreedyLocalityMapping(empty, 2); err == nil {
		t.Error("invalid graph accepted")
	}
}

// TestGreedyLocalityMapping_Property: mappings are always valid (every
// node to a PE in range, capacity respected) for arbitrary chain shapes.
func TestGreedyLocalityMapping_Property(t *testing.T) {
	f := func(chainsRaw, depthRaw, pesRaw uint8) bool {
		chains := int(chainsRaw%4) + 1
		depth := int(depthRaw%8) + 1
		pes := int(pesRaw%4) + 1
		g := buildChains(chains, depth)
		mapping, err := GreedyLocalityMapping(g, pes)
		if err != nil {
			return false
		}
		capacity := (g.Nodes() + pes - 1) / pes
		load := make([]int, pes)
		for _, pe := range mapping {
			if pe < 0 || pe >= pes {
				return false
			}
			load[pe]++
		}
		for _, l := range load {
			if l > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
