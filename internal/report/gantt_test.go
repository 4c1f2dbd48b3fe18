package report

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/taxonomy"
)

func TestGantt_RealSchedule(t *testing.T) {
	g := dataflow.NewGraph()
	a := g.Const(3)
	b := g.Const(4)
	sum := g.Binary(dataflow.OpAdd, a, b)
	prod := g.Binary(dataflow.OpMul, sum, a)
	g.MarkOutput(prod)
	dmp2, err := taxonomy.LookupString("DMP-II")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataflow.Config{PEs: 2, BankWords: 16, Class: dmp2}
	m, err := dataflow.New(cfg, g, dataflow.RoundRobinMapping(g.Nodes(), 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != g.Nodes() {
		t.Fatalf("schedule has %d entries for %d nodes", len(res.Schedule), g.Nodes())
	}
	out, err := Gantt(res.Schedule, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PE0") || !strings.Contains(out, "PE1") {
		t.Errorf("gantt missing PE rows:\n%s", out)
	}
	if !strings.Contains(out, "4 nodes") {
		t.Errorf("gantt header:\n%s", out)
	}
	// Dependencies are visible: the mul fires after the add is done.
	var add, mul dataflow.NodeFire
	for _, f := range res.Schedule {
		switch f.Node {
		case 2:
			add = f
		case 3:
			mul = f
		}
	}
	if mul.FireAt < add.DoneAt {
		t.Errorf("mul fired at %d before add finished at %d", mul.FireAt, add.DoneAt)
	}
}

func TestGantt_Rejects(t *testing.T) {
	if _, err := Gantt(nil, 100); err == nil {
		t.Error("empty schedule accepted")
	}
	good := []dataflow.NodeFire{{Node: 0, PE: 0, FireAt: 0, DoneAt: 1}}
	if _, err := Gantt(good, 0); err == nil {
		t.Error("zero cap accepted")
	}
	if _, err := Gantt([]dataflow.NodeFire{{Node: 0, PE: 0, FireAt: 5, DoneAt: 5}}, 100); err == nil {
		t.Error("zero-length firing accepted")
	}
	if _, err := Gantt([]dataflow.NodeFire{{Node: 0, PE: -1, FireAt: 0, DoneAt: 1}}, 100); err == nil {
		t.Error("negative PE accepted")
	}
	if _, err := Gantt([]dataflow.NodeFire{{Node: 0, PE: 0, FireAt: 0, DoneAt: 500}}, 100); err == nil {
		t.Error("over-cap schedule accepted")
	}
}

func TestGantt_OnePEFullySerial(t *testing.T) {
	sched := []dataflow.NodeFire{
		{Node: 0, PE: 0, FireAt: 0, DoneAt: 1},
		{Node: 1, PE: 0, FireAt: 1, DoneAt: 2},
		{Node: 2, PE: 0, FireAt: 2, DoneAt: 4},
	}
	out, err := Gantt(sched, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "|0122|") {
		t.Errorf("serial row wrong:\n%s", out)
	}
}
