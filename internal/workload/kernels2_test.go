package workload

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestRefStencil3Periodic(t *testing.T) {
	got := RefStencil3Periodic([]isa.Word{1, 2, 3, 4})
	want := []isa.Word{4 + 1 + 2, 1 + 2 + 3, 2 + 3 + 4, 3 + 4 + 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRefScan(t *testing.T) {
	got := RefScan([]isa.Word{3, -1, 4, 1})
	want := []isa.Word{3, 2, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRefMatMulAndFIR(t *testing.T) {
	c, err := RefMatMul([]isa.Word{1, 2, 3, 4}, []isa.Word{5, 6, 7, 8}, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Word{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("C[%d] = %d, want %d", i, c[i], want[i])
		}
	}
	if _, err := RefMatMul(nil, nil, 2, 2, 2); err == nil {
		t.Error("bad shapes accepted")
	}
	y, err := RefFIR([]isa.Word{1, 2, 3, 4}, []isa.Word{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 3 || y[0] != 3 || y[2] != 7 {
		t.Errorf("FIR = %v", y)
	}
	if _, err := RefFIR([]isa.Word{1}, []isa.Word{1, 1}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := RefFIR([]isa.Word{1}, nil); err == nil {
		t.Error("empty taps accepted")
	}
}

func TestStencil3_SIMDAndMIMD(t *testing.T) {
	a := seq(64, 5)
	sres, err := Stencil3(mustClass("IAP-II"), 4, a)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := Stencil3(mustClass("IMP-II"), 4, a)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sres.Output, mres.Output) {
		t.Error("IAP and IMP stencils disagree")
	}
	// Each processor performs 2 sends and 2 recvs; both count as messages.
	if sres.Stats.Messages != 4*4 || mres.Stats.Messages != 4*4 {
		t.Errorf("halo messages = %d / %d, want 16", sres.Stats.Messages, mres.Stats.Messages)
	}
}

func TestStencil3_RequiresNetworkAndShape(t *testing.T) {
	a := seq(64, 1)
	if _, err := Stencil3(mustClass("IAP-I"), 4, a); err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("stencil on IAP-I: %v", err)
	}
	if _, err := Stencil3(mustClass("IAP-II"), 2, a); err == nil {
		t.Error("2-lane halo exchange accepted (neighbour queues collide)")
	}
	if _, err := Stencil3(mustClass("IAP-II"), 5, seq(63, 1)); err == nil {
		t.Error("non-dividing shard accepted")
	}
	if _, err := Stencil3(mustClass("IMP-I"), 4, a); err == nil {
		t.Error("stencil on IMP-I accepted (no DP-DP)")
	}
	if _, err := Stencil3(mustClass("IAP-IV"), 4, a); err == nil || !strings.Contains(err.Error(), "local addressing") {
		t.Errorf("stencil on IAP-IV (DP-DM crossbar): %v", err)
	}
}

func TestScanMIMD(t *testing.T) {
	a := seq(64, -10)
	res, err := Scan(mustClass("IMP-II"), 8, a)
	if err != nil {
		t.Fatal(err)
	}
	want := RefScan(a)
	if !slices.Equal(res.Output, want) {
		t.Errorf("scan output wrong: %v...", res.Output[:4])
	}
	// Coordinator protocol: every worker sends one total and receives one
	// offset, and the coordinator mirrors each — 4*(cores-1) counted
	// message operations.
	if res.Stats.Messages != 4*7 {
		t.Errorf("scan messages = %d, want 28", res.Stats.Messages)
	}
	if _, err := Scan(mustClass("IMP-I"), 8, a); err == nil {
		t.Error("scan on IMP-I accepted (no DP-DP)")
	}
	if _, err := Scan(mustClass("IMP-II"), 7, a); err == nil {
		t.Error("non-dividing shard accepted")
	}
}

func TestMatMul_ReplicatedVsShared(t *testing.T) {
	const rows, k, n = 8, 6, 5
	a := seq(rows*k, 1)
	b := seq(k*n, 2)
	rep, err := MatMul(mustClass("IMP-I"), 4, a, b, rows, k, n)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := MatMul(mustClass("IMP-III"), 4, a, b, rows, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Output, sh.Output) {
		t.Error("replicated and shared matmul disagree")
	}
	// Replicated B never touches a shared resource; shared B serializes on
	// bank 0's crossbar port.
	if rep.Stats.NetConflictCycles != 0 {
		t.Errorf("replicated matmul conflicted: %d cycles", rep.Stats.NetConflictCycles)
	}
	if sh.Stats.NetConflictCycles == 0 {
		t.Error("shared matmul recorded no contention on the B bank")
	}
	if _, err := MatMul(mustClass("IMP-I"), 3, a, b, rows, k, n); err == nil {
		t.Error("non-dividing row shard accepted")
	}
}

func TestFIR_UniAndSIMD(t *testing.T) {
	h := []isa.Word{2, -1, 3}
	// 64 outputs need 64+2 input samples.
	x := seq(66, 1)
	uni, err := FIRUni(x, h)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := FIR(mustClass("IAP-I"), 4, x, h)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(uni.Output, sim.Output) {
		t.Error("uni and IAP FIR disagree")
	}
	// Lane parallelism pays off.
	if sim.Stats.Cycles >= uni.Stats.Cycles {
		t.Errorf("4-lane FIR (%d cycles) not faster than IUP (%d cycles)",
			sim.Stats.Cycles, uni.Stats.Cycles)
	}
	if _, err := FIR(mustClass("IAP-III"), 4, x, h); err == nil {
		t.Error("DP-DM crossbar class accepted by local-addressing FIR")
	}
	if _, err := FIR(mustClass("IAP-I"), 5, x, h); err == nil {
		t.Error("non-dividing shard accepted")
	}
}

func TestScan_Property(t *testing.T) {
	f := func(seed uint8) bool {
		a := make([]isa.Word, 32)
		for i := range a {
			a[i] = isa.Word((int(seed)*31 + i*17) % 50)
		}
		res, err := Scan(mustClass("IMP-II"), 4, a)
		if err != nil {
			return false
		}
		return slices.Equal(res.Output, RefScan(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestStencil_Property(t *testing.T) {
	f := func(seed uint8, lanesSel uint8) bool {
		lanes := []int{4, 8}[int(lanesSel)%2]
		a := make([]isa.Word, 16*lanes)
		for i := range a {
			a[i] = isa.Word((int(seed) + i*13) % 90)
		}
		res, err := Stencil3(mustClass("IAP-II"), lanes, a)
		if err != nil {
			return false
		}
		return slices.Equal(res.Output, RefStencil3Periodic(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
