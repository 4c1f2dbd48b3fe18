package spatial

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/taxonomy"
)

// TestClass: New accepts exactly Table I's sixteen ISP rows and wires each
// row's DP-DM crossbar and DP-DP network. Every other row, the zero Class
// and an ISP row with a tampered link are rejected with an error naming
// the class.
func TestClass(t *testing.T) {
	accepted := 0
	for _, row := range taxonomy.Table() {
		m, err := New(Config{Cores: 2, BankWords: 16, Class: row})
		if !row.Implementable || row.Name.Machine != taxonomy.InstructionFlow || row.Name.Proc != taxonomy.SpatialProcessor {
			if err == nil || !strings.Contains(err.Error(), row.String()) {
				t.Errorf("row %d (%s) = %v, want an error naming the class", row.Index, row, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row, err)
			continue
		}
		accepted++
		if got, want := m.MemNet() != nil, row.Links[taxonomy.SiteDPDM] == taxonomy.LinkCrossbar; got != want {
			t.Errorf("%s: DP-DM crossbar %v, Table I DP-DM %v", row, got, row.Links[taxonomy.SiteDPDM])
		}
		if got, want := m.Env(0).SendTo != nil, row.Links[taxonomy.SiteDPDP] == taxonomy.LinkCrossbar; got != want {
			t.Errorf("%s: DP-DP network %v, Table I DP-DP %v", row, got, row.Links[taxonomy.SiteDPDP])
		}
		m.Release()
	}
	if accepted != 16 {
		t.Errorf("accepted %d Table I rows, want 16", accepted)
	}
	tampered := isp(2)
	tampered.Links[taxonomy.SiteDPDM] = taxonomy.LinkNone
	for _, c := range []taxonomy.Class{{}, tampered} {
		if _, err := New(Config{Cores: 2, BankWords: 16, Class: c}); err == nil || !strings.Contains(err.Error(), c.String()) {
			t.Errorf("%s (index %d) = %v, want an error naming the class", c, c.Index, err)
		}
	}
}

// laneSquare stores (cell index)^2 into each member's bank word 0.
var laneSquare = isa.MustAssemble(`
        lane r1
        mul  r2, r1, r1
        st   r2, [r0+0]
        halt
`)

func TestComposedGroup_ActsAsArrayProcessor(t *testing.T) {
	// One group spanning all 4 cells: the ISP morphs into an IAP. Sub-type
	// II keeps DP-DM direct, so [r0+0] is each cell's own bank.
	m, err := New(Config{Cores: 4, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, []int{1, 2, 3}, laneSquare); err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 4; cell++ {
		out, err := m.ReadBank(cell, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != isa.Word(cell*cell) {
			t.Errorf("cell %d = %d, want %d", cell, out[0], cell*cell)
		}
	}
	// 3 instruction deliveries per streamed instruction (3 non-leader
	// members, 3 data instructions).
	if stats.Messages != 9 {
		t.Errorf("IP-IP deliveries = %d, want 9", stats.Messages)
	}
}

func TestSingletonGroups_ActAsMultiProcessor(t *testing.T) {
	// Four singleton groups, each with its own program: the ISP morphs
	// into an IMP, and no IP-IP traffic occurs.
	m, err := New(Config{Cores: 4, BankWords: 16, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 4; cell++ {
		prog := isa.MustAssemble(fmt.Sprintf("ldi r1, %d\nst r1, [r0+0]\nhalt", 100+cell))
		if err := m.Compose(cell, nil, prog); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 4; cell++ {
		out, _ := m.ReadBank(cell, 0, 1)
		if out[0] != isa.Word(100+cell) {
			t.Errorf("cell %d = %d", cell, out[0])
		}
	}
	if stats.Messages != 0 {
		t.Errorf("singleton groups produced %d IP-IP deliveries, want 0", stats.Messages)
	}
}

func TestMixedPartition(t *testing.T) {
	// Cells {0,1} form a composed IP, cells {2} and {3} run alone: the
	// "change the size and dimensions of the instruction processor" claim.
	m, err := New(Config{Cores: 4, BankWords: 16, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, []int{1}, laneSquare); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(2, nil, isa.MustAssemble("ldi r1, 7\nst r1, [r0+0]\nhalt")); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(3, nil, isa.MustAssemble("ldi r1, 8\nst r1, [r0+0]\nhalt")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	wants := []isa.Word{0, 1, 7, 8}
	for cell, want := range wants {
		out, _ := m.ReadBank(cell, 0, 1)
		if out[0] != want {
			t.Errorf("cell %d = %d, want %d", cell, out[0], want)
		}
	}
}

func TestWindow_ConstrainsComposition(t *testing.T) {
	// DRRA-style window: a leader can only enslave cells within 2 hops.
	m, err := New(Config{Cores: 8, BankWords: 16, Class: isp(1), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(3, []int{1, 2, 4, 5}, laneSquare); err != nil {
		t.Fatalf("in-window composition rejected: %v", err)
	}
	if err := m.Compose(6, []int{7}, laneSquare); err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Cores: 8, BankWords: 16, Class: isp(1), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Compose(0, []int{3}, laneSquare); err == nil ||
		!strings.Contains(err.Error(), "window") {
		t.Errorf("out-of-window composition: %v, want window error", err)
	}
}

func TestCrossGroupPipeline(t *testing.T) {
	// Group A (cell 0) produces values; group B (cell 1) consumes them over
	// the DP-DP network: composed IPs cooperating like Fig 5.
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(2)}) // DP-DP crossbar
	if err != nil {
		t.Fatal(err)
	}
	producer := isa.MustAssemble(`
        ldi  r1, 42
        ldi  r2, 1
        send r1, r2
        halt
`)
	consumer := isa.MustAssemble(`
        ldi  r2, 0
        recv r3, r2
        st   r3, [r0+0]
        halt
`)
	if err := m.Compose(0, nil, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(1, nil, consumer); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out, _ := m.ReadBank(1, 0, 1)
	if out[0] != 42 {
		t.Errorf("pipeline delivered %d, want 42", out[0])
	}
}

func TestCrossGroupBarrier(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(3)}) // shared memory
	if err != nil {
		t.Fatal(err)
	}
	writer := isa.MustAssemble(`
        ldi r1, 9
        st  r1, [r0+3]
        sync
        halt
`)
	reader := isa.MustAssemble(`
        sync
        ld  r1, [r0+3]
        st  r1, [r0+16]
        halt
`)
	if err := m.Compose(0, nil, writer); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(1, nil, reader); err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := m.ReadBank(1, 0, 1)
	if out[0] != 9 {
		t.Errorf("post-barrier read = %d, want 9", out[0])
	}
	if stats.Barriers != 1 {
		t.Errorf("barriers = %d", stats.Barriers)
	}
}

func TestDeadlock(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	recvOnly := isa.MustAssemble("ldi r2, 1\nrecv r1, r2\nhalt")
	recvOnly2 := isa.MustAssemble("ldi r2, 0\nrecv r1, r2\nhalt")
	if err := m.Compose(0, nil, recvOnly); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(1, nil, recvOnly2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("mutual recv: %v", err)
	}
}

func TestDeadline(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(1), MaxCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, []int{1}, isa.MustAssemble("loop: jmp loop")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, machine.ErrDeadline) {
		t.Errorf("livelock: %v", err)
	}
}

func TestRun_RequiresFullPartition(t *testing.T) {
	m, err := New(Config{Cores: 4, BankWords: 16, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, []int{1}, laneSquare); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "no control group") {
		t.Errorf("partial partition: %v", err)
	}
}

func TestRun_OneShot(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, []int{1}, laneSquare); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("second Run accepted")
	}
	if err := m.Compose(0, nil, laneSquare); err == nil {
		t.Error("Compose after Run accepted")
	}
}

func TestCompose_Rejects(t *testing.T) {
	m, err := New(Config{Cores: 4, BankWords: 16, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(-1, nil, laneSquare); err == nil {
		t.Error("negative leader accepted")
	}
	if err := m.Compose(0, []int{9}, laneSquare); err == nil {
		t.Error("out-of-range member accepted")
	}
	if err := m.Compose(0, []int{0}, laneSquare); err == nil {
		t.Error("leader listed as member accepted")
	}
	if err := m.Compose(0, []int{1, 1}, laneSquare); err == nil {
		t.Error("duplicate member accepted")
	}
	if err := m.Compose(0, nil, nil); err == nil {
		t.Error("empty program accepted")
	}
	if err := m.Compose(0, nil, isa.Program{{Op: isa.OpJmp, Imm: 9}}); err == nil {
		t.Error("invalid program accepted")
	}
	if err := m.Compose(0, []int{1}, laneSquare); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(1, nil, laneSquare); err == nil {
		t.Error("double assignment accepted")
	}
}

func TestNew_Rejects(t *testing.T) {
	if _, err := New(Config{Cores: 1, BankWords: 16, Class: isp(1)}); err == nil {
		t.Error("1-cell fabric accepted")
	}
	if _, err := New(Config{Cores: 4, BankWords: 0, Class: isp(1)}); err == nil {
		t.Error("0-word banks accepted")
	}
	if _, err := New(Config{Cores: 4, BankWords: 16, Class: isp(1), Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
}

func TestBankAccessors_Reject(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 8, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadBank(5, 0, nil); err == nil {
		t.Error("LoadBank(5) accepted")
	}
	if _, err := m.ReadBank(-1, 0, 1); err == nil {
		t.Error("ReadBank(-1) accepted")
	}
}

func TestNoDPDPNetwork_SendFails(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(1)}) // DP-DP none
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, nil, isa.MustAssemble("ldi r2, 1\nsend r1, r2\nhalt")); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(1, nil, isa.MustAssemble("halt")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("send on ISP-I: %v", err)
	}
}

func TestNoDPDPNetwork_RecvFails(t *testing.T) {
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(0, nil, isa.MustAssemble("recv r1, r2\nhalt")); err != nil {
		t.Fatal(err)
	}
	if err := m.Compose(1, nil, isa.MustAssemble("halt")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("recv on ISP-I: %v", err)
	}
}

func TestComposedGroupLoops(t *testing.T) {
	// A composed group running a loop: leader's registers carry control.
	// DP-DM stays direct so each cell counts in its own bank.
	m, err := New(Config{Cores: 2, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	loop := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 4
loop:   ld   r3, [r0+0]
        addi r3, r3, 1
        st   r3, [r0+0]
        addi r1, r1, 1
        bne  r1, r2, loop
        halt
`)
	if err := m.Compose(0, []int{1}, loop); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 2; cell++ {
		out, _ := m.ReadBank(cell, 0, 1)
		if out[0] != 4 {
			t.Errorf("cell %d counter = %d, want 4", cell, out[0])
		}
	}
}

// isp looks up Table I's ISP row with sub-type sub.
func isp(sub int) taxonomy.Class {
	c, err := taxonomy.Lookup(taxonomy.Name{Machine: taxonomy.InstructionFlow, Proc: taxonomy.SpatialProcessor, Sub: sub})
	if err != nil {
		panic(err)
	}
	return c
}
