package spatial

import (
	"testing"

	"repro/internal/isa"
)

// TestCompositionTradeoff pins the two sides of the ISP composition trade:
// a single composed group stores the program once but pays IP-IP delivery
// cycles; singleton groups store n copies but run without control traffic.
// This is the quantitative content of the paper's spatial-computing classes
// (31-46): the IP-IP switch buys an organisational choice, and both
// organisations are reachable from the same hardware.
func TestCompositionTradeoff(t *testing.T) {
	const cells = 8
	prog := isa.MustAssemble(`
        lane r1
        muli r2, r1, 3
        st   r2, [r0+0]
        ld   r3, [r0+0]
        addi r3, r3, 1
        st   r3, [r0+1]
        halt
`)

	// Organisation A: one composed IP spanning all cells.
	composed, err := New(Config{Cores: cells, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := composed.Compose(0, []int{1, 2, 3, 4, 5, 6, 7}, prog); err != nil {
		t.Fatal(err)
	}
	composedWords := composed.InstructionWords()
	composedStats, err := composed.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Organisation B: singleton groups (the IMP morph).
	split, err := New(Config{Cores: cells, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		if err := split.Compose(c, nil, prog); err != nil {
			t.Fatal(err)
		}
	}
	splitWords := split.InstructionWords()
	splitStats, err := split.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Same results either way.
	for c := 0; c < cells; c++ {
		a, err := composed.ReadBank(c, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := split.ReadBank(c, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a[0] != b[0] || a[1] != b[1] || a[0] != isa.Word(c*3) {
			t.Errorf("cell %d: composed %v vs split %v", c, a, b)
		}
	}

	// Storage: composed stores the program once, split stores it n times.
	if composedWords != len(prog) {
		t.Errorf("composed stores %d words, want %d", composedWords, len(prog))
	}
	if splitWords != cells*len(prog) {
		t.Errorf("split stores %d words, want %d", splitWords, cells*len(prog))
	}

	// Time: the composed group pays IP-IP delivery, so it is slower.
	if composedStats.Cycles <= splitStats.Cycles {
		t.Errorf("composed (%d cycles) not paying IP-IP latency vs split (%d cycles)",
			composedStats.Cycles, splitStats.Cycles)
	}
	if composedStats.Messages == 0 || splitStats.Messages != 0 {
		t.Errorf("control traffic: composed %d, split %d", composedStats.Messages, splitStats.Messages)
	}
	if composed.Groups() != 1 || split.Groups() != cells {
		t.Errorf("group counts %d / %d", composed.Groups(), split.Groups())
	}
}
