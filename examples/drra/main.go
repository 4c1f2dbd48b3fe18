// Drra rebuilds the authors' own architecture — DRRA, the Dynamically
// Reconfigurable Resource Array of Table III row 23 (Shami & Hemani,
// SBAC-PAD 2010) — from its survey description and exercises the two
// properties the paper highlights about it:
//
//  1. the ISP-IV classification (distributed control with an IP-IP switch,
//     windowed nx14 connectivity), derived here from the printed cells, and
//  2. the 3-hop window: control groups may only span cells within the
//     window, so the achievable compositions are hardware-constrained —
//     shown by composing a legal 3-hop group and attempting an illegal
//     5-hop one.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/registry"
	"repro/internal/spatial"
	"repro/internal/spec"
)

func main() {
	entry, ok := registry.Find("DRRA")
	if !ok {
		log.Fatal("DRRA missing from the Table III registry")
	}
	class, flex, err := core.ClassifyWithFlexibility(entry.Arch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DRRA cells: IP-IP=%s DP-DM=%s DP-DP=%s -> class %s, flexibility %d\n",
		entry.Arch.IPIP, entry.Arch.DPDM, entry.Arch.DPDP, class, flex)

	// Instantiate the template at 8 cells and price it.
	inst, err := spec.Instantiate(entry.Arch, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	est, err := core.EstimateArchitecture(inst, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: Eq 1 area %.0f GE, Eq 2 configuration %d bits\n\n", inst.Name, est.Area, est.ConfigBits)

	// Build the fabric from the class just derived: 8 cells, 3-hop IP-IP
	// window.
	m, err := spatial.New(spatial.Config{Cores: 8, BankWords: 32, Class: class, Window: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Release()

	// A DSP-style composed region: cells 2..5 under leader 3 run a MAC
	// kernel in lockstep (every cell's bank holds coefficients at 0..3 and
	// samples at 4..7; the composed IP sequences the same MAC on all four
	// data paths). Global addressing (sub IV): each cell offsets by its
	// bank base.
	mac := isa.MustAssemble(`
        lane r9
        muli r9, r9, 32     ; my bank base
        ldi  r1, 0          ; i
        ldi  r2, 4
        ldi  r8, 0          ; acc
loop:   beq  r1, r2, done
        add  r4, r9, r1
        ld   r3, [r4+0]     ; coeff[i]
        ld   r5, [r4+4]     ; sample[i]
        mul  r6, r3, r5
        add  r8, r8, r6
        addi r1, r1, 1
        jmp  loop
done:   addi r4, r9, 8
        st   r8, [r4+0]     ; result at word 8
        halt
`)
	if err := m.Compose(3, []int{2, 4, 5}, mac); err != nil {
		log.Fatal(err)
	}
	// The remaining cells run independent control programs.
	for _, cell := range []int{0, 1, 6, 7} {
		prog := isa.MustAssemble(fmt.Sprintf(`
        lane r1
        muli r9, r1, 32
        ldi  r2, %d
        addi r4, r9, 8
        st   r2, [r4+0]
        halt
`, 1000+cell))
		if err := m.Compose(cell, nil, prog); err != nil {
			log.Fatal(err)
		}
	}

	// Loading: coefficients {1,2,3,4}, samples per cell.
	for cell := 2; cell <= 5; cell++ {
		if err := m.LoadBank(cell, 0, []isa.Word{1, 2, 3, 4}); err != nil {
			log.Fatal(err)
		}
		samples := []isa.Word{isa.Word(cell), isa.Word(cell + 1), isa.Word(cell + 2), isa.Word(cell + 3)}
		if err := m.LoadBank(cell, 4, samples); err != nil {
			log.Fatal(err)
		}
	}
	stats, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("composed MAC region (cells 2-5 under leader 3):")
	for cell := 2; cell <= 5; cell++ {
		out, err := m.ReadBank(cell, 8, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cell %d MAC result: %d\n", cell, out[0])
	}
	fmt.Printf("independent cells wrote their ids; total %d cycles, %d IP-IP control words\n\n",
		stats.Cycles, stats.Messages)

	// The window constraint: leader 0 cannot enslave cell 5 (5 hops).
	m2, err := spatial.New(spatial.Config{Cores: 8, BankWords: 32, Class: class, Window: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer m2.Release()
	if err := m2.Compose(0, []int{5}, mac); err != nil {
		fmt.Println("window constraint enforced:", err)
	} else {
		fmt.Println("ERROR: 5-hop composition was accepted")
	}
}
