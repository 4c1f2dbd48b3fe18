package mimd

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// ringProgs builds per-core ring-exchange programs that send `rounds`
// values to the right neighbour and receive as many from the left.
func ringProgs(cores, rounds int) []isa.Program {
	progs := make([]isa.Program, cores)
	for i := range progs {
		progs[i] = isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, %d          ; my value seed
        ldi  r2, %d          ; right neighbour
        ldi  r3, %d          ; left neighbour
        ldi  r4, 0           ; round
        ldi  r5, %d          ; rounds
loop:   beq  r4, r5, done
        send r1, r2
        recv r1, r3
        addi r4, r4, 1
        jmp  loop
done:   st   r1, [r0+0]
        halt
`, 100+i, (i+1)%cores, (i-1+cores)%cores, rounds))
	}
	return progs
}

// TestBusDPDP_SerializesRelativeToCrossbar is the RaPiD ablation: the same
// IMP-II machine with its 'x' switch realized as a shared bus is slower
// and records far more conflict cycles than with a full crossbar — "the
// buses are not scalable and so is the RaPiD" (§IV), measured.
func TestBusDPDP_SerializesRelativeToCrossbar(t *testing.T) {
	const cores, rounds = 8, 16
	run := func(bus bool) (cycles, conflicts int64) {
		cfg := mustConfig(t, 2, cores, 16)
		cfg.BusDPDP = bus
		m, err := New(cfg, ringProgs(cores, rounds))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Correctness: after `rounds` ring rotations each core holds the
		// value seeded rounds positions to its left.
		for core := 0; core < cores; core++ {
			out, err := m.ReadBank(core, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := isa.Word(100 + ((core-rounds)%cores+cores)%cores)
			if out[0] != want {
				t.Fatalf("bus=%v core %d holds %d, want %d", bus, core, out[0], want)
			}
		}
		return stats.Cycles, stats.NetConflictCycles
	}
	xbarCycles, xbarConf := run(false)
	busCycles, busConf := run(true)
	if busCycles <= xbarCycles {
		t.Errorf("bus (%d cycles) not slower than crossbar (%d cycles)", busCycles, xbarCycles)
	}
	if busConf <= xbarConf {
		t.Errorf("bus conflicts (%d) not above crossbar's (%d)", busConf, xbarConf)
	}
	// Ring traffic on a crossbar is a permutation: conflict-free.
	if xbarConf != 0 {
		t.Errorf("crossbar ring traffic conflicted: %d cycles", xbarConf)
	}
}

// TestBusDPDP_ClassUnchanged: the bus is still the class's 'x' switch to
// the taxonomy, a timing realization only. It adds no DP-DP network to a
// class without one, and carries the messages of a class with one.
func TestBusDPDP_ClassUnchanged(t *testing.T) {
	run := func(sub int, bus bool) error {
		cfg := mustConfig(t, sub, 4, 16)
		cfg.BusDPDP = bus
		m, err := New(cfg, ringProgs(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		_, err = m.Run()
		return err
	}
	plain, bus := run(1, false), run(1, true)
	if plain == nil || bus == nil || bus.Error() != plain.Error() {
		t.Errorf("IMP-I ring without / with the bus flag: %v / %v, want the same missing-network error", plain, bus)
	}
	if err := run(2, true); err != nil {
		t.Errorf("IMP-II ring on the bus: %v", err)
	}
}
