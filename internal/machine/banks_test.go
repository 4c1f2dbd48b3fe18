package machine

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/taxonomy"
)

// TestBanks is the table-driven audit of the data side the sharded
// simulators share: the per-simulator error texts, DP-DM timing, the
// DP-DP mailbox's FIFO order and arrival times, conflict accounting over
// both switches, and Release's idempotence.
func TestBanks(t *testing.T) {
	direct := BankConfig{Pkg: "simd", Noun: "lane", Procs: 4, BankWords: 16,
		DPDM: taxonomy.LinkDirect, DPDP: taxonomy.LinkCrossbar}
	global := BankConfig{Pkg: "mimd", Noun: "core", Procs: 4, BankWords: 16,
		DPDM: taxonomy.LinkCrossbar, DPDP: taxonomy.LinkCrossbar}
	cells := BankConfig{Pkg: "spatial", Noun: "cell", Procs: 2, BankWords: 8,
		DPDM: taxonomy.LinkDirect, DPDP: taxonomy.LinkCrossbar}
	pes := BankConfig{Pkg: "dataflow", Noun: "PE", Procs: 2, BankWords: 8,
		DPDM: taxonomy.LinkCrossbar, DPDP: taxonomy.LinkNone}

	cases := []struct {
		name string
		cfg  BankConfig
		// run exercises b and returns the error under test (nil when the
		// case checks state instead).
		run     func(t *testing.T, b *Banks) error
		wantErr string
	}{
		{"LoadBank out of range", direct, func(t *testing.T, b *Banks) error {
			return b.LoadBank(4, 0, []isa.Word{1})
		}, "simd: lane 4 out of range [0,4)"},
		{"ReadBank out of range", pes, func(t *testing.T, b *Banks) error {
			_, err := b.ReadBank(-1, 0, 1)
			return err
		}, "dataflow: PE -1 out of range [0,2)"},
		{"direct address outside the bank", direct, func(t *testing.T, b *Banks) error {
			_, err := b.Env(3).Load(99)
			return err
		}, "simd: lane 3 address 99 outside its bank of 16 words (DP-DM is direct)"},
		{"crossbar global address out of range", global, func(t *testing.T, b *Banks) error {
			return b.Env(1).Store(64, 7)
		}, "mimd: core 1 global address 64 outside 64 words"},
		{"dataflow global address negative", pes, func(t *testing.T, b *Banks) error {
			_, err := b.Load(1, -1)
			return err
		}, "dataflow: PE 1 global address -1 outside 16 words"},
		{"send to a nonexistent peer", cells, func(t *testing.T, b *Banks) error {
			return b.Env(0).SendTo(7, 1)
		}, "spatial: cell 0 sends to nonexistent cell 7"},
		{"receive from a nonexistent peer", cells, func(t *testing.T, b *Banks) error {
			_, err := b.Env(1).RecvFrom(-2)
			return err
		}, "spatial: cell 1 receives from nonexistent cell -2"},
		{"Ready names a nonexistent peer", cells, func(t *testing.T, b *Banks) error {
			_, err := b.Ready(0, 2, 0)
			return err
		}, "spatial: cell 0 receives from nonexistent cell 2"},
		{"no DP-DP switch", pes, func(t *testing.T, b *Banks) error {
			env := b.Env(0)
			if env.SendTo != nil || env.RecvFrom != nil {
				t.Error("SendTo/RecvFrom set without a DP-DP switch")
			}
			return nil
		}, ""},
		{"direct access costs two cycles", direct, func(t *testing.T, b *Banks) error {
			if err := b.LoadBank(2, 5, []isa.Word{42}); err != nil {
				return err
			}
			b.Now, b.Finish = 10, 11
			v, err := b.Env(2).Load(5)
			if v != 42 || b.Finish != 12 {
				t.Errorf("Load = %d, Finish %d; want 42, 12", v, b.Finish)
			}
			if b.Bank(2)[5] != 42 || b.MemNet() != nil {
				t.Errorf("Bank(2)[5] = %d, MemNet %v; want 42 and no DP-DM crossbar", b.Bank(2)[5], b.MemNet())
			}
			return err
		}, ""},
		{"global store lands in the addressed bank", global, func(t *testing.T, b *Banks) error {
			b.Now, b.Finish = 3, 4
			if err := b.Store(0, 16*2+5, 9); err != nil {
				return err
			}
			got, err := b.ReadBank(2, 5, 1)
			if got[0] != 9 || b.Finish != 5 {
				t.Errorf("bank 2 word 5 = %d, Finish %d; want 9, 5", got[0], b.Finish)
			}
			if b.MemNet() == nil {
				t.Error("no DP-DM crossbar under crossbar DP-DM")
			}
			return err
		}, ""},
		{"mailbox is FIFO and timed", cells, func(t *testing.T, b *Banks) error {
			b.Now, b.Finish = 0, 1
			send := b.Env(0).SendTo
			if err := send(1, 10); err != nil {
				return err
			}
			if err := send(1, 20); err != nil {
				return err
			}
			// The second word waits a cycle for the output port.
			if b.Finish != 3 {
				t.Errorf("Finish after two sends = %d, want 3", b.Finish)
			}
			if ready, _ := b.Ready(1, 0, 0); ready {
				t.Error("Ready before the first word arrived")
			}
			if ready, _ := b.Ready(1, 0, 1); !ready {
				t.Error("not Ready once the first word arrived")
			}
			recv := b.Env(1).RecvFrom
			b.Now = 0
			if _, err := recv(0); !errors.Is(err, ErrWouldBlock) {
				t.Errorf("early recv err = %v, want ErrWouldBlock", err)
			}
			b.Now = 5
			for _, want := range []isa.Word{10, 20} {
				if v, err := recv(0); v != want || err != nil {
					t.Errorf("recv = %d, %v; want %d", v, err, want)
				}
			}
			if _, err := recv(0); !errors.Is(err, ErrWouldBlock) {
				t.Errorf("recv from an empty queue err = %v, want ErrWouldBlock", err)
			}
			return nil
		}, ""},
		{"ConflictCycles sums both switches", global, func(t *testing.T, b *Banks) error {
			// Two loads of bank 3 and two sends to core 3 in one cycle:
			// each second transfer waits a cycle on its output port.
			for p := 0; p < 2; p++ {
				if _, err := b.Load(p, 3*16); err != nil {
					return err
				}
				if err := b.Env(p).SendTo(3, 1); err != nil {
					return err
				}
			}
			mem, msg := b.memNet.Stats().ConflictCycles, b.msgNet.Stats().ConflictCycles
			if mem != 1 || msg != 1 || b.ConflictCycles() != 2 {
				t.Errorf("conflicts: DP-DM %d, DP-DP %d, sum %d; want 1, 1, 2", mem, msg, b.ConflictCycles())
			}
			return nil
		}, ""},
		{"bus DP-DP serializes every transfer", BankConfig{Pkg: "mimd", Noun: "core", Procs: 4, BankWords: 4,
			DPDM: taxonomy.LinkDirect, DPDP: taxonomy.LinkCrossbar, BusDPDP: true}, func(t *testing.T, b *Banks) error {
			// Distinct destinations would not conflict on a crossbar.
			if err := b.Env(0).SendTo(1, 1); err != nil {
				return err
			}
			if err := b.Env(2).SendTo(3, 1); err != nil {
				return err
			}
			if got := b.ConflictCycles(); got != 1 {
				t.Errorf("bus conflicts = %d, want 1", got)
			}
			return nil
		}, ""},
		{"second Release is a no-op", direct, func(t *testing.T, b *Banks) error {
			b.Release()
			for p := range b.banks {
				if b.banks[p] != nil {
					t.Errorf("bank %d still held after Release", p)
				}
			}
			b.Release()
			return nil
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBanks(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release()
			err = tc.run(t, b)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Errorf("error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
