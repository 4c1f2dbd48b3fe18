package spatial

import (
	"testing"

	"repro/internal/isa"
)

// TestRelease pins the pooling contract: released banks go back to the
// pool, a second Release is a no-op, and a machine built afterwards
// (likely reusing the pooled banks) starts zeroed.
func TestRelease(t *testing.T) {
	prog := isa.MustAssemble(`
        ldi  r1, 13
        st   r1, [r0+0]
        halt
`)
	m, err := New(Config{Cores: 4, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if err := m.Compose(c, nil, prog); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release()

	m2, err := New(Config{Cores: 4, BankWords: 16, Class: isp(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Release()
	for c := 0; c < 4; c++ {
		out, err := m2.ReadBank(c, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 0 {
			t.Fatalf("cell %d sees stale memory word %d", c, out[0])
		}
	}
}
