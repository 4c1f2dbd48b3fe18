package simd

import (
	"testing"

	"repro/internal/isa"
)

// TestRelease pins the pooling contract: released banks and register files
// go back to the pool, a second Release is a no-op, and a machine built
// afterwards (likely reusing the pooled buffers) starts zeroed.
func TestRelease(t *testing.T) {
	prog := isa.MustAssemble(`
        ldi  r1, 9
        st   r1, [r0+0]
        halt
`)
	m, err := New(mustConfig(t, 1, 4, 16), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release()

	m2, err := New(mustConfig(t, 1, 4, 16), isa.MustAssemble("halt"))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Release()
	for lane := 0; lane < 4; lane++ {
		out, err := m2.ReadBank(lane, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 0 {
			t.Fatalf("lane %d sees stale memory word %d", lane, out[0])
		}
	}
}
