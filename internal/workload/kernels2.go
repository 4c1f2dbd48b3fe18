package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/taxonomy"
)

// RefStencil3Periodic is the reference periodic 3-point stencil.
func RefStencil3Periodic(a []isa.Word) []isa.Word {
	n := len(a)
	out := make([]isa.Word, n)
	for i := range a {
		out[i] = a[(i-1+n)%n] + a[i] + a[(i+1)%n]
	}
	return out
}

// RefScan is the reference inclusive prefix sum.
func RefScan(a []isa.Word) []isa.Word {
	out := make([]isa.Word, len(a))
	var run isa.Word
	for i, v := range a {
		run += v
		out[i] = run
	}
	return out
}

// matmulShape checks that A is rows x k and B is k x n.
func matmulShape(a, b []isa.Word, rows, k, n int) error {
	if len(a) != rows*k || len(b) != k*n {
		return fmt.Errorf("workload: matmul operands %dx%d and %dx%d sized %d and %d",
			rows, k, k, n, len(a), len(b))
	}
	return nil
}

// RefMatMul is the reference C = A (rows x k) x B (k x n), row-major.
func RefMatMul(a, b []isa.Word, rows, k, n int) ([]isa.Word, error) {
	if err := matmulShape(a, b, rows, k, n); err != nil {
		return nil, err
	}
	c := make([]isa.Word, rows*n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			var acc isa.Word
			for t := 0; t < k; t++ {
				acc += a[i*k+t] * b[t*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c, nil
}

// firOutputs checks the FIR operands and returns the output length,
// len(x) - len(h) + 1.
func firOutputs(x, h []isa.Word) (int, error) {
	if len(h) == 0 || len(x) < len(h) {
		return 0, fmt.Errorf("workload: FIR needs len(x) >= len(h) >= 1, got %d and %d", len(x), len(h))
	}
	return len(x) - len(h) + 1, nil
}

// RefFIR is the reference y[i] = sum_t h[t] * x[i+t] for i in [0, len(x) -
// len(h) + 1).
func RefFIR(x, h []isa.Word) ([]isa.Word, error) {
	m, err := firOutputs(x, h)
	if err != nil {
		return nil, err
	}
	out := make([]isa.Word, m)
	for i := range out {
		var acc isa.Word
		for t := range h {
			acc += h[t] * x[i+t]
		}
		out[i] = acc
	}
	return out, nil
}

// Stencil3 runs the periodic 3-point stencil on an IAP, IMP or ISP class
// with halo exchange over the DP-DP network: it needs a DP-DP switch, local
// addressing and >= 3 processors.
func Stencil3(c taxonomy.Class, procs int, a []isa.Word, opts ...Option) (Result, error) {
	m, err := shard(len(a), procs, 3, "elements")
	if err != nil {
		return Result{}, err
	}
	return runSPMD(c, spmd{name: "stencil3", procs: procs, bankWords: 2*m + 16, local: true,
		program: func(int) (isa.Program, error) { return stencilProgram(m, procs) },
		load:    chunks(m, a), outBase: m, outLen: m}, func() ([]isa.Word, error) { return RefStencil3Periodic(a), nil }, opts)
}

// Scan runs the distributed inclusive prefix sum on a class with a DP-DP
// switch and local addressing. The coordinator/worker role split requires
// per-core control flow, which an IAP's single lockstep stream cannot
// follow (see probeIAPCannotActAsIMP); the kernel table runs it on the IMP.
func Scan(c taxonomy.Class, procs int, a []isa.Word, opts ...Option) (Result, error) {
	m, err := shard(len(a), procs, 2, "elements")
	if err != nil {
		return Result{}, err
	}
	return runSPMD(c, spmd{name: "scan", procs: procs, bankWords: 2*m + 16, local: true,
		program: func(int) (isa.Program, error) { return scanProgram(m, procs) },
		load:    chunks(m, a), outBase: m, outLen: m}, func() ([]isa.Word, error) { return RefScan(a), nil }, opts)
}

// MatMul runs C = A x B with the rows of A sharded over the processors.
// Under local addressing (a direct DP-DM) every bank holds its own copy of
// B — how a machine without shared memory gets matmul. Through a DP-DM
// crossbar B lives once, in bank 0, and every processor reads it there;
// compare the two layouts' NetConflictCycles for the storage/traffic trade
// they make.
func MatMul(c taxonomy.Class, procs int, a, b []isa.Word, rows, k, n int, opts ...Option) (Result, error) {
	if err := matmulShape(a, b, rows, k, n); err != nil {
		return Result{}, err
	}
	mr, err := shard(rows, procs, 2, "rows")
	if err != nil {
		return Result{}, err
	}
	// Every bank holds its A rows at 0; the replicated layout puts B and
	// then C after them, the shared one C and then, in bank 0 only, B.
	shared := c.Links[taxonomy.SiteDPDM].Switched()
	name, bBase, cBase := "matmul-replicated", mr*k, mr*k+k*n
	if shared {
		name, bBase, cBase = "matmul-shared", mr*k+mr*n, mr*k
	}
	return runSPMD(c, spmd{name: name, procs: procs, bankWords: mr*k + k*n + mr*n + 16,
		program: func(global int) (isa.Program, error) {
			if global == 0 {
				return matmulProgram(mr, k, n)
			}
			return matmulSharedProgram(mr, k, n, global, bBase)
		},
		load: func(p int) []segment {
			segs := []segment{{base: 0, vals: a[p*mr*k : (p+1)*mr*k]}}
			if !shared || p == 0 {
				segs = append(segs, segment{base: bBase, vals: b})
			}
			return segs
		},
		outBase: cBase, outLen: mr * n}, func() ([]isa.Word, error) { return RefMatMul(a, b, rows, k, n) }, opts)
}

// FIRUni runs the FIR filter on the uni-processor. x includes len(h)-1
// trailing ghost samples relative to the output length.
func FIRUni(x, h []isa.Word, opts ...Option) (Result, error) {
	m, err := firOutputs(x, h)
	if err != nil {
		return Result{}, err
	}
	prog, err := firProgram(m, len(h))
	if err != nil {
		return Result{}, err
	}
	return runUni("fir", prog, len(x)+len(h)+m+16, x, h, len(x)+len(h), m, func() ([]isa.Word, error) { return RefFIR(x, h) }, opts)
}

// FIR runs the FIR filter on a local-addressing class using overlapped
// sharding: every processor's chunk is preloaded with len(h)-1 ghost
// samples from the next chunk, so no communication is needed and even
// IAP-I (no DP-DP switch) runs it — the overlap is the software workaround
// for the missing switch, bought with duplicated input words.
func FIR(c taxonomy.Class, procs int, x, h []isa.Word, opts ...Option) (Result, error) {
	outputs, err := firOutputs(x, h)
	if err != nil {
		return Result{}, err
	}
	m, err := shard(outputs, procs, 2, "outputs")
	if err != nil {
		return Result{}, err
	}
	taps := len(h)
	return runSPMD(c, spmd{name: "fir", procs: procs, bankWords: (m + taps - 1) + taps + m + 16, local: true,
		program: func(int) (isa.Program, error) { return firProgram(m, taps) },
		load: func(p int) []segment {
			return []segment{{base: 0, vals: x[p*m : p*m+m+taps-1]}, {base: m + taps - 1, vals: h}}
		},
		outBase: m + 2*taps - 1, outLen: m}, func() ([]isa.Word, error) { return RefFIR(x, h) }, opts)
}
