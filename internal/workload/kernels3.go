package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/spatial"
)

// VecAddSpatial runs c = a + b on an ISP of the given sub-type composed as
// one control group spanning every cell: the leader's instruction processor
// streams the vecadd loop over the IP-IP switch and all cells execute it in
// lockstep on their own chunk — the spatial machine morphed into array-
// processor shape, which is exactly the composition flexibility the
// taxonomy awards the ISP classes. Sub-types with a DP-DM crossbar run the
// global-addressing program (each cell offsets by its bank base via LANE);
// direct sub-types run the same local program every other class uses.
func VecAddSpatial(sub, cores int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefVecAdd(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if cores < 2 || n%cores != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d cells", n, cores)
	}
	m := n / cores
	bankWords := 3*m + 16
	memWords := bankWords
	prog, err := VecAddProgram(m)
	if (sub-1)&2 != 0 { // DP-DM crossbar: global addressing
		memWords = cores * bankWords
		prog, err = vecAddProgramGlobal(m, bankWords)
	}
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	if ro.record(ProgramSpec{Name: "vecadd", Program: prog, MemWords: memWords, Procs: cores,
		HasNetwork: (sub-1)&1 != 0, HasBarrier: true}) {
		return Result{}, nil
	}
	mach, err := spatial.New(spatial.Config{
		Cores:     cores,
		BankWords: bankWords,
		Sub:       sub,
		Tracer:    ro.tracer,
	})
	if err != nil {
		return Result{}, err
	}
	members := make([]int, 0, cores-1)
	for cell := 1; cell < cores; cell++ {
		members = append(members, cell)
	}
	if err := mach.Compose(0, members, prog); err != nil {
		return Result{}, err
	}
	for cell := 0; cell < cores; cell++ {
		chunk := append(append([]isa.Word{}, a[cell*m:(cell+1)*m]...), b[cell*m:(cell+1)*m]...)
		if err := mach.LoadBank(cell, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, 0, n)
	for cell := 0; cell < cores; cell++ {
		part, err := mach.ReadBank(cell, 2*m, m)
		if err != nil {
			return Result{}, err
		}
		out = append(out, part...)
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	return Result{Output: out, Stats: stats}, nil
}
