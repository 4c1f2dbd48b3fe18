package workload

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/mimd"
	"repro/internal/simd"
	"repro/internal/uniproc"
)

// VecAddUni runs c = a + b on the instruction-flow uni-processor.
func VecAddUni(a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefVecAdd(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	prog, err := VecAddProgram(n)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	if ro.record(ProgramSpec{Name: "vecadd", Program: prog, MemWords: 3*n + 16, Procs: 1}) {
		return Result{}, nil
	}
	m, err := uniproc.New(uniproc.Config{MemWords: 3*n + 16, Tracer: ro.tracer,
		Backend: ro.backend}, prog)
	if err != nil {
		return Result{}, err
	}
	defer m.Release()
	input := append(append([]isa.Word{}, a...), b...)
	out, stats, err := m.RunWithInput(input, 2*n, n)
	if err != nil {
		return Result{}, err
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	return Result{Output: out, Stats: stats}, nil
}

// VecAddSIMD runs c = a + b on an IAP of the given sub-type, splitting the
// vectors into contiguous per-lane chunks. len(a) must divide evenly.
func VecAddSIMD(sub, lanes int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefVecAdd(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if lanes < 2 || n%lanes != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d lanes", n, lanes)
	}
	m := n / lanes
	bankWords := 3*m + 16
	prog, err := VecAddProgram(m)
	if sub == 3 || sub == 4 { // DP-DM crossbar: global addressing
		prog, err = vecAddProgramGlobal(m, bankWords)
	}
	if err != nil {
		return Result{}, err
	}
	cfg, err := simd.ForSubtype(sub, lanes, bankWords)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	cfg.Tracer = ro.tracer
	cfg.Backend = ro.backend
	if ro.record(simdSpec("vecadd", prog, cfg)) {
		return Result{}, nil
	}
	mach, err := simd.New(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for lane := 0; lane < lanes; lane++ {
		chunk := append(append([]isa.Word{}, a[lane*m:(lane+1)*m]...), b[lane*m:(lane+1)*m]...)
		if err := mach.LoadLane(lane, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, 0, n)
	for lane := 0; lane < lanes; lane++ {
		part, err := mach.ReadLane(lane, 2*m, m)
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

// VecAddMIMD runs c = a + b SPMD on an IMP of the given sub-type. Sub-types
// with a direct IP-IM get one copy of the program per core; sub-types with
// the IP-IM crossbar share a single image.
func VecAddMIMD(sub, cores int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefVecAdd(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if cores < 2 || n%cores != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d cores", n, cores)
	}
	m := n / cores
	bankWords := 3*m + 16
	prog, err := VecAddProgram(m)
	if (sub-1)&2 != 0 { // DP-DM crossbar: global addressing
		prog, err = vecAddProgramGlobal(m, bankWords)
	}
	if err != nil {
		return Result{}, err
	}
	cfg, err := mimd.ForSubtype(sub, cores, bankWords)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	cfg.Tracer = ro.tracer
	cfg.Backend = ro.backend
	if ro.record(mimdSpec("vecadd", prog, cfg)) {
		return Result{}, nil
	}
	images := []isa.Program{prog}
	if (sub-1)&4 == 0 { // IP-IM direct: one private copy per core
		images = make([]isa.Program, cores)
		for i := range images {
			images[i] = prog
		}
	}
	mach, err := mimd.New(cfg, images)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for core := 0; core < cores; core++ {
		chunk := append(append([]isa.Word{}, a[core*m:(core+1)*m]...), b[core*m:(core+1)*m]...)
		if err := mach.LoadBank(core, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, 0, n)
	for core := 0; core < cores; core++ {
		part, err := mach.ReadBank(core, 2*m, m)
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

// DotUni computes the dot product on the uni-processor.
func DotUni(a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefDot(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	prog, err := dotProgram(n)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	if ro.record(ProgramSpec{Name: "dot", Program: prog, MemWords: 2*n + 16, Procs: 1}) {
		return Result{}, nil
	}
	m, err := uniproc.New(uniproc.Config{MemWords: 2*n + 16, Tracer: ro.tracer,
		Backend: ro.backend}, prog)
	if err != nil {
		return Result{}, err
	}
	defer m.Release()
	input := append(append([]isa.Word{}, a...), b...)
	out, stats, err := m.RunWithInput(input, 2*n, 1)
	if err != nil {
		return Result{}, err
	}
	if out[0] != want {
		return Result{}, fmt.Errorf("workload: dot = %d, want %d", out[0], want)
	}
	return Result{Output: out, Stats: stats}, nil
}

// DotSIMD computes the dot product on an IAP with a butterfly all-reduce
// over the lane network. It requires a DP-DP switch (sub-types II and IV)
// and a power-of-two lane count; on sub-types I and III the run fails with
// the machine's no-DP-DP error — the probe relies on that.
func DotSIMD(sub, lanes int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefDot(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if lanes < 2 || n%lanes != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d lanes", n, lanes)
	}
	m := n / lanes
	bankWords := 2*m + 16
	prog, err := dotButterflyProgram(m, lanes)
	if sub == 3 || sub == 4 { // DP-DM crossbar: global addressing
		prog, err = dotButterflyProgramGlobal(m, lanes, bankWords)
	}
	if err != nil {
		return Result{}, err
	}
	cfg, err := simd.ForSubtype(sub, lanes, bankWords)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	cfg.Tracer = ro.tracer
	cfg.Backend = ro.backend
	if ro.record(simdSpec("dot-butterfly", prog, cfg)) {
		return Result{}, nil
	}
	mach, err := simd.New(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for lane := 0; lane < lanes; lane++ {
		chunk := append(append([]isa.Word{}, a[lane*m:(lane+1)*m]...), b[lane*m:(lane+1)*m]...)
		if err := mach.LoadLane(lane, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out, err := mach.ReadLane(0, 2*m, 1)
	if err != nil {
		return Result{}, err
	}
	if out[0] != want {
		return Result{}, fmt.Errorf("workload: SIMD dot = %d, want %d", out[0], want)
	}
	return Result{Output: out, Stats: stats}, nil
}

// DotMIMD computes the dot product SPMD on an IMP with the same butterfly
// all-reduce; it requires the DP-DP crossbar (even sub-types).
func DotMIMD(sub, cores int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefDot(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if cores < 2 || n%cores != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d cores", n, cores)
	}
	m := n / cores
	bankWords := 2*m + 16
	prog, err := dotButterflyProgram(m, cores)
	if (sub-1)&2 != 0 { // DP-DM crossbar: global addressing
		prog, err = dotButterflyProgramGlobal(m, cores, bankWords)
	}
	if err != nil {
		return Result{}, err
	}
	cfg, err := mimd.ForSubtype(sub, cores, bankWords)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	cfg.Tracer = ro.tracer
	cfg.Backend = ro.backend
	if ro.record(mimdSpec("dot-butterfly", prog, cfg)) {
		return Result{}, nil
	}
	images := []isa.Program{prog}
	if (sub-1)&4 == 0 {
		images = make([]isa.Program, cores)
		for i := range images {
			images[i] = prog
		}
	}
	mach, err := mimd.New(cfg, images)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for core := 0; core < cores; core++ {
		chunk := append(append([]isa.Word{}, a[core*m:(core+1)*m]...), b[core*m:(core+1)*m]...)
		if err := mach.LoadBank(core, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out, err := mach.ReadBank(0, 2*m, 1)
	if err != nil {
		return Result{}, err
	}
	if out[0] != want {
		return Result{}, fmt.Errorf("workload: MIMD dot = %d, want %d", out[0], want)
	}
	return Result{Output: out, Stats: stats}, nil
}

// DotSIMDPartial computes the dot product on an IAP without a DP-DP
// switch: every lane reduces its own chunk to a partial in its bank and
// the host gathers — the only dot strategy sub-types I and III admit,
// since the butterfly all-reduce DotSIMD uses is architecturally
// impossible without lane-to-lane exchange (Table I).
func DotSIMDPartial(sub, lanes int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefDot(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if lanes < 2 || n%lanes != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d lanes", n, lanes)
	}
	m := n / lanes
	bankWords := 2*m + 16
	global := 0
	if sub == 3 || sub == 4 { // DP-DM crossbar: global addressing
		global = bankWords
	}
	prog, err := dotPartialProgram(m, global)
	if err != nil {
		return Result{}, err
	}
	cfg, err := simd.ForSubtype(sub, lanes, bankWords)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	cfg.Tracer = ro.tracer
	cfg.Backend = ro.backend
	if ro.record(simdSpec("dot-partial", prog, cfg)) {
		return Result{}, nil
	}
	mach, err := simd.New(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for lane := 0; lane < lanes; lane++ {
		chunk := append(append([]isa.Word{}, a[lane*m:(lane+1)*m]...), b[lane*m:(lane+1)*m]...)
		if err := mach.LoadLane(lane, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	var sum isa.Word
	for lane := 0; lane < lanes; lane++ {
		part, err := mach.ReadLane(lane, 2*m, 1)
		if err != nil {
			return Result{}, err
		}
		sum += part[0]
	}
	if sum != want {
		return Result{}, fmt.Errorf("workload: SIMD partial dot = %d, want %d", sum, want)
	}
	return Result{Output: []isa.Word{sum}, Stats: stats}, nil
}

// DotMIMDPartial is DotSIMDPartial on an IMP: per-core partials plus a
// host-side gather, for the eight odd sub-types whose DP-DP switch is
// absent and therefore cannot run DotMIMD's butterfly.
func DotMIMDPartial(sub, cores int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefDot(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if cores < 2 || n%cores != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d cores", n, cores)
	}
	m := n / cores
	bankWords := 2*m + 16
	global := 0
	if (sub-1)&2 != 0 { // DP-DM crossbar: global addressing
		global = bankWords
	}
	prog, err := dotPartialProgram(m, global)
	if err != nil {
		return Result{}, err
	}
	cfg, err := mimd.ForSubtype(sub, cores, bankWords)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	cfg.Tracer = ro.tracer
	cfg.Backend = ro.backend
	if ro.record(mimdSpec("dot-partial", prog, cfg)) {
		return Result{}, nil
	}
	images := []isa.Program{prog}
	if (sub-1)&4 == 0 {
		images = make([]isa.Program, cores)
		for i := range images {
			images[i] = prog
		}
	}
	mach, err := mimd.New(cfg, images)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for core := 0; core < cores; core++ {
		chunk := append(append([]isa.Word{}, a[core*m:(core+1)*m]...), b[core*m:(core+1)*m]...)
		if err := mach.LoadBank(core, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	var sum isa.Word
	for core := 0; core < cores; core++ {
		part, err := mach.ReadBank(core, 2*m, 1)
		if err != nil {
			return Result{}, err
		}
		sum += part[0]
	}
	if sum != want {
		return Result{}, fmt.Errorf("workload: MIMD partial dot = %d, want %d", sum, want)
	}
	return Result{Output: []isa.Word{sum}, Stats: stats}, nil
}

// VecAddDataflow runs c = a + b as a static dataflow graph on a DMP of the
// given sub-type. Elements are load/add/store chains; on multi-PE machines
// each chain is kept PE-local (so even DMP-I can run it) and the banks are
// sharded like the SIMD layout.
func VecAddDataflow(sub, pes int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefVecAdd(a, b)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	if pes < 1 || n%pes != 0 {
		return Result{}, fmt.Errorf("workload: %d elements do not shard over %d PEs", n, pes)
	}
	if applyOpts(opts).sinkOnly() {
		return Result{}, nil // token graph, no guest ISA program to record
	}
	m := n / pes
	g := dataflow.NewGraph()
	var mapping []int
	var stores []int
	for pe := 0; pe < pes; pe++ {
		for i := 0; i < m; i++ {
			// Local addresses within the PE's bank (direct DP-DM), which
			// also work as global addresses when pe==0 under a crossbar;
			// for crossbar sub-types the bank offset is pe*bankWords.
			base := int64(0)
			bankWords := int64(3*m + 16)
			if sub == 3 || sub == 4 {
				base = int64(pe) * bankWords
			}
			aAddr := g.Const(base + int64(i))
			bAddr := g.Const(base + int64(m+i))
			cAddr := g.Const(base + int64(2*m+i))
			av := g.Load(aAddr)
			bv := g.Load(bAddr)
			sum := g.Binary(dataflow.OpAdd, av, bv)
			st := g.Store(cAddr, sum)
			g.MarkOutput(st)
			stores = append(stores, st)
			for k := 0; k < 7; k++ { // 7 nodes per element chain
				mapping = append(mapping, pe)
			}
		}
	}
	cfg, err := dataflow.ForSubtype(sub, pes, 3*m+16)
	if err != nil {
		return Result{}, err
	}
	cfg.Tracer = applyOpts(opts).tracer
	mach, err := dataflow.New(cfg, g, mapping)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for pe := 0; pe < pes; pe++ {
		chunk := append(append([]isa.Word{}, a[pe*m:(pe+1)*m]...), b[pe*m:(pe+1)*m]...)
		if err := mach.LoadBank(pe, 0, chunk); err != nil {
			return Result{}, err
		}
	}
	res, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, 0, n)
	for pe := 0; pe < pes; pe++ {
		part, err := mach.ReadBank(pe, 2*m, m)
		if err != nil {
			return Result{}, err
		}
		out = append(out, part...)
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	return Result{Output: out, Stats: res.Stats}, nil
}

// VecAddFabric runs c = a + b serially through an adder overlay on the
// universal-flow fabric: the USP acting as a pure data processor.
func VecAddFabric(width int, a, b []isa.Word, opts ...Option) (Result, error) {
	want, err := RefVecAdd(a, b)
	if err != nil {
		return Result{}, err
	}
	if applyOpts(opts).sinkOnly() {
		return Result{}, nil // LUT bitstream, no guest ISA program to record
	}
	f, err := fabric.New(2*width, 2*width)
	if err != nil {
		return Result{}, err
	}
	f.SetTracer(applyOpts(opts).tracer)
	ov, err := fabric.BuildAdder(f, width)
	if err != nil {
		return Result{}, err
	}
	if err := f.Configure(ov.Bitstream); err != nil {
		return Result{}, err
	}
	out := make([]isa.Word, len(a))
	for i := range a {
		if a[i] < 0 || b[i] < 0 || a[i] >= 1<<uint(width) || b[i] >= 1<<uint(width) {
			return Result{}, fmt.Errorf("workload: operand %d/%d outside the %d-bit adder range", a[i], b[i], width)
		}
		sum, err := ov.Add(f, uint64(a[i]), uint64(b[i]))
		if err != nil {
			return Result{}, err
		}
		out[i] = isa.Word(sum)
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	stats := machineStatsForFabric(f)
	return Result{Output: out, Stats: stats}, nil
}
