// Package workload expresses a small suite of kernels on every machine
// class of the taxonomy — uni-processor (IUP), array processor (IAP),
// multi-processor (IMP), data-flow machine (DMP) and the universal fabric
// (USP) — and provides the "morph probes" that turn the paper's §III.B
// flexibility arguments into executable checks: which classes can run which
// kernels, which emulations succeed, and which fail for exactly the reason
// the taxonomy predicts (no DP-DP switch, single instruction stream, local
// addressing only).
package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/spatial"
	"repro/internal/taxonomy"
	"repro/internal/uniproc"
)

// runOpts carries optional per-run settings kernels thread into the
// machine configurations they build.
type runOpts struct {
	tracer   obs.Tracer
	interp   bool
	expected []isa.Word
	specs    *[]ProgramSpec
}

// ProgramSpec describes one guest program a kernel runner was about to
// execute, together with the machine shape it would run on — the bridge
// between the workload layer and the static checker (internal/progcheck).
type ProgramSpec struct {
	// Name labels the program within its kernel run (one kernel may stage
	// several programs, e.g. partial-sum then merge).
	Name string
	// Program is the guest program itself.
	Program isa.Program
	// MemWords is the data-memory size the program addresses: the bank
	// size under local addressing, all banks under a DP-DM crossbar.
	MemWords int
	// Procs is the number of lanes/cores the program runs on.
	Procs int
	// HasNetwork and HasBarrier report the machine's DP-DP switch and
	// barrier capability, which decide whether SEND/RECV/SYNC are legal.
	HasNetwork bool
	HasBarrier bool
}

// Option customises one kernel run.
type Option func(*runOpts)

// WithTracer routes the run's events (instruction retirements, memory and
// network traffic, barriers, stalls) to tr. A nil tr is a no-op.
func WithTracer(tr obs.Tracer) Option {
	return func(o *runOpts) { o.tracer = tr }
}

// WithInterp runs every instruction-flow machine the kernel builds on the
// machine.StepOps reference chain instead of compiled code. Results, Stats
// and events are identical; the differential tests use it to pin that.
func WithInterp() Option {
	return func(o *runOpts) { o.interp = true }
}

// WithExpected has the runner check the run's output against want instead
// of computing the kernel's reference itself: for a caller that computed
// it already (modelzoo.Kernel.Execute), so a run computes it once. The run
// still fails when its output differs from want.
func WithExpected(want []isa.Word) Option {
	return func(o *runOpts) { o.expected = want }
}

// reference returns the output the run must produce: the caller's under
// WithExpected, ref's otherwise.
func (o *runOpts) reference(ref reference) ([]isa.Word, error) {
	if o.expected != nil {
		return o.expected, nil
	}
	return ref()
}

// WithProgramSink diverts the run into a dry audit: each runner appends
// the program(s) it would execute — with the machine shape — to sink and
// returns before building or running any machine. Runners whose class has
// no guest ISA program (data-flow token graphs, the LUT fabric) record
// nothing. The returned Result is empty in this mode.
func WithProgramSink(sink *[]ProgramSpec) Option {
	return func(o *runOpts) { o.specs = sink }
}

// record appends spec when a program sink is installed and reports whether
// the runner should stop (sink-only mode).
func (o *runOpts) record(spec ProgramSpec) bool {
	if o.specs == nil {
		return false
	}
	*o.specs = append(*o.specs, spec)
	return true
}

// sinkOnly reports sink-only mode for runners with no guest ISA program.
func (o runOpts) sinkOnly() bool { return o.specs != nil }

// applyOpts folds the option list into a runOpts value.
func applyOpts(opts []Option) runOpts {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Result is a kernel run's outcome on one machine class.
type Result struct {
	// Output is the kernel's result vector (or a single element for
	// reductions).
	Output []isa.Word
	// Stats is the machine's run statistics.
	Stats machine.Stats
}

// sameLength is the operand check of the two-vector kernels and their
// references.
func sameLength(a, b []isa.Word) error {
	if len(a) != len(b) {
		return fmt.Errorf("workload: vector lengths differ (%d vs %d)", len(a), len(b))
	}
	return nil
}

// RefVecAdd is the reference c[i] = a[i] + b[i].
func RefVecAdd(a, b []isa.Word) ([]isa.Word, error) {
	if err := sameLength(a, b); err != nil {
		return nil, err
	}
	c := make([]isa.Word, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c, nil
}

// RefDot is the reference sum of a[i] * b[i].
func RefDot(a, b []isa.Word) (isa.Word, error) {
	if err := sameLength(a, b); err != nil {
		return 0, err
	}
	var s isa.Word
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// RefSum is the reference sum of a.
func RefSum(a []isa.Word) isa.Word {
	var s isa.Word
	for _, v := range a {
		s += v
	}
	return s
}

// RefReduce is the reference sum-reduction of a — the result the "reduce"
// kernel must produce on every machine class. It is RefSum under the name
// the conformance matrix uses for the kernel row.
func RefReduce(a []isa.Word) isa.Word { return RefSum(a) }

// reference computes a run's expected output. Runners validate their
// operands' shapes up front and pass the reference computation on
// unevaluated, so a program-sink run, which stops once its programs are
// recorded, never computes it.
type reference func() ([]isa.Word, error)

// refDot is RefDot as a one-word reference.
func refDot(a, b []isa.Word) reference {
	return func() ([]isa.Word, error) {
		s, err := RefDot(a, b)
		return []isa.Word{s}, err
	}
}

// checkEqual compares a machine output with the reference.
func checkEqual(got, want []isa.Word) error {
	if len(got) != len(want) {
		return fmt.Errorf("workload: output length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("workload: output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// banked is what the SPMD harness needs of a sharded simulator; the IAP,
// IMP and ISP machines all provide it.
type banked interface {
	LoadBank(p, base int, vals []isa.Word) error
	ReadBank(p, base, n int) ([]isa.Word, error)
	Run() (machine.Stats, error)
	Release()
}

// segment is one host-to-bank copy: vals at word base.
type segment struct {
	base int
	vals []isa.Word
}

// gather says how the host combines the processors' result words.
type gather int

const (
	gatherAll   gather = iota // every processor's words, in processor order
	gatherFirst               // processor 0's words: an all-reduce left them everywhere
	gatherSum                 // the sum of the processors' words: host-gathered partials
)

// spmd is one sharded kernel run: the same program on every lane, core or
// cell, each working on its own bank.
type spmd struct {
	// name labels the program in its ProgramSpec.
	name      string
	procs     int
	bankWords int
	// local marks a program written for local addressing only, which a
	// DP-DM crossbar class cannot run.
	local bool
	// program builds the guest program. global is the bank size under a
	// DP-DM crossbar, where each processor offsets its accesses by its
	// bank base, and 0 under local addressing.
	program func(global int) (isa.Program, error)
	// load lists the words to copy into processor p's bank.
	load func(p int) []segment
	// outBase and outLen locate each processor's result words.
	outBase, outLen int
	gather          gather
}

// shard splits total items evenly over procs >= minProcs processors and
// returns each processor's share.
func shard(total, procs, minProcs int, items string) (int, error) {
	if procs < minProcs || total%procs != 0 {
		return 0, fmt.Errorf("workload: %d %s do not shard over %d processors (need >= %d)", total, items, procs, minProcs)
	}
	return total / procs, nil
}

// chunks loads processor p's m-word chunk of each vector, one after the
// other from address 0.
func chunks(m int, vs ...[]isa.Word) func(p int) []segment {
	return func(p int) []segment {
		segs := make([]segment, len(vs))
		for i, v := range vs {
			segs[i] = segment{base: i * m, vals: v[p*m : (p+1)*m]}
		}
		return segs
	}
}

// runSPMD runs k on an IAP, IMP or ISP class. The class's Table I links
// decide the machine: a switched DP-DM means global addressing over all
// banks, a switched DP-DP gives the processors a network, and on an IMP
// a switched IP-IM shares one program image where a direct one needs a
// copy per core. The gathered output must equal what ref computes.
func runSPMD(c taxonomy.Class, k spmd, ref reference, opts []Option) (Result, error) {
	if c.Name.Machine != taxonomy.InstructionFlow || c.Name.Proc == taxonomy.UniProcessor {
		return Result{}, fmt.Errorf("workload: %s is not an array, multi- or spatial processor", c)
	}
	global, mem := 0, k.bankWords
	if c.Links[taxonomy.SiteDPDM].Switched() {
		if k.local {
			return Result{}, fmt.Errorf("workload: the %s program uses local addressing; %s has a DP-DM crossbar", k.name, c)
		}
		global, mem = k.bankWords, k.procs*k.bankWords
	}
	prog, err := k.program(global)
	if err != nil {
		return Result{}, err
	}
	ro := applyOpts(opts)
	if ro.record(ProgramSpec{Name: k.name, Program: prog, MemWords: mem, Procs: k.procs,
		HasNetwork: c.Links[taxonomy.SiteDPDP].Switched(), HasBarrier: true}) {
		return Result{}, nil
	}
	want, err := ro.reference(ref)
	if err != nil {
		return Result{}, err
	}
	mach, err := newBanked(c, k.procs, k.bankWords, prog, ro)
	if err != nil {
		return Result{}, err
	}
	defer mach.Release()
	for p := 0; p < k.procs; p++ {
		for _, s := range k.load(p) {
			if err := mach.LoadBank(p, s.base, s.vals); err != nil {
				return Result{}, err
			}
		}
	}
	stats, err := mach.Run()
	if err != nil {
		return Result{}, err
	}
	readers := k.procs
	if k.gather == gatherFirst {
		readers = 1
	}
	out := make([]isa.Word, 0, readers*k.outLen)
	for p := 0; p < readers; p++ {
		part, err := mach.ReadBank(p, k.outBase, k.outLen)
		if err != nil {
			return Result{}, err
		}
		out = append(out, part...)
	}
	if k.gather == gatherSum {
		out = []isa.Word{RefSum(out)}
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	return Result{Output: out, Stats: stats}, nil
}

// runUni runs prog on the uni-processor with memWords words of data
// memory: a and then b are copied in from address 0, and the outLen words
// at outBase must equal what ref computes.
func runUni(name string, prog isa.Program, memWords int, a, b []isa.Word, outBase, outLen int, ref reference, opts []Option) (Result, error) {
	ro := applyOpts(opts)
	if ro.record(ProgramSpec{Name: name, Program: prog, MemWords: memWords, Procs: 1}) {
		return Result{}, nil
	}
	want, err := ro.reference(ref)
	if err != nil {
		return Result{}, err
	}
	m, err := uniproc.New(uniproc.Config{MemWords: memWords, Tracer: ro.tracer, Interp: ro.interp}, prog)
	if err != nil {
		return Result{}, err
	}
	defer m.Release()
	if err := m.Memory().CopyIn(len(a), b); err != nil {
		return Result{}, fmt.Errorf("uniproc: %w", err)
	}
	out, stats, err := m.RunWithInput(a, outBase, outLen)
	if err != nil {
		return Result{}, err
	}
	if err := checkEqual(out, want); err != nil {
		return Result{}, err
	}
	return Result{Output: out, Stats: stats}, nil
}

// concat returns a followed by b in a new slice: two operand vectors laid
// out back to back from address 0.
func concat(a, b []isa.Word) []isa.Word {
	return append(append(make([]isa.Word, 0, len(a)+len(b)), a...), b...)
}

// newBanked builds c's simulator running prog on every processor: the IAP
// broadcasts it, the IMP loads it into one shared or per-core images, and
// the ISP composes one control group spanning every cell, whose leader
// streams the program to the others over the IP-IP switch.
func newBanked(c taxonomy.Class, procs, bankWords int, prog isa.Program, ro runOpts) (banked, error) {
	switch c.Name.Proc {
	case taxonomy.ArrayProcessor:
		return simd.New(simd.Config{Lanes: procs, BankWords: bankWords, Class: c,
			Tracer: ro.tracer, Interp: ro.interp}, prog)
	case taxonomy.MultiProcessor:
		images := []isa.Program{prog}
		if !c.Links[taxonomy.SiteIPIM].Switched() {
			images = make([]isa.Program, procs)
			for i := range images {
				images[i] = prog
			}
		}
		return mimd.New(mimd.Config{Cores: procs, BankWords: bankWords, Class: c,
			Tracer: ro.tracer, Interp: ro.interp}, images)
	default: // taxonomy.SpatialProcessor, the only other class runSPMD admits
		m, err := spatial.New(spatial.Config{Cores: procs, BankWords: bankWords, Class: c,
			Tracer: ro.tracer, Interp: ro.interp})
		if err != nil {
			return nil, err
		}
		members := make([]int, procs-1)
		for i := range members {
			members[i] = i + 1
		}
		if err := m.Compose(0, members, prog); err != nil {
			m.Release()
			return nil, err
		}
		return m, nil
	}
}
