package modelzoo

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/progcheck"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// CheckedProgram pairs one staged guest program with its checker report.
type CheckedProgram struct {
	// Name labels the program within the kernel run (a kernel may stage
	// several variants, e.g. local vs global addressing).
	Name string `json:"name"`
	// Program is the guest program the report is about: the memo's copy
	// of what the checker analysed, shared and read-only like Report.
	Program isa.Program `json:"-"`
	// Report is the static checker's verdict. Reports are memoized per
	// program and target and shared between callers: treat it as
	// read-only.
	Report *progcheck.Report `json:"report"`
}

// CheckKernel statically verifies every guest program the (class, kernel,
// n, procs) run would execute — without building or running a simulator.
// The machine shape (bank size, lane count, DP-DP network, barrier
// capability) comes from the same runner that would execute the program,
// so the checker sees exactly what the simulator would. Classes with no
// guest ISA program (data-flow token graphs, the LUT fabric) return an
// empty slice; unsupported (class, kernel) pairs return an error that
// Unsupported recognizes.
//
// Each distinct (program, target) pair is checked once per process: the
// reports come from a memo keyed by the program's content and the target,
// never by who asked, so the same program staged by another cell, request
// or peer fill costs a lookup. The checked programs of a (class, kernel,
// n, procs) are memoized too, so asking again (a served miss asks twice:
// when its request is decoded and when its result is loaded) runs no
// program sink; errors are not memoized. The returned slice is shared:
// treat it as read-only.
func CheckKernel(c taxonomy.Class, kernel string, n, procs int) ([]CheckedProgram, error) {
	return kernelMemo.Get(kernelKey{c, kernel, n, procs}, func() ([]CheckedProgram, error) {
		return checkKernel(c, kernel, n, procs)
	})
}

// kernelMemoSize bounds the memo of checked kernels: enough for the two
// asks of one served miss to meet, and for a served epoch's hot cells.
const kernelMemoSize = 512

// kernelMemo is the process-wide memo of CheckKernel's results.
var kernelMemo = memo.New[kernelKey, []CheckedProgram](kernelMemoSize)

// kernelKey identifies one CheckKernel call.
type kernelKey struct {
	class    taxonomy.Class
	kernel   string
	n, procs int
}

// checkKernel is CheckKernel without the kernel memo: it stages the run's
// programs through a program sink and checks each.
func checkKernel(c taxonomy.Class, kernel string, n, procs int) ([]CheckedProgram, error) {
	var specs []workload.ProgramSpec
	if _, err := RunKernel(c, kernel, n, procs, workload.WithProgramSink(&specs)); err != nil {
		return nil, err
	}
	out := make([]CheckedProgram, len(specs))
	for i, s := range specs {
		prog, rep := check(checkMemo, s.Program, progcheck.Target{
			MemWords:   s.MemWords,
			Procs:      s.Procs,
			HasNetwork: s.HasNetwork,
			HasBarrier: s.HasBarrier,
		})
		out[i] = CheckedProgram{Name: s.Name, Program: prog, Report: rep}
	}
	return out, nil
}

// checkMemoSize bounds the check memo. One pass over every servable cell
// at the served shapes stages a few hundred distinct (program, target)
// pairs, and an entry costs about a kilobyte.
const checkMemoSize = 1024

// checkMemo is the process-wide memo of progcheck reports.
var checkMemo = memo.New[checkKey, checked](checkMemoSize)

// checkKey identifies one check: the program's instructions
// (isa.Program.Key) and the target it was checked against.
type checkKey struct {
	prog   string
	target progcheck.Target
}

// checked is one checked program and its report.
type checked struct {
	prog   isa.Program
	report *progcheck.Report
}

// check returns the program m checked under key (p, t) and its report,
// running progcheck.Check on a miss; the memo keeps its own copy of p.
func check(m *memo.Memo[checkKey, checked], p isa.Program, t progcheck.Target) (isa.Program, *progcheck.Report) {
	e, _ := m.Get(checkKey{prog: p.Key(), target: t}, func() (checked, error) { // a check cannot fail
		return checked{prog: slices.Clone(p), report: progcheck.Check(p, t)}, nil
	})
	return e.prog, e.report
}

// VerifyChecked checks the check memo's read-only contract: every entry's
// program must still encode to its key. A caller that writes through a
// CheckedProgram's Program breaks it; VerifyChecked reports the first such
// entry.
func VerifyChecked() error {
	var err error
	checkMemo.Each(func(k checkKey, e checked) bool {
		if e.prog.Key() != k.prog {
			err = fmt.Errorf("modelzoo: a checked program of %d instructions no longer encodes to its key", len(e.prog))
		}
		return err == nil
	})
	return err
}
