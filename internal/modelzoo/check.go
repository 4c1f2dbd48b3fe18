package modelzoo

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/isa"
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
// or peer fill costs a lookup.
func CheckKernel(c taxonomy.Class, kernel string, n, procs int) ([]CheckedProgram, error) {
	var specs []workload.ProgramSpec
	if _, err := RunKernel(c, kernel, n, procs, workload.WithProgramSink(&specs)); err != nil {
		return nil, err
	}
	out := make([]CheckedProgram, len(specs))
	for i, s := range specs {
		prog, rep := checkMemo.check(s.Program, progcheck.Target{
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
var checkMemo = newReportMemo(checkMemoSize)

// memoKey identifies one check: the program's instructions, eight bytes
// each, and the target it was checked against.
type memoKey struct {
	prog   string
	target progcheck.Target
}

// programKey encodes a program's content exactly, so two programs share a
// key only when they are the same instructions.
func programKey(p isa.Program) string {
	b := make([]byte, 0, 8*len(p))
	for _, ins := range p {
		imm := uint32(ins.Imm)
		b = append(b, byte(ins.Op), ins.Rd, ins.Ra, ins.Rb,
			byte(imm), byte(imm>>8), byte(imm>>16), byte(imm>>24))
	}
	return string(b)
}

// memoEntry is one checked program and its report.
type memoEntry struct {
	key    memoKey
	prog   isa.Program
	report *progcheck.Report
}

// reportMemo is a bounded LRU of progcheck reports.
type reportMemo struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[memoKey]*list.Element
}

func newReportMemo(max int) *reportMemo {
	return &reportMemo{max: max, ll: list.New(), items: map[memoKey]*list.Element{}}
}

// check returns the program the memo checked under key (p, t) and its
// report, running progcheck.Check on a miss. The lock is not held while
// checking, so two callers missing on the same key may both check it; the
// reports are equal and the first stored stays.
func (m *reportMemo) check(p isa.Program, t progcheck.Target) (isa.Program, *progcheck.Report) {
	key := memoKey{prog: programKey(p), target: t}
	m.mu.Lock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		e := el.Value.(*memoEntry)
		m.mu.Unlock()
		return e.prog, e.report
	}
	m.mu.Unlock()

	e := &memoEntry{key: key, prog: slices.Clone(p), report: progcheck.Check(p, t)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		e = el.Value.(*memoEntry)
		return e.prog, e.report
	}
	m.items[key] = m.ll.PushFront(e)
	for m.ll.Len() > m.max {
		last := m.ll.Back()
		m.ll.Remove(last)
		delete(m.items, last.Value.(*memoEntry).key)
	}
	return e.prog, e.report
}

// entries reports the number of memoized checks.
func (m *reportMemo) entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}
