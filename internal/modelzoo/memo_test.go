package modelzoo

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/progcheck"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// servableCells lists every (class, kernel) pair a runner exists for: the
// cells /v1/simulate checks and runs.
func servableCells(t *testing.T) []struct {
	class  taxonomy.Class
	kernel string
} {
	t.Helper()
	var cells []struct {
		class  taxonomy.Class
		kernel string
	}
	for _, c := range taxonomy.Table() {
		for _, k := range Kernels() {
			if _, err := CheckKernel(c, k, 16, 4); Unsupported(err) {
				continue
			}
			cells = append(cells, struct {
				class  taxonomy.Class
				kernel string
			}{c, k})
		}
	}
	if len(cells) == 0 {
		t.Fatal("no servable cells")
	}
	return cells
}

// specTarget is the checker target CheckKernel derives from a staged spec.
func specTarget(s workload.ProgramSpec) progcheck.Target {
	return progcheck.Target{MemWords: s.MemWords, Procs: s.Procs, HasNetwork: s.HasNetwork, HasBarrier: s.HasBarrier}
}

// TestCheckedIsWhatRuns pins that the memo never hands one program's
// report to another: for every servable cell at n in {16, 64} and procs in
// {4, 8}, the programs CheckKernel reported on are content-equal, in order
// and by name, to those the run stages, as its program sink captures them,
// and every memoized report equals a fresh progcheck.Check of that program
// against that target. It also pins that what runs is what was checked:
// once the checked programs are staged, the run that follows stages
// nothing afresh, so every simulator executes the compile memo's entry of
// a checked program (the memo is keyed by content); and the WithInterp
// reference run takes no memo entry at all.
func TestCheckedIsWhatRuns(t *testing.T) {
	programs := 0
	for _, cell := range servableCells(t) {
		for _, n := range []int{16, 64} {
			for _, procs := range []int{4, 8} {
				label := fmt.Sprintf("%s/%s n=%d procs=%d", cell.class, cell.kernel, n, procs)
				checked, cerr := CheckKernel(cell.class, cell.kernel, n, procs)
				var specs []workload.ProgramSpec
				_, rerr := RunKernel(cell.class, cell.kernel, n, procs, workload.WithProgramSink(&specs))
				if (cerr == nil) != (rerr == nil) {
					t.Errorf("%s: CheckKernel error %v, staging error %v", label, cerr, rerr)
					continue
				}
				if cerr != nil {
					continue
				}
				if len(checked) != len(specs) {
					t.Errorf("%s: checked %d programs, the run stages %d", label, len(checked), len(specs))
					continue
				}
				for i, s := range specs {
					programs++
					p := checked[i]
					if p.Name != s.Name || !slices.Equal(p.Program, s.Program) {
						t.Errorf("%s: checked program %d (%s) is not the staged %s", label, i, p.Name, s.Name)
					}
					if fresh := progcheck.Check(s.Program, specTarget(s)); !reflect.DeepEqual(p.Report, fresh) {
						t.Errorf("%s/%s: memoized report differs from a fresh check:\n%s\nfresh:\n%s", label, s.Name, p.Report.Text(), fresh.Text())
					}
					if _, err := machine.Stage(p.Program, machine.CompileOptions{}); err != nil {
						t.Errorf("%s/%s: staging the checked program: %v", label, p.Name, err)
					}
				}
				before := machine.StagedStats()
				_, runErr := RunKernel(cell.class, cell.kernel, n, procs)
				ran := machine.StagedStats()
				if ran.Misses != before.Misses || runErr == nil && len(specs) > 0 && ran.Hits == before.Hits {
					t.Errorf("%s: the run staged %d programs afresh and took %d staged ones; want 0 and the checked ones",
						label, ran.Misses-before.Misses, ran.Hits-before.Hits)
				}
				_, _ = RunKernel(cell.class, cell.kernel, n, procs, workload.WithInterp())
				if ref := machine.StagedStats(); ref.Hits != ran.Hits || ref.Misses != ran.Misses {
					t.Errorf("%s: the WithInterp run looked up the compile memo", label)
				}
			}
		}
	}
	if programs == 0 {
		t.Fatal("no programs checked: the sweep is vacuous")
	}
	t.Logf("%d staged programs, %d distinct (program, target) pairs memoized", programs, checkMemo.Len())
	if n := checkMemo.Len(); n > checkMemoSize {
		t.Errorf("memo holds %d entries, bound %d", n, checkMemoSize)
	}
}

// memoProgram is a small distinct program per i.
func memoProgram(i int) isa.Program {
	return isa.Program{
		{Op: isa.OpAddi, Rd: 1, Imm: int32(i)},
		{Op: isa.OpHalt},
	}
}

// TestCheckMemoKeysByTarget: the same program under two targets is two
// entries with their own reports, and a repeat is a hit.
func TestCheckMemoKeysByTarget(t *testing.T) {
	m := memo.New[checkKey, checked](8)
	p := memoProgram(1)
	small := progcheck.Target{MemWords: 16, Procs: 4, HasNetwork: true}
	large := progcheck.Target{MemWords: 64, Procs: 4, HasNetwork: true}
	_, r1 := check(m, p, small)
	_, r2 := check(m, p, large)
	if m.Len() != 2 || r1 == r2 {
		t.Fatalf("two targets: %d entries, shared report %v; want 2 entries, distinct reports", m.Len(), r1 == r2)
	}
	if _, again := check(m, slices.Clone(p), small); again != r1 || m.Len() != 2 {
		t.Errorf("repeated check missed the memo (%d entries)", m.Len())
	}
	if _, other := check(m, memoProgram(2), small); other == r1 || m.Len() != 3 {
		t.Errorf("a different program hit another's entry (%d entries)", m.Len())
	}
}

// TestCheckMemoEviction: the memo never holds more than its bound, and it
// evicts the least recently used entry.
func TestCheckMemoEviction(t *testing.T) {
	const bound = 4
	m := memo.New[checkKey, checked](bound)
	tgt := progcheck.Target{MemWords: 16}
	reports := make([]*progcheck.Report, 10)
	for i := range reports {
		_, reports[i] = check(m, memoProgram(i), tgt)
		if m.Len() > bound {
			t.Fatalf("after %d checks the memo holds %d entries, bound %d", i+1, m.Len(), bound)
		}
	}
	if m.Len() != bound {
		t.Errorf("memo holds %d entries, want %d", m.Len(), bound)
	}
	if _, r := check(m, memoProgram(9), tgt); r != reports[9] {
		t.Error("the most recent entry was evicted")
	}
	if _, r := check(m, memoProgram(0), tgt); r == reports[0] {
		t.Error("the oldest entry survived past the bound")
	}
	if m.Len() != bound {
		t.Errorf("memo holds %d entries after a refill, want %d", m.Len(), bound)
	}
}

// TestCheckKernelConcurrent hammers CheckKernel from several goroutines on
// overlapping cells, the way concurrent requests and peer fills reach it,
// through a memo small enough that they miss, insert and evict
// concurrently; under -race this is the memo's safety test. Every result
// equals the serial one.
func TestCheckKernelConcurrent(t *testing.T) {
	cells := servableCells(t)
	cells = cells[:min(len(cells), 24)]
	want := make([][]CheckedProgram, len(cells))
	for i, c := range cells {
		want[i], _ = CheckKernel(c.class, c.kernel, 64, 4)
	}
	saved := checkMemo
	checkMemo = memo.New[checkKey, checked](8)
	defer func() { checkMemo = saved }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(cells); k++ {
				i := (g*7 + k) % len(cells)
				got, _ := CheckKernel(cells[i].class, cells[i].kernel, 64, 4)
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s/%s: concurrent result differs from the serial one", cells[i].class, cells[i].kernel)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := checkMemo.Len(); n > 8 {
		t.Errorf("memo holds %d entries, bound 8", n)
	}
}

// TestCheckKernelMemo: a second CheckKernel of one (class, kernel, n,
// procs) is a kernel-memo hit that shares the first call's checked
// programs and runs no program sink (the check memo sees no lookup), and
// an error is not memoized.
func TestCheckKernelMemo(t *testing.T) {
	c, err := taxonomy.LookupString("IMP-III")
	if err != nil {
		t.Fatal(err)
	}
	first, err := CheckKernel(c, "matmul", 48, 4)
	if err != nil || len(first) == 0 {
		t.Fatalf("CheckKernel: %v, %d programs", err, len(first))
	}
	hits, misses := kernelMemo.Lookups()
	checkHits, checkMisses := checkMemo.Lookups()
	again, err := CheckKernel(c, "matmul", 48, 4)
	if err != nil || &again[0] != &first[0] {
		t.Fatalf("second CheckKernel: %v, shares the first's programs: %v", err, err == nil && &again[0] == &first[0])
	}
	if h, m := kernelMemo.Lookups(); h != hits+1 || m != misses {
		t.Errorf("second CheckKernel: kernel memo hits %d -> %d, misses %d -> %d; want one hit", hits, h, misses, m)
	}
	if h, m := checkMemo.Lookups(); h != checkHits || m != checkMisses {
		t.Errorf("second CheckKernel looked up the check memo (hits %d -> %d, misses %d -> %d)", checkHits, h, checkMisses, m)
	}
	size := kernelMemo.Len()
	for range 2 {
		if _, err := CheckKernel(c, "matmul", 47, 4); err == nil {
			t.Fatal("CheckKernel of a shape that does not shard: no error")
		}
	}
	if kernelMemo.Len() != size {
		t.Errorf("a failed CheckKernel was memoized (%d entries, was %d)", kernelMemo.Len(), size)
	}
}
