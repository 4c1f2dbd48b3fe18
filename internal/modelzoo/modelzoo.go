// Package modelzoo turns Table III survey entries into runnable machine
// instances: it classifies an architecture description, picks the simulator
// for its class (internal/simd for the IAP rows, internal/mimd for IMP,
// internal/dataflow for DMP, internal/uniproc for IUP, internal/fabric for
// USP) and sizes it from the printed block counts. A MorphoSys entry
// becomes a 64-lane IAP-II machine, the quad Cortex-A9 a 4-core IMP-I,
// REDEFINE a 64-PE DMP-IV — so the survey is not just classified but
// executed, and the classes' operational differences show up on the same
// kernel.
//
// ISP rows (DRRA, Matrix) are instantiated through internal/spatial with
// singleton groups by default; USP rows get the LUT fabric running the
// adder overlay. The zoo runs one canonical kernel — element-wise vector
// add — because every class can express it; classes differ in how.
package modelzoo

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/spatial"
	"repro/internal/spec"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// Instance describes one instantiated survey machine.
type Instance struct {
	// Name is the architecture's survey name.
	Name string
	// Class is the taxonomy class the description resolved to.
	Class taxonomy.Class
	// Processors is the concrete parallel width used (lanes, cores or PEs;
	// 1 for uni-processors, cells for the fabric).
	Processors int
}

// Result is one zoo run.
type Result struct {
	Instance Instance
	// Stats is the kernel run's statistics.
	Stats machine.Stats
}

// DefaultWidth is the parallel width used when a survey row is symbolic
// (n, m, v) or too large to instantiate directly.
const DefaultWidth = 8

// MaxWidth caps instantiated parallel widths so 64-lane survey rows stay
// fast to simulate; the printed count is clamped, not rejected.
const MaxWidth = 64

// resolveWidth picks the instantiated processor count for a survey row.
func resolveWidth(r spec.Resolved) int {
	w := r.ConcreteDPs
	if w == 0 {
		w = DefaultWidth
	}
	if w > MaxWidth {
		w = MaxWidth
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunVecAdd instantiates the architecture and runs the canonical vector-add
// kernel over n elements (n must shard evenly over the instantiated width;
// widths are powers of two or small counts in the survey, so multiples of
// 64·MaxWidth always work — 1024 is a safe default).
func RunVecAdd(arch spec.Architecture, n int) (Result, error) {
	r, err := spec.Resolve(arch)
	if err != nil {
		return Result{}, err
	}
	class, err := taxonomy.Classify(r.IPs, r.DPs, r.Links)
	if err != nil {
		return Result{}, fmt.Errorf("modelzoo: %s: %w", arch.Name, err)
	}
	width := resolveWidth(r)
	inst := Instance{Name: arch.Name, Class: class, Processors: width}

	// Shard sizes must divide evenly; survey widths (2, 4, 5, 6, 8, 16,
	// 48, 64) do not share a convenient lcm, so round n down to the
	// nearest multiple of the width instead of rejecting.
	if n < width {
		n = width
	}
	n -= n % width

	a, b := seq(n, 31, 1), seq(n, 29, 3)

	var res workload.Result
	switch {
	case class.Name.Machine == taxonomy.UniversalFlow:
		inst.Processors = 1
		res, err = workload.VecAddFabric(16, a, b)
	case class.Name.Machine == taxonomy.DataFlow:
		if class.Name.Proc == taxonomy.UniProcessor {
			inst.Processors = 1
			res, err = workload.VecAddDataflow(1, 1, a, b)
		} else {
			res, err = workload.VecAddDataflow(class.Name.Sub, width, a, b)
		}
	case class.Name.Proc == taxonomy.UniProcessor:
		inst.Processors = 1
		res, err = workload.VecAddUni(a, b)
	case class.Name.Proc == taxonomy.ArrayProcessor:
		res, err = workload.VecAddSIMD(class.Name.Sub, width, a, b)
	case class.Name.Proc == taxonomy.MultiProcessor:
		res, err = workload.VecAddMIMD(class.Name.Sub, width, a, b)
	case class.Name.Proc == taxonomy.SpatialProcessor:
		res.Stats, err = runSpatialVecAdd(width, n, a, b)
	default:
		return Result{}, fmt.Errorf("modelzoo: %s: no runner for class %s", arch.Name, class)
	}
	if err != nil {
		return Result{}, fmt.Errorf("modelzoo: %s (%s): %w", arch.Name, class, err)
	}
	return Result{Instance: inst, Stats: res.Stats}, nil
}

// runSpatialVecAdd executes the vector add on an ISP fabric configured as
// singleton control groups (its multi-processor morph), using lane-local
// addressing.
func runSpatialVecAdd(cells, n int, a, b []isa.Word) (machine.Stats, error) {
	if cells < 2 {
		cells = 2
	}
	if n%cells != 0 {
		return machine.Stats{}, fmt.Errorf("%d elements do not shard over %d cells", n, cells)
	}
	m := n / cells
	prog, err := workload.VecAddProgram(m)
	if err != nil {
		return machine.Stats{}, err
	}
	// Sub-type II keeps DP-DM direct so each cell sees its own bank.
	sm, err := spatial.New(spatial.Config{Cores: cells, BankWords: 3*m + 16, Sub: 2})
	if err != nil {
		return machine.Stats{}, err
	}
	defer sm.Release()
	for c := 0; c < cells; c++ {
		if err := sm.Compose(c, nil, prog); err != nil {
			return machine.Stats{}, err
		}
		chunk := append(append([]isa.Word{}, a[c*m:(c+1)*m]...), b[c*m:(c+1)*m]...)
		if err := sm.LoadBank(c, 0, chunk); err != nil {
			return machine.Stats{}, err
		}
	}
	stats, err := sm.Run()
	if err != nil {
		return machine.Stats{}, err
	}
	// Validate the result like the workload runners do.
	for c := 0; c < cells; c++ {
		out, err := sm.ReadBank(c, 2*m, m)
		if err != nil {
			return machine.Stats{}, err
		}
		for i, v := range out {
			want := a[c*m+i] + b[c*m+i]
			if v != want {
				return machine.Stats{}, fmt.Errorf("cell %d element %d = %d, want %d", c, i, v, want)
			}
		}
	}
	return stats, nil
}

// RunSurvey runs the canonical kernel on every instantiable survey entry
// and returns the results in row order. Entries whose class genuinely
// cannot run the kernel (none in the current survey) would report an error.
func RunSurvey(entries []spec.Architecture, n int) ([]Result, error) {
	return RunSurveyParallel(context.Background(), entries, n, 1)
}

// RunSurveyParallel is RunSurvey across the given number of workers (<= 0
// means GOMAXPROCS). Each survey row is an independent simulation, so the
// batch engine preserves row order exactly; workers == 1 reproduces the
// serial RunSurvey byte for byte.
func RunSurveyParallel(ctx context.Context, entries []spec.Architecture, n, workers int) ([]Result, error) {
	results := exec.Map(ctx, workers, entries, func(ctx context.Context, arch spec.Architecture) (Result, error) {
		return RunVecAdd(arch, n)
	})
	return exec.Values(results)
}
