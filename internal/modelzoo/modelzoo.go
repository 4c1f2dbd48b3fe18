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
// Every row runs the kernel table's vecadd (kernels.go), so a survey row
// costs exactly what cmd/simulate and /v1/simulate report for its class at
// the same width. ISP rows (DRRA, Matrix) compose one control group
// spanning every cell — the spatial machine morphed into an array
// processor, streaming the loop over the IP-IP switch; USP rows get the
// LUT fabric running the adder overlay. The zoo runs one canonical kernel
// — element-wise vector add — because every class can express it; classes
// differ in how.
package modelzoo

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/taxonomy"
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

// RunVecAdd instantiates the architecture and runs the kernel table's
// vecadd over n elements at the instantiated width: the program
// RunKernel(class, "vecadd", n, width) runs for cmd/simulate and
// /v1/simulate. Survey widths (2, 4, 5, 6, 8, 16, 48, 64) do not share a
// convenient lcm, so n is rounded down to a multiple of the width (and up
// to one element per processor) instead of rejected.
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
	switch {
	case class.Name.Proc == taxonomy.UniProcessor || class.Name.Machine == taxonomy.UniversalFlow:
		width = 1
	case class.Name.Proc == taxonomy.SpatialProcessor:
		width = max(width, 2) // a spatial processor has n >= 2 cells
	}
	n = max(n, width)
	n -= n % width
	res, err := RunKernel(class, "vecadd", n, width)
	if err != nil {
		return Result{}, fmt.Errorf("modelzoo: %s (%s): %w", arch.Name, class, err)
	}
	return Result{Instance: Instance{Name: arch.Name, Class: class, Processors: width}, Stats: res.Stats}, nil
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
