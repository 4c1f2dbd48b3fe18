package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/uniproc"
)

// This file is the executor half of the differential harness: the same
// generated program, on the same machine shape, executed by the compiled
// code and by the machine.StepOps reference (Config.Interp), untraced and
// traced, must produce identical final memories, an identical Stats struct
// (cycle counts included) and an identical obs event stream; a run that
// fails must fail with the same error text, Stats and per-core CoreStats.
// Each seed also runs the IMP-I shape into a failure twice, out of cycle
// budget partway and out of bank with a different image per core, so the
// sweep pins the failing slot of cores that ran ahead. Where the
// lockstep sweep pins the taxonomy property (different organisations, same
// results), this sweep pins the implementation property the compiled
// code's fusion and vector paths must preserve: the executor is a host
// dispatch choice, not an architecture.

// BackendResult reports one generated program's cross-backend run.
type BackendResult struct {
	Seed int64  `json:"seed"`
	Pass bool   `json:"pass"`
	Err  string `json:"error,omitempty"`
	// Program holds the disassembly of the offending program on failure,
	// for reproduction.
	Program string `json:"program,omitempty"`
}

// backendOutcome is one (shape, backend, traced?) execution, flattened for
// comparison. err is the run's error text, empty for a run that finished.
type backendOutcome struct {
	mems   [][]isa.Word
	stats  machine.Stats
	cores  []mimd.CoreStats
	events []obs.Event
	err    string
}

// diffOutcome compares a run against the interp reference for the same
// shape and tracing mode. The banks of a failed run are not compared: a
// multi-processor core that ran ahead of the failing slot has already
// written its own bank further.
func diffOutcome(who string, got, want backendOutcome) error {
	if got.err != want.err {
		return fmt.Errorf("conformance: %s error %q, interp says %q", who, got.err, want.err)
	}
	if want.err == "" {
		for i := range want.mems {
			if err := diffMemory(fmt.Sprintf("%s bank %d", who, i), got.mems[i], want.mems[i]); err != nil {
				return err
			}
		}
	}
	if got.stats != want.stats {
		return fmt.Errorf("conformance: %s stats %+v, interp says %+v", who, got.stats, want.stats)
	}
	if !slices.Equal(got.cores, want.cores) {
		return fmt.Errorf("conformance: %s core stats %+v, interp says %+v", who, got.cores, want.cores)
	}
	if len(got.events) != len(want.events) {
		return fmt.Errorf("conformance: %s emitted %d events, interp emitted %d", who, len(got.events), len(want.events))
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			return fmt.Errorf("conformance: %s event %d = %+v, interp says %+v", who, i, got.events[i], want.events[i])
		}
	}
	return nil
}

// BackendCheck generates the program for one seed and runs it on the three
// machine shapes, and twice more into a failure on IMP-I, with both
// executors, untraced and traced. Within each (shape, tracing) cell the
// compiled code must match the interp reference exactly: error text,
// memories of a finished run, the full Stats struct, the IMP's CoreStats
// and the traced event stream.
func BackendCheck(seed int64) BackendResult {
	return backendCheck(seed, DefaultGenConfig())
}

func backendCheck(seed int64, cfg GenConfig) BackendResult {
	r := BackendResult{Seed: seed}
	fail := func(err error, prog isa.Program) BackendResult {
		r.Err = err.Error()
		if prog != nil {
			r.Program = isa.Disassemble(prog)
		}
		return r
	}
	rng := rand.New(rand.NewSource(seed))
	prog, err := RandomProgram(rng, cfg)
	if err != nil {
		return fail(err, nil)
	}
	img := randomImage(rng, cfg)
	bank := cfg.MemWords()

	type shape struct {
		name string
		run  func(bool, obs.Tracer) (backendOutcome, error)
	}
	imp := func(banks [][]isa.Word, bankWords int, budget int64) func(bool, obs.Tracer) (backendOutcome, error) {
		return func(interp bool, tr obs.Tracer) (backendOutcome, error) {
			return runMIMDBackend(prog, banks, bankWords, budget, interp, tr)
		}
	}
	same := [][]isa.Word{img, img}
	shapes := []shape{
		{"IUP", func(interp bool, tr obs.Tracer) (backendOutcome, error) {
			return runUniBackend(prog, img, bank, interp, tr)
		}},
		{"IAP-I", func(interp bool, tr obs.Tracer) (backendOutcome, error) {
			return runSIMDBackend(prog, img, bank, interp, tr)
		}},
		{"IMP-I", imp(same, bank, 0)},
	}
	var impCycles int64
	for _, sh := range shapes {
		ref, err := checkShape(sh.name, sh.run)
		if err != nil {
			return fail(err, prog)
		}
		impCycles = ref.stats.Cycles // IMP-I runs last
	}

	// The failing runs: IMP-I out of budget at a random cycle of the run,
	// and IMP-I on banks too small for the register dump (so every run
	// faults) with a second, different image on core 1, so the cores
	// reach their faults at different cycles.
	short := 1 + rng.Intn(bank-1)
	other := randomImage(rng, cfg)
	budget := 1 + rng.Int63n(max(impCycles, 1))
	failing := []shape{
		{fmt.Sprintf("IMP-I budget=%d", budget), imp(same, bank, budget)},
		{fmt.Sprintf("IMP-I bank=%d", short), imp([][]isa.Word{img[:min(short, len(img))], other[:min(short, len(other))]}, short, 0)},
	}
	for _, sh := range failing {
		if _, err := checkShape(sh.name, sh.run); err != nil {
			return fail(err, prog)
		}
	}
	r.Pass = true
	return r
}

// checkShape runs one shape with both executors, untraced and traced, and
// diffs each compiled run against the interp run of the same tracing mode.
// It returns the untraced interp run.
func checkShape(name string, run func(bool, obs.Tracer) (backendOutcome, error)) (backendOutcome, error) {
	var untraced backendOutcome
	for _, traced := range []bool{false, true} {
		var ref backendOutcome
		for i, interp := range []bool{true, false} {
			executor := "compiled"
			if interp {
				executor = "interp"
			}
			var tr *obs.Trace
			var tracer obs.Tracer
			if traced {
				tr = obs.AcquireTrace()
				tracer = tr
			}
			out, err := run(interp, tracer)
			if tr != nil {
				out.events = tr.Events()
				obs.ReleaseTrace(tr)
			}
			if err != nil {
				return backendOutcome{}, fmt.Errorf("%s/%s: %w", name, executor, err)
			}
			if i == 0 {
				ref = out
				if !traced {
					untraced = out
				}
				continue
			}
			who := fmt.Sprintf("%s/%s", name, executor)
			if traced {
				who += " (traced)"
			}
			if err := diffOutcome(who, out, ref); err != nil {
				return backendOutcome{}, err
			}
		}
	}
	return untraced, nil
}

func runUniBackend(prog isa.Program, img []isa.Word, bank int, interp bool, tr obs.Tracer) (backendOutcome, error) {
	uni, err := uniproc.New(uniproc.Config{MemWords: bank, Interp: interp, Tracer: tr}, prog)
	if err != nil {
		return backendOutcome{}, err
	}
	defer uni.Release()
	mem, stats, err := uni.RunWithInput(img, 0, bank)
	if err != nil {
		return backendOutcome{stats: stats, err: err.Error()}, nil
	}
	return backendOutcome{mems: [][]isa.Word{mem}, stats: stats}, nil
}

func runSIMDBackend(prog isa.Program, img []isa.Word, bank int, interp bool, tr obs.Tracer) (backendOutcome, error) {
	arr, err := simd.New(simd.Config{Lanes: lockstepProcs, BankWords: bank, Class: lockstepIAP,
		Tracer: tr, Interp: interp}, prog)
	if err != nil {
		return backendOutcome{}, err
	}
	defer arr.Release()
	for lane := 0; lane < lockstepProcs; lane++ {
		if err := arr.LoadBank(lane, 0, img); err != nil {
			return backendOutcome{}, err
		}
	}
	stats, err := arr.Run()
	out := backendOutcome{stats: stats}
	if err != nil {
		out.err = err.Error()
		return out, nil
	}
	for lane := 0; lane < lockstepProcs; lane++ {
		mem, err := arr.ReadBank(lane, 0, bank)
		if err != nil {
			return backendOutcome{}, err
		}
		out.mems = append(out.mems, mem)
	}
	return out, nil
}

// runMIMDBackend runs prog on a lockstepProcs-core IMP-I with bankWords-word
// banks, core i's loaded with banks[i], under a cycle budget (0 for the
// default).
func runMIMDBackend(prog isa.Program, banks [][]isa.Word, bankWords int, budget int64, interp bool, tr obs.Tracer) (backendOutcome, error) {
	images := make([]isa.Program, lockstepProcs)
	for i := range images {
		images[i] = prog
	}
	mp, err := mimd.New(mimd.Config{Cores: lockstepProcs, BankWords: bankWords, Class: lockstepIMP,
		MaxCycles: budget, Tracer: tr, Interp: interp}, images)
	if err != nil {
		return backendOutcome{}, err
	}
	defer mp.Release()
	for core := 0; core < lockstepProcs; core++ {
		if err := mp.LoadBank(core, 0, banks[core]); err != nil {
			return backendOutcome{}, err
		}
	}
	stats, err := mp.Run()
	out := backendOutcome{stats: stats, cores: mp.CoreStats()}
	if err != nil {
		out.err = err.Error()
		return out, nil
	}
	for core := 0; core < lockstepProcs; core++ {
		mem, err := mp.ReadBank(core, 0, bankWords)
		if err != nil {
			return backendOutcome{}, err
		}
		out.mems = append(out.mems, mem)
	}
	return out, nil
}

// BackendSweep runs count seeds starting at baseSeed through BackendCheck
// and reports each result plus whether both executors matched everywhere.
func BackendSweep(baseSeed int64, count int) ([]BackendResult, bool) {
	return BackendSweepParallel(context.Background(), baseSeed, count, 1)
}

// BackendSweepParallel is BackendSweep across the given number of workers
// (<= 0 means GOMAXPROCS); results land in seed order whatever the worker
// count.
func BackendSweepParallel(ctx context.Context, baseSeed int64, count, workers int) ([]BackendResult, bool) {
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = baseSeed + int64(i)
	}
	batch := exec.Map(ctx, workers, seeds, func(ctx context.Context, seed int64) (BackendResult, error) {
		return BackendCheck(seed), nil
	})
	results := make([]BackendResult, count)
	allPass := true
	for i, r := range batch {
		if r.Err != nil {
			results[i] = BackendResult{Seed: seeds[i], Err: r.Err.Error()}
		} else {
			results[i] = r.Value
		}
		allPass = allPass && results[i].Pass
	}
	return results, allPass
}
