package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/taxonomy"
	"repro/internal/uniproc"
)

// crossbarIMP is the executor sweep's DP-DM crossbar multi-processor: one
// address space over both cores' banks, so the generated program's loads
// and stores from both cores reach bank 0 through the crossbar.
var crossbarIMP = mustClass("IMP-III")

// This file is the executor half of the differential harness: the same
// generated program, on the same machine shape, executed by the compiled
// code and by the machine.StepOps reference (Config.Interp), untraced,
// traced into an obs.Tally and traced into an obs.Trace, must produce
// identical final memories, an identical Stats struct (cycle counts
// included), an identical Tally count and totals and an identical obs
// event stream; a run that fails must fail with the same error text,
// Stats and per-core CoreStats. The IMP runs on a direct DP-DM (IMP-I),
// where cores run ahead through whole blocks, and on a DP-DM crossbar
// (IMP-III), where the cores run through their loads and stores in
// optimistic windows and both cores' accesses meet in one bank; there the
// compiled runs, untraced and into a Tally, go again with every window
// rolled back (mimd.Machine.RollBackWindows), so both the commit and the
// rollback path are pinned. Each seed also runs both IMP shapes
// into a failure twice, out of cycle budget partway and out of bank with
// a different image per core, so the sweep pins the failing slot of cores
// that ran ahead, and what a Tally folded for them. Where the
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
	// count and totals are what a run traced into an obs.Tally folded.
	count  int
	totals obs.Totals
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
			if err := diffMemory(fmt.Sprintf("%s bank %d", who, i), "interp", got.mems[i], want.mems[i]); err != nil {
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
	if got.count != want.count || got.totals != want.totals {
		return fmt.Errorf("conformance: %s tallied %d events, %+v; interp tallied %d, %+v",
			who, got.count, got.totals, want.count, want.totals)
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

// BackendCheck generates the program for one seed and runs it on the four
// machine shapes, and twice more into a failure on each IMP, with both
// executors, untraced, traced into a Tally and traced into a Trace, and
// the compiled code untraced and into a Tally with every optimistic
// window rolled back (the rollback mode; only the crossbar IMP opens
// windows). Within
// each (shape, tracing) cell the compiled code must match the interp
// reference exactly: error text, memories of a finished run, the full
// Stats struct, the IMP's CoreStats, the Tally's count and totals and the
// traced event stream.
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
		run  runner
	}
	imp := func(c taxonomy.Class, banks [][]isa.Word, bankWords int, budget int64) runner {
		return func(interp, rollback bool, tr obs.Tracer) (backendOutcome, error) {
			return runMIMDBackend(prog, c, banks, bankWords, budget, interp, rollback, tr)
		}
	}
	same := [][]isa.Word{img, img}
	shapes := []shape{
		{"IUP", func(interp, _ bool, tr obs.Tracer) (backendOutcome, error) {
			return runUniBackend(prog, img, bank, interp, tr)
		}},
		{"IAP-I", func(interp, _ bool, tr obs.Tracer) (backendOutcome, error) {
			return runSIMDBackend(prog, img, bank, interp, tr)
		}},
		{"IMP-I", imp(lockstepIMP, same, bank, 0)},
		{"IMP-III", imp(crossbarIMP, same, bank, 0)},
	}
	cycles := map[string]int64{}
	for _, sh := range shapes {
		ref, err := checkShape(sh.name, sh.run)
		if err != nil {
			return fail(err, prog)
		}
		cycles[sh.name] = ref.stats.Cycles
	}

	// The failing runs: each IMP out of budget at a random cycle of its
	// run, and on banks too small for the register dump (so every run
	// faults) with a second, different image on core 1, so the cores
	// reach their faults at different cycles. The crossbar's banks form
	// one address space, so its short banks are half as long.
	short := 1 + rng.Intn(bank-1)
	other := randomImage(rng, cfg)
	budget := 1 + rng.Int63n(max(cycles["IMP-I"], 1))
	xshort := max(short/2, 1)
	xbudget := 1 + rng.Int63n(max(cycles["IMP-III"], 1))
	shortBanks := func(words int) [][]isa.Word {
		return [][]isa.Word{img[:min(words, len(img))], other[:min(words, len(other))]}
	}
	failing := []shape{
		{fmt.Sprintf("IMP-I budget=%d", budget), imp(lockstepIMP, same, bank, budget)},
		{fmt.Sprintf("IMP-I bank=%d", short), imp(lockstepIMP, shortBanks(short), short, 0)},
		{fmt.Sprintf("IMP-III budget=%d", xbudget), imp(crossbarIMP, same, bank, xbudget)},
		{fmt.Sprintf("IMP-III bank=%d", xshort), imp(crossbarIMP, shortBanks(xshort), xshort, 0)},
	}
	for _, sh := range failing {
		if _, err := checkShape(sh.name, sh.run); err != nil {
			return fail(err, prog)
		}
	}
	r.Pass = true
	return r
}

// runner runs one shape on the interp reference or the compiled code,
// the latter with every optimistic window rolled back if rollback is set
// (a no-op where the machine opens none), traced into tr.
type runner func(interp, rollback bool, tr obs.Tracer) (backendOutcome, error)

// checkShape runs one shape with both executors, untraced, traced into a
// Tally and traced into a Trace, and the compiled code again untraced and
// into a Tally with every window rolled back, and diffs each compiled run
// against the interp run of the same tracing mode. It returns the
// untraced interp run.
func checkShape(name string, run runner) (backendOutcome, error) {
	var untraced backendOutcome
	for _, mode := range []string{"", "tally", "rollback", "tally rollback", "traced"} {
		var ref backendOutcome
		for i, interp := range []bool{true, false} {
			executor := "compiled"
			if interp {
				executor = "interp"
			}
			var tr *obs.Trace
			var tally *obs.Tally
			var tracer obs.Tracer
			switch mode {
			case "tally", "tally rollback":
				tally = &obs.Tally{}
				tracer = tally
			case "traced":
				tr = obs.AcquireTrace()
				tracer = tr
			}
			out, err := run(interp, strings.HasSuffix(mode, "rollback"), tracer)
			if tr != nil {
				out.events = tr.Events()
				obs.ReleaseTrace(tr)
			}
			if tally != nil {
				out.count, out.totals = tally.Len(), tally.Totals()
			}
			if err != nil {
				return backendOutcome{}, fmt.Errorf("%s/%s: %w", name, executor, err)
			}
			if i == 0 {
				ref = out
				if mode == "" {
					untraced = out
				}
				continue
			}
			who := fmt.Sprintf("%s/%s", name, executor)
			if mode != "" {
				who += " (" + mode + ")"
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

// runMIMDBackend runs prog on a lockstepProcs-core IMP of class c with
// bankWords-word banks, core i's loaded with banks[i], under a cycle
// budget (0 for the default).
func runMIMDBackend(prog isa.Program, c taxonomy.Class, banks [][]isa.Word, bankWords int, budget int64, interp, rollback bool, tr obs.Tracer) (backendOutcome, error) {
	images := make([]isa.Program, lockstepProcs)
	for i := range images {
		images[i] = prog
	}
	mp, err := mimd.New(mimd.Config{Cores: lockstepProcs, BankWords: bankWords, Class: c,
		MaxCycles: budget, Tracer: tr, Interp: interp}, images)
	if err != nil {
		return backendOutcome{}, err
	}
	defer mp.Release()
	if rollback {
		mp.RollBackWindows()
	}
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
