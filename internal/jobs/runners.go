package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/conformance"
	"repro/internal/flexbench"
)

// Runner executes one job kind as a sequence of deterministic chunks. The
// chunk is the queue's unit of progress and of crash recovery: each
// completed chunk's payload is journaled, so a killed process resumes at
// the first unjournaled chunk. That makes two properties load-bearing:
//
//   - Prepare must be a pure function of the spec (the chunk count is
//     recomputed on resume and must match), and
//   - RunChunk(idx) must be deterministic given (spec, idx) — it reruns
//     after a crash that lost its payload, and a resumed job's final
//     result must be byte-identical to an uninterrupted run's.
type Runner interface {
	// Kind names the job type clients submit ("conformance", "lockstep",
	// "backends", "flexbench").
	Kind() string
	// Prepare validates the spec and returns the chunk count.
	Prepare(spec json.RawMessage) (chunks int, err error)
	// RunChunk executes chunk idx with the given parallelism (<= 0 means
	// GOMAXPROCS) and returns its journaled payload.
	RunChunk(ctx context.Context, spec json.RawMessage, idx, workers int) (json.RawMessage, error)
	// Reduce folds the chunk payloads, in order, into the job result.
	Reduce(spec json.RawMessage, chunks []json.RawMessage) (json.RawMessage, error)
}

// DefaultRunners are the heavy batch campaigns the serving tier redirects
// off the request path.
func DefaultRunners() []Runner {
	return []Runner{ConformanceRunner{}, LockstepRunner{}, BackendsRunner{}, FlexbenchRunner{}}
}

// decodeSpec unmarshals a job spec strictly: unknown fields are an error,
// so a typo fails at submit instead of silently running defaults.
func decodeSpec(spec json.RawMessage, into any) error {
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("jobs: bad spec: %w", err)
	}
	return nil
}

// ---- conformance: the full (or filtered) kernel x machine-class matrix.

// ConformanceSpec sizes a matrix campaign. Chunking is one chunk per
// kernel row, so progress reads as "kernels done" and a crash loses at
// most one kernel's cells.
type ConformanceSpec struct {
	// N is the problem size (default 64).
	N int `json:"n,omitempty"`
	// Procs is the lane/core count (default 4).
	Procs int `json:"procs,omitempty"`
	// Kernels filters the kernel rows (empty = all seven).
	Kernels []string `json:"kernels,omitempty"`
	// Classes filters the machine-class columns by exact name or family
	// prefix (empty = all).
	Classes []string `json:"classes,omitempty"`
}

// maxJobConformanceN caps the problem size; above this a single cell's
// memory footprint stops being a queue problem and starts being a
// capacity-planning problem.
const maxJobConformanceN = 1 << 12

// conformanceChunk is one journaled kernel row.
type conformanceChunk struct {
	Kernel  string                   `json:"kernel"`
	Results []conformance.CellResult `json:"results"`
	Pass    bool                     `json:"pass"`
}

// ConformanceResult is the reduced job result.
type ConformanceResult struct {
	Params  conformance.Params       `json:"params"`
	Pass    bool                     `json:"pass"`
	Cells   int                      `json:"cells"`
	Results []conformance.CellResult `json:"results"`
	Summary []string                 `json:"summary"`
}

// ConformanceRunner runs conformance matrix campaigns.
type ConformanceRunner struct{}

// Kind implements Runner.
func (ConformanceRunner) Kind() string { return "conformance" }

// params applies defaults and validates.
func (ConformanceRunner) params(spec json.RawMessage) (conformance.Params, []string, []string, error) {
	var s ConformanceSpec
	if err := decodeSpec(spec, &s); err != nil {
		return conformance.Params{}, nil, nil, err
	}
	p := conformance.DefaultParams()
	if s.N != 0 {
		p.N = s.N
	}
	if s.Procs != 0 {
		p.Procs = s.Procs
	}
	if p.N > maxJobConformanceN {
		return conformance.Params{}, nil, nil, fmt.Errorf("jobs: conformance n must be <= %d, got %d", maxJobConformanceN, p.N)
	}
	if err := p.Validate(); err != nil {
		return conformance.Params{}, nil, nil, err
	}
	return p, s.Kernels, s.Classes, nil
}

// kernels returns the filtered kernel rows, in matrix order.
func (r ConformanceRunner) kernels(spec json.RawMessage) ([]string, []string, conformance.Params, error) {
	p, kernels, classes, err := r.params(spec)
	if err != nil {
		return nil, nil, p, err
	}
	cells, err := conformance.FilterCells(kernels, classes)
	if err != nil {
		return nil, nil, p, err
	}
	if len(cells) == 0 {
		return nil, nil, p, fmt.Errorf("jobs: kernel and class filters select no cells")
	}
	var rows []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Kernel] {
			seen[c.Kernel] = true
			rows = append(rows, c.Kernel)
		}
	}
	return rows, classes, p, nil
}

// Prepare implements Runner: one chunk per kernel row.
func (r ConformanceRunner) Prepare(spec json.RawMessage) (int, error) {
	rows, _, _, err := r.kernels(spec)
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

// RunChunk implements Runner: execute every selected cell of kernel row
// idx.
func (r ConformanceRunner) RunChunk(ctx context.Context, spec json.RawMessage, idx, workers int) (json.RawMessage, error) {
	rows, classes, p, err := r.kernels(spec)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(rows) {
		return nil, fmt.Errorf("jobs: conformance chunk %d out of %d", idx, len(rows))
	}
	cells, err := conformance.FilterCells([]string{rows[idx]}, classes)
	if err != nil {
		return nil, err
	}
	results, pass := conformance.RunCellsParallel(ctx, cells, p, workers)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return json.Marshal(conformanceChunk{Kernel: rows[idx], Results: results, Pass: pass})
}

// Reduce implements Runner: concatenate the kernel rows in matrix order.
func (r ConformanceRunner) Reduce(spec json.RawMessage, chunks []json.RawMessage) (json.RawMessage, error) {
	p, _, _, err := r.params(spec)
	if err != nil {
		return nil, err
	}
	out := ConformanceResult{Params: p, Pass: true}
	for _, raw := range chunks {
		var c conformanceChunk
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("jobs: corrupt conformance chunk: %w", err)
		}
		out.Results = append(out.Results, c.Results...)
		out.Pass = out.Pass && c.Pass
	}
	out.Cells = len(out.Results)
	out.Summary = conformance.Summary(out.Results)
	return json.Marshal(out)
}

// ---- seed sweeps: lockstep fuzzing and backend equivalence.

// SweepSpec sizes a seed-sweep campaign (lockstep or backends). Chunking
// is sweepChunkSeeds seeds per chunk.
type SweepSpec struct {
	// Seed is the first seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Seeds is the number of consecutive seeds to run (default 64).
	Seeds int `json:"seeds,omitempty"`
}

// sweepChunkSeeds is the journaling granularity of a seed sweep: small
// enough that a crash loses little work, large enough that the fsync per
// chunk is noise against the runs themselves.
const sweepChunkSeeds = 16

// maxJobSweepSeeds caps a sweep campaign.
const maxJobSweepSeeds = 1 << 14

// sweepParams applies defaults and validates.
func sweepParams(spec json.RawMessage) (SweepSpec, error) {
	s := SweepSpec{Seed: 1, Seeds: 64}
	var in SweepSpec
	if err := decodeSpec(spec, &in); err != nil {
		return s, err
	}
	if in.Seed != 0 {
		s.Seed = in.Seed
	}
	if in.Seeds != 0 {
		s.Seeds = in.Seeds
	}
	if s.Seeds < 1 || s.Seeds > maxJobSweepSeeds {
		return s, fmt.Errorf("jobs: seeds must be in [1, %d], got %d", maxJobSweepSeeds, s.Seeds)
	}
	return s, nil
}

// sweepChunks is ceil(seeds / sweepChunkSeeds).
func sweepChunks(s SweepSpec) int {
	return (s.Seeds + sweepChunkSeeds - 1) / sweepChunkSeeds
}

// sweepWindow returns chunk idx's seed window.
func sweepWindow(s SweepSpec, idx int) (base int64, count int) {
	base = s.Seed + int64(idx*sweepChunkSeeds)
	count = s.Seeds - idx*sweepChunkSeeds
	if count > sweepChunkSeeds {
		count = sweepChunkSeeds
	}
	return base, count
}

// SweepResult is the reduced result of either sweep kind. Failures carry
// the offending seed and program; passing seeds are counted, not listed,
// so a ten-thousand-seed campaign's result stays readable.
type SweepResult struct {
	Seed     int64             `json:"seed"`
	Seeds    int               `json:"seeds"`
	Pass     bool              `json:"pass"`
	Failures []json.RawMessage `json:"failures,omitempty"`
}

// lockstepChunk is one journaled window of lockstep seeds.
type lockstepChunk struct {
	Results []conformance.LockstepResult `json:"results"`
	Pass    bool                         `json:"pass"`
}

// LockstepRunner sweeps the random-program lockstep differ.
type LockstepRunner struct{}

// Kind implements Runner.
func (LockstepRunner) Kind() string { return "lockstep" }

// Prepare implements Runner.
func (LockstepRunner) Prepare(spec json.RawMessage) (int, error) {
	s, err := sweepParams(spec)
	if err != nil {
		return 0, err
	}
	return sweepChunks(s), nil
}

// RunChunk implements Runner.
func (LockstepRunner) RunChunk(ctx context.Context, spec json.RawMessage, idx, workers int) (json.RawMessage, error) {
	s, err := sweepParams(spec)
	if err != nil {
		return nil, err
	}
	base, count := sweepWindow(s, idx)
	results, pass := conformance.LockstepSweepParallel(ctx, base, count, workers)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return json.Marshal(lockstepChunk{Results: results, Pass: pass})
}

// Reduce implements Runner.
func (LockstepRunner) Reduce(spec json.RawMessage, chunks []json.RawMessage) (json.RawMessage, error) {
	s, err := sweepParams(spec)
	if err != nil {
		return nil, err
	}
	out := SweepResult{Seed: s.Seed, Seeds: s.Seeds, Pass: true}
	for _, raw := range chunks {
		var c lockstepChunk
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("jobs: corrupt lockstep chunk: %w", err)
		}
		out.Pass = out.Pass && c.Pass
		for _, r := range c.Results {
			if !r.Pass {
				f, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				out.Failures = append(out.Failures, f)
			}
		}
	}
	return json.Marshal(out)
}

// backendsChunk is one journaled window of backend-equivalence seeds.
type backendsChunk struct {
	Results []conformance.BackendResult `json:"results"`
	Pass    bool                        `json:"pass"`
}

// BackendsRunner sweeps the cross-backend equivalence differ.
type BackendsRunner struct{}

// Kind implements Runner.
func (BackendsRunner) Kind() string { return "backends" }

// Prepare implements Runner.
func (BackendsRunner) Prepare(spec json.RawMessage) (int, error) {
	s, err := sweepParams(spec)
	if err != nil {
		return 0, err
	}
	return sweepChunks(s), nil
}

// RunChunk implements Runner.
func (BackendsRunner) RunChunk(ctx context.Context, spec json.RawMessage, idx, workers int) (json.RawMessage, error) {
	s, err := sweepParams(spec)
	if err != nil {
		return nil, err
	}
	base, count := sweepWindow(s, idx)
	results, pass := conformance.BackendSweepParallel(ctx, base, count, workers)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return json.Marshal(backendsChunk{Results: results, Pass: pass})
}

// Reduce implements Runner.
func (BackendsRunner) Reduce(spec json.RawMessage, chunks []json.RawMessage) (json.RawMessage, error) {
	s, err := sweepParams(spec)
	if err != nil {
		return nil, err
	}
	out := SweepResult{Seed: s.Seed, Seeds: s.Seeds, Pass: true}
	for _, raw := range chunks {
		var c backendsChunk
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("jobs: corrupt backends chunk: %w", err)
		}
		out.Pass = out.Pass && c.Pass
		for _, r := range c.Results {
			if !r.Pass {
				f, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				out.Failures = append(out.Failures, f)
			}
		}
	}
	return json.Marshal(out)
}

// ---- flexbench: the measured-flexibility frontier campaign.

// FlexbenchSpec sizes a measured-flexibility campaign. Chunking is one
// chunk per runnable matrix cell (112 at the full universe), so progress
// reads as "cells measured" and a crash loses at most one cell. Repeat
// re-executes each cell inside its chunk and demands bit-identical
// statistics — a cycle-stability audit the synchronous endpoint cannot
// afford.
type FlexbenchSpec struct {
	// N is the problem size (default 64).
	N int `json:"n,omitempty"`
	// Procs is the lane/core/PE count (default 4).
	Procs int `json:"procs,omitempty"`
	// Repeat is how many times each cell is executed (default 1); every
	// repeat must reproduce the first run's statistics exactly.
	Repeat int `json:"repeat,omitempty"`
}

// maxJobFlexbenchRepeat caps the per-cell stability repeats.
const maxJobFlexbenchRepeat = 1 << 10

// FlexbenchRunner runs measured-flexibility campaigns.
type FlexbenchRunner struct{}

// Kind implements Runner.
func (FlexbenchRunner) Kind() string { return "flexbench" }

// params applies defaults and validates.
func (FlexbenchRunner) params(spec json.RawMessage) (flexbench.Params, int, error) {
	var s FlexbenchSpec
	if err := decodeSpec(spec, &s); err != nil {
		return flexbench.Params{}, 0, err
	}
	p := flexbench.DefaultParams()
	if s.N != 0 {
		p.N = s.N
	}
	if s.Procs != 0 {
		p.Procs = s.Procs
	}
	repeat := 1
	if s.Repeat != 0 {
		repeat = s.Repeat
	}
	if p.N > maxJobConformanceN {
		return flexbench.Params{}, 0, fmt.Errorf("jobs: flexbench n must be <= %d, got %d", maxJobConformanceN, p.N)
	}
	if repeat < 1 || repeat > maxJobFlexbenchRepeat {
		return flexbench.Params{}, 0, fmt.Errorf("jobs: flexbench repeat must be in [1, %d], got %d", maxJobFlexbenchRepeat, repeat)
	}
	if err := p.Validate(); err != nil {
		return flexbench.Params{}, 0, err
	}
	return p, repeat, nil
}

// Prepare implements Runner: one chunk per runnable cell.
func (r FlexbenchRunner) Prepare(spec json.RawMessage) (int, error) {
	if _, _, err := r.params(spec); err != nil {
		return 0, err
	}
	return len(flexbench.RunnableCells()), nil
}

// RunChunk implements Runner: measure runnable cell idx, Repeat times,
// demanding bit-identical statistics across the repeats.
func (r FlexbenchRunner) RunChunk(ctx context.Context, spec json.RawMessage, idx, workers int) (json.RawMessage, error) {
	p, repeat, err := r.params(spec)
	if err != nil {
		return nil, err
	}
	cells := flexbench.RunnableCells()
	if idx < 0 || idx >= len(cells) {
		return nil, fmt.Errorf("jobs: flexbench chunk %d out of %d", idx, len(cells))
	}
	cell := flexbench.MeasureCell(cells[idx].Kernel, cells[idx].Class, p)
	for rep := 1; rep < repeat && cell.Err == ""; rep++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		again := flexbench.MeasureCell(cells[idx].Kernel, cells[idx].Class, p)
		if again != cell {
			cell.Err = fmt.Sprintf("jobs: flexbench cell unstable: repeat %d measured %+v, first run %+v", rep, again, cell)
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return json.Marshal(cell)
}

// Reduce implements Runner: slot the measured cells back into the full
// universe (the unrunnable holes are what the coverage score measures) and
// run the scoring pipeline. The result is the same flexbench.Result shape
// the CLI and the synchronous endpoint emit.
func (r FlexbenchRunner) Reduce(spec json.RawMessage, chunks []json.RawMessage) (json.RawMessage, error) {
	p, _, err := r.params(spec)
	if err != nil {
		return nil, err
	}
	universe := flexbench.Universe()
	slot := 0
	for i := range universe {
		if !universe[i].Runnable {
			continue
		}
		if slot >= len(chunks) {
			return nil, fmt.Errorf("jobs: flexbench reduce got %d chunks for %d runnable cells", len(chunks), slot+1)
		}
		var cell flexbench.CellMeasure
		if err := json.Unmarshal(chunks[slot], &cell); err != nil {
			return nil, fmt.Errorf("jobs: corrupt flexbench chunk: %w", err)
		}
		universe[i] = cell
		slot++
	}
	res, err := flexbench.Analyze(p, universe)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
