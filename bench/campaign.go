package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/exec"
	"repro/internal/flexbench"
)

// campaign is one campaign workload: a pass over every cell of the
// conformance matrix, and what each pass must reproduce.
type campaign struct {
	cells  int64 // items per pass
	instrs int64 // guest instructions per pass
	// pass runs one timed pass and returns the untimed check of its output.
	pass  func(ctx context.Context) (check func() error)
	items []item // the cells, for the attribution pass
	// analyze, when set, is a part of the pass timed on its own in traced runs.
	analyze func() error
}

// campaignParams is the campaign sizing users run by default.
func campaignParams(cfg runConfig) conformance.Params {
	if cfg.Smoke {
		return conformance.Params{N: 16, Procs: 4}
	}
	return conformance.DefaultParams()
}

// newMatrix sets up the matrix workload: one warm-up pass, whose per-cell
// cycle and instruction counts every measured pass must reproduce.
func newMatrix(p conformance.Params) (*campaign, error) {
	ref, ok := conformance.RunMatrixParallel(context.Background(), p, workers)
	if !ok {
		return nil, fmt.Errorf("warm-up pass failed: %s", firstFailure(ref))
	}
	want := map[string]guest{}
	var total guest
	for _, c := range ref {
		want[c.Kernel+"/"+c.Class] = guest{c.Cycles, c.Instructions}
		total.cycles += c.Cycles
		total.instrs += c.Instructions
	}
	return &campaign{
		cells:  int64(len(ref)),
		instrs: total.instrs,
		pass: func(ctx context.Context) func() error {
			res, ok := conformance.RunMatrixParallel(ctx, p, workers)
			return func() error {
				if !ok {
					return fmt.Errorf("matrix pass failed: %s", firstFailure(res))
				}
				var got guest
				for _, c := range res {
					got.cycles += c.Cycles
					got.instrs += c.Instructions
				}
				if got != total {
					return fmt.Errorf("pass totals %d cycles / %d instructions, warm-up pass %d / %d",
						got.cycles, got.instrs, total.cycles, total.instrs)
				}
				return nil
			}
		},
		items: cellItems(conformance.Matrix(), p, want),
	}, nil
}

func firstFailure(res []conformance.CellResult) string {
	for _, c := range res {
		if !c.Pass {
			return fmt.Sprintf("%s/%s: %s", c.Kernel, c.Class, c.Err)
		}
	}
	return "no cell failed"
}

// newFlexbench sets up the flexbench workload: one warm-up measurement,
// whose Result JSON every measured pass must reproduce byte for byte.
func newFlexbench(cp conformance.Params) (*campaign, error) {
	p := flexbench.Params{N: cp.N, Procs: cp.Procs}
	cells, err := flexbench.Measure(context.Background(), p, workers)
	if err != nil {
		return nil, err
	}
	ref, err := flexbench.Analyze(p, cells)
	if err != nil {
		return nil, err
	}
	if !ref.Pass {
		return nil, fmt.Errorf("warm-up measurement has failing cells")
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	want := map[string]guest{}
	var instrs, runnable int64
	for _, c := range cells {
		if c.Runnable {
			want[c.Kernel+"/"+c.Class] = guest{c.Cycles, c.Instructions}
			instrs += c.Instructions
			runnable++
		}
	}
	return &campaign{
		cells:  runnable,
		instrs: instrs,
		pass: func(ctx context.Context) func() error {
			res, err := flexbench.Run(ctx, p, workers)
			return func() error {
				if err != nil {
					return err
				}
				if !res.Pass {
					return fmt.Errorf("flexbench pass has failing cells")
				}
				got, err := json.Marshal(res)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, refJSON) {
					return fmt.Errorf("flexbench Result JSON differs from the warm-up measurement")
				}
				return nil
			}
		},
		items: cellItems(conformance.Matrix(), cp, want),
		analyze: func() error {
			_, err := flexbench.Analyze(p, cells)
			return err
		},
	}, nil
}

func runMatrix(r *runner) {
	p := campaignParams(r.cfg)
	c, err := timedSetup(r, func() (*campaign, error) { return newMatrix(p) }, nil)
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	r.runCampaign(c)
}

func runFlexbench(r *runner) {
	p := campaignParams(r.cfg)
	c, err := timedSetup(r, func() (*campaign, error) { return newFlexbench(p) }, nil)
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	r.runCampaign(c)
}

// runCampaign measures passes for the run's duration in a closed loop with
// one caller. A traced run measures a shorter untraced loop, the same loop
// with spans, and then attributes the cells to layers.
func (r *runner) runCampaign(c *campaign) {
	if !r.cfg.Traced {
		ph := r.passes(c, r.cfg.measure(), false)
		r.reportEndToEnd(ph, float64(c.instrs)*float64(ph.lats[0].n))
		return
	}
	plain := r.passes(c, r.cfg.measure()/2, false)
	r.reportRuntime(plain)
	traced := r.passes(c, r.cfg.measure()/4, true)
	r.reportOverhead(plain, traced)
	r.attribute(c.items)
	if c.analyze != nil {
		const reps = 20
		var total time.Duration
		for i := 0; i < reps; i++ {
			var err error
			total += r.rec.timed("flexbench.analyze", noSpan, noSpan, func() { err = c.analyze() })
			if err != nil {
				r.fail("flexbench.Analyze: %v", err)
				return
			}
		}
		r.set("flexbench.analyze_us_per_pass", float64(total)/1e3/reps)
	}
	if m, ok := r.res.Metrics["bench.span_coverage"]; ok && m.Value < 0.9 {
		r.fail("child spans cover %.1f%% of the cell spans, want at least 90%%", 100*m.Value)
	}
}

// minBurstPasses is the fewest passes a burst runs. A matrix pass outlasts
// burstLen, and the calibration between bursts starts with a forced garbage
// collection; with one pass per burst every measured pass would start on a
// freshly collected heap, which back-to-back passes never see.
const minBurstPasses = 4

// passes runs campaign passes back to back for d, at least minBurstPasses
// per burst. With spans on, each pass gets a span, and the exec pool's
// observer reports each job's queue wait and run time, kept as spans for the
// first spanLimit jobs.
func (r *runner) passes(c *campaign, d time.Duration, spans bool) *phase {
	var mu sync.Mutex
	var queued, ran time.Duration
	var observed int64
	ph := bursts(d, 1, func(ph *phase, until time.Time) {
		for n := 0; n < minBurstPasses || time.Now().Before(until); n++ {
			ctx := context.Background()
			passID := noSpan
			if spans {
				passID = r.rec.begin("pass", noSpan, noSpan)
				ctx = exec.WithObserver(ctx, func(i int, wait, run time.Duration, _ error) {
					end := time.Now()
					mu.Lock()
					defer mu.Unlock()
					queued += wait
					ran += run
					observed++
					if observed > spanLimit {
						return
					}
					if wait > 0 {
						r.rec.add("exec.queue", passID, int32(i), end.Add(-run-wait), end.Add(-run))
					}
					r.rec.add("cell", passID, int32(i), end.Add(-run), end)
				})
			}
			start := time.Now()
			check := c.pass(ctx)
			d := time.Since(start)
			if spans {
				r.rec.end(passID)
			}
			ph.lats[0].add(d)
			ph.busy += d
			ph.items += c.cells
			if err := check(); err != nil {
				r.fail("pass %d: %v", ph.lats[0].n, err)
			}
		}
	})
	r.attempt(ph.items)
	if spans {
		r.set("exec.queue_wait_ms_per_item", float64(queued)/1e6/float64(observed))
		r.set("exec.parallel_efficiency", float64(ran)/float64(workers*ph.busy))
	}
	return ph
}
