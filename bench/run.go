package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"
)

// runConfig is one workload run's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	TraceDir string // where a traced run writes its Chrome trace
	Smoke    bool   // tiny sizes, for the smoke test
}

// traceDir is where traced runs write their spans; .bench_build/ holds
// everything the benchmark builds and writes.
const traceDir = ".bench_build/traces"

func (c runConfig) measure() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// Set-up repeats at least minSetups times and until setupBudget has passed
// (at most maxSetups times, once in a smoke run), and setup_s is the median:
// one set-up per process is too noisy to gate.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// Result is one workload run's outcome.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      Host              `json:"host"`
	Warnings  []string          `json:"warnings,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// contractLine is the last line a run prints: the gated metrics of its mode.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func (r *Result) contract() contractLine {
	out := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	for _, d := range metricDefs {
		if d.Gated && d.Layer == r.Traced {
			if m, ok := r.Metrics[d.Name]; ok {
				out.Metrics[d.Name] = m
			}
		}
	}
	return out
}

// maxErrors caps the failure messages a result keeps; the count is exact.
const maxErrors = 20

// runner carries one workload run: its settings, the result being filled,
// and, in a traced run, the span recorder.
type runner struct {
	cfg runConfig
	rec *recorder

	// setupWall is the median set-up time in host seconds.
	setupWall float64

	mu  sync.Mutex
	res Result
}

func newRunner(cfg runConfig) *runner {
	r := &runner{cfg: cfg, res: Result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced,
		Host: hostInfo(), Metrics: map[string]Metric{},
	}}
	if r.res.Host.NumCPU < 2 {
		r.res.Warnings = append(r.res.Warnings, fmt.Sprintf("nproc is %d: the workloads assume 2 cores, so numbers are not comparable with 2-core baselines", r.res.Host.NumCPU))
	}
	if cfg.Traced {
		r.rec = newRecorder()
	}
	return r
}

// attempt counts n items attempted.
func (r *runner) attempt(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted += n
}

// fail records a failed check. Every failure fails the run.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.res.Errors) < maxErrors {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
	r.res.Failed++
}

func (r *runner) set(name string, v float64) {
	d, ok := lookupDef(name)
	if !ok {
		panic("bench: undefined metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Metrics[name] = Metric{Value: v, Unit: d.Unit}
}

// finish closes the run: writes the trace and decides correctness.
func (r *runner) finish() *Result {
	if r.rec != nil {
		path := filepath.Join(r.cfg.TraceDir, fmt.Sprintf("%s-seed%d.json", r.cfg.Workload, r.cfg.Seed))
		if err := writeChrome(path, r.rec.snapshot()); err != nil {
			r.fail("writing trace: %v", err)
		} else {
			r.res.TraceFile = path
		}
	}
	if !r.cfg.Traced {
		r.set("max_rss_mb", maxRSSMiB())
		ratio := 0.0
		if r.res.Attempted > 0 {
			ratio = float64(r.res.Failed) / float64(r.res.Attempted)
		}
		r.set("error_ratio", ratio)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	if r.res.Attempted == 0 {
		r.res.Attempted = 1 // the contract counts at least one attempt
		r.res.Failed = 1
		r.res.Errors = append(r.res.Errors, "no item was attempted")
	}
	return &r.res
}

// timedSetup builds the workload's state repeatedly and records the median
// build time; reportEndToEnd scales it to setup_s. It keeps the last
// instance and hands each earlier one to discard.
func timedSetup[T any](r *runner, build func() (T, error), discard func(T)) (T, error) {
	var cur T
	var times []float64
	begin := time.Now()
	for {
		start := time.Now()
		next, err := build()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) > 1 && discard != nil {
			discard(cur)
		}
		cur = next
		if r.cfg.Smoke || len(times) == maxSetups || len(times) >= minSetups && time.Since(begin) >= setupBudget {
			break
		}
	}
	r.setupWall = median(times)
	r.set("wall.setup_s", r.setupWall)
	return cur, nil
}

// phase is the bookkeeping of one measured loop.
type phase struct {
	lats  []hist // latency, one histogram per caller
	items int64
	busy  time.Duration // summed latency of every item, over all callers
	rt    rtSample      // runtime counters over the bursts only
	// speeds holds the host speed at each calibration.
	speeds []float64
}

func newPhase(callers int) *phase { return &phase{lats: make([]hist, callers)} }

// bursts runs one measured phase for d: burst(ph, until) runs the workload
// until `until`, in bursts of burstLen, and the calibration loops run before
// each burst and after the last, while the workload is idle.
func bursts(d time.Duration, callers int, burst func(ph *phase, until time.Time)) *phase {
	ph := newPhase(callers)
	end := time.Now().Add(d)
	for {
		ph.speeds = append(ph.speeds, hostSpeed())
		now := time.Now()
		if !now.Before(end) && ph.items > 0 {
			return ph
		}
		until := now.Add(burstLen)
		if until.After(end) {
			until = end
		}
		before := readRuntime()
		burst(ph, until)
		ph.rt = ph.rt.add(readRuntime().sub(before))
	}
}

// quantileMs is the q-quantile of every caller's latencies, in host
// milliseconds.
func (p *phase) quantileMs(q float64) float64 {
	var all hist
	for i := range p.lats {
		all.merge(&p.lats[i])
	}
	return all.quantileMs(q)
}

// speed is the median host speed over the phase's calibrations.
func (p *phase) speed() float64 { return median(p.speeds) }

// rate is the phase's throughput in items per host second. For a closed
// loop it follows from Little's law: callers divided by the mean latency.
// Idle time between bursts, and the benchmark's own checks between
// requests, do not count.
func (p *phase) rate() float64 {
	return float64(p.items) * float64(len(p.lats)) / p.busy.Seconds()
}

// reportEndToEnd sets the end-to-end metrics every workload shares: in
// reference seconds, and as wall.* in host seconds.
func (r *runner) reportEndToEnd(p *phase, guestInstr float64) {
	if p.items == 0 {
		r.fail("the measured phase completed no item")
		return
	}
	speed := p.speed()
	r.set("host.speed", speed)
	r.set("setup_s", r.setupWall*speed)
	r.set("items_per_s", p.rate()/speed)
	r.set("latency_p50_ms", p.quantileMs(0.50)*speed)
	r.set("wall.items_per_s", p.rate())
	r.set("wall.latency_p50_ms", p.quantileMs(0.50))
	r.set("alloc_kb_per_item", p.rt.allocBytes/float64(p.items)/1024)
	if guestInstr > 0 {
		r.set("guest_minstr_per_s", guestInstr/float64(p.items)*p.rate()/speed/1e6)
	}
}

// reportRuntime sets the Go runtime layer metrics from an untraced phase.
func (r *runner) reportRuntime(p *phase) {
	if p.items == 0 {
		return
	}
	r.set("go.gc_cycles_per_1k_items", p.rt.gcCycles/float64(p.items)*1000)
	frac := 0.0
	if p.rt.totalCPU > 0 {
		frac = p.rt.gcCPU / p.rt.totalCPU
	}
	r.set("go.gc_cpu_fraction", frac)
}

// reportOverhead compares a traced phase's time per item with an untraced
// one's, both in reference seconds.
func (r *runner) reportOverhead(untraced, traced *phase) {
	if untraced.items == 0 || traced.items == 0 {
		r.fail("a trace-overhead phase completed no item")
		return
	}
	r.set("host.speed", untraced.speed())
	r.set("bench.trace_overhead_ratio", untraced.rate()/untraced.speed()/(traced.rate()/traced.speed()))
}
