package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Summary is the outcome of one or more full runs: every (workload, metric)
// series with its median and quartiles. -out writes it; -compare reads two.
type Summary struct {
	Host      Host                          `json:"host"`
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Traced    bool                          `json:"traced"`
	Runs      int                           `json:"runs"`
	Warnings  []string                      `json:"warnings,omitempty"`
	Failures  []string                      `json:"failures,omitempty"`
	Workloads map[string]map[string]*Series `json:"workloads"`
}

// Series is one metric's values over the runs, in run order.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newSummary(cfg runConfig, runs int) *Summary {
	return &Summary{Host: hostInfo(), Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced, Runs: runs,
		Workloads: map[string]map[string]*Series{}}
}

func (s *Summary) add(res *Result) {
	// The child set GOMAXPROCS itself; record what the workloads ran with.
	s.Host.GOMAXPROCS = res.Host.GOMAXPROCS
	if len(s.Warnings) == 0 {
		s.Warnings = res.Warnings
	}
	ws := s.Workloads[res.Workload]
	if ws == nil {
		ws = map[string]*Series{}
		s.Workloads[res.Workload] = ws
	}
	for name, m := range res.Metrics {
		if ws[name] == nil {
			ws[name] = &Series{Unit: m.Unit}
		}
		ws[name].Values = append(ws[name].Values, m.Value)
	}
}

func (s *Summary) finish() {
	for _, ws := range s.Workloads {
		for _, se := range ws {
			se.Median = median(se.Values)
			se.Q1, se.Q3 = quartiles(se.Values)
		}
	}
}

func (s *Summary) print(w io.Writer) {
	fmt.Fprintf(w, "== summary of %d runs (seed %d): median [q1, q3], spread = (q3-q1)/median\n", s.Runs, s.Seed)
	for _, wl := range workloadNames() {
		ws := s.Workloads[wl]
		if ws == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl)
		for _, name := range sortedSeries(ws) {
			se := ws[name]
			fmt.Fprintf(w, "   %-34s %12.6g [%.6g, %.6g] %s  spread %.1f%%\n",
				name, se.Median, se.Q1, se.Q3, se.Unit, 100*spreadOf(se))
		}
	}
}

func sortedSeries(ws map[string]*Series) []string {
	ms := make(map[string]Metric, len(ws))
	for n := range ws {
		ms[n] = Metric{}
	}
	return sortedMetricNames(ms)
}

func spreadOf(se *Series) float64 {
	if se.Median == 0 {
		return 0
	}
	return math.Abs(se.Q3-se.Q1) / math.Abs(se.Median)
}

func readSummary(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s Summary
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints a verdict for every end-to-end (workload, metric) pair
// the two summaries share, and the relative change of every layer metric.
// It exits 1 when any pair got worse.
func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readSummary(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	head, err := readSummary(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if base.Host.CPUModel != head.Host.CPUModel || base.Host.NumCPU != head.Host.NumCPU {
		fmt.Fprintf(stdout, "warning: the summaries come from different hosts (%s x%d vs %s x%d)\n",
			base.Host.CPUModel, base.Host.NumCPU, head.Host.CPUModel, head.Host.NumCPU)
	}
	status := 0
	fmt.Fprintf(stdout, "%-11s %-34s %12s %12s %8s  %s\n", "workload", "metric", "base", "head", "change", "verdict")
	for _, wl := range workloadNames() {
		bw, hw := base.Workloads[wl], head.Workloads[wl]
		if bw == nil || hw == nil {
			continue
		}
		for _, name := range sortedSeries(bw) {
			b, h := bw[name], hw[name]
			def, ok := lookupDef(name)
			if h == nil || !ok {
				continue
			}
			v := "info"
			if def.Bound > 0 || def.Absolute {
				v = verdict(def, b, h)
			}
			if v == "worse" {
				status = 1
			}
			change := math.NaN()
			if b.Median != 0 {
				change = 100 * (h.Median - b.Median) / math.Abs(b.Median)
			}
			fmt.Fprintf(stdout, "%-11s %-34s %12.6g %12.6g %+7.1f%%  %s\n", wl, name, b.Median, h.Median, change, v)
		}
	}
	return status
}

// verdict compares head against base for one end-to-end metric. The bound
// is the metric's Bound, raised to Floor over the base median when the
// metric has a floor and that is larger:
//
//   - unresolved: the spread of either side is wider than the bound, unless
//     every head run reads better than every base run;
//   - worse: the head median is worse than the base median by more than the
//     bound (by any amount for an absolute metric);
//   - better: with at least ten runs a side, head wins at least nine tenths
//     of the run pairs and the medians differ by more than the base's
//     quartile spread;
//   - unchanged: anything else.
func verdict(def metricDef, b, h *Series) string {
	sign := 1.0 // positive change = worse
	if def.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 }
	allBetter := len(b.Values) > 0 && len(h.Values) > 0
	for _, hv := range h.Values {
		for _, bv := range b.Values {
			allBetter = allBetter && better(hv, bv)
		}
	}
	diff := sign * (h.Median - b.Median)
	if def.Absolute {
		switch {
		case diff > 0:
			return "worse"
		case diff < 0:
			return "better"
		}
		return "unchanged"
	}
	bound := def.Bound
	if b.Median != 0 {
		bound = max(bound, def.Floor/math.Abs(b.Median))
	}
	if (spreadOf(b) > bound || spreadOf(h) > bound) && !allBetter {
		return "unresolved"
	}
	if b.Median != 0 && diff/math.Abs(b.Median) > bound {
		return "worse"
	}
	pairs := min(len(b.Values), len(h.Values))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(h.Values[i], b.Values[i]) {
			wins++
		}
	}
	if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && -diff > b.Q3-b.Q1 {
		return "better"
	}
	return "unchanged"
}
