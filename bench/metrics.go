package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// metricDef describes one reported metric. Gated metrics are the ones
// BENCHMARK.json lists: end-to-end metrics that every workload reports in an
// untraced run, and layer metrics that every workload reports in a traced
// run. The other metrics exist only on some workloads and are reported for
// the reader and for -compare.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base median a change may worsen; 0 for none
	// Floor, in the metric's unit, raises Bound to Floor/base median when
	// that is larger: a change smaller than Floor is never a regression.
	Floor float64
	// Absolute marks a metric any worsening of which is a regression.
	Absolute bool
	Layer    bool // reported by traced runs
	Gated    bool // listed in BENCHMARK.json
}

// The bounds come from the ten-run baselines in bench/README.md. Times and
// memory take 0.25, the largest bound BENCHMARK.json allows: their quartile
// spreads reached 9% in those baselines and 14% in noisier hours, so a
// tighter bound would flag noise. alloc_kb_per_item does not depend on host
// speed and spread at most 2.2%, so its bound is 0.07. setup_s keeps the
// 0.1 s floor first proposed: a set-up of a few tens of milliseconds
// (flexbench) spreads 12-26%, and a change of a few milliseconds there is
// no set-up cost a user notices.
var metricDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1, Gated: true},
	{Name: "items_per_s", Unit: "items/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "alloc_kb_per_item", Unit: "KiB", Better: "lower", Bound: 0.07, Gated: true},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "paced_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "guest_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "error_ratio", Unit: "ratio", Better: "lower", Absolute: true},
	{Name: "wall.setup_s", Unit: "s", Better: "lower"},
	{Name: "wall.items_per_s", Unit: "items/s", Better: "higher"},
	{Name: "wall.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "host.speed", Unit: "ratio", Better: "higher"},

	{Name: "obs.collect_us_per_item", Unit: "us", Better: "lower", Layer: true, Gated: true},
	{Name: "obs.collect_allocs_per_event", Unit: "count", Better: "lower", Layer: true, Gated: true},
	{Name: "obs.trace_ns_per_event", Unit: "ns", Better: "lower", Layer: true, Gated: true},
	{Name: "obs.events_per_item", Unit: "count", Better: "lower", Layer: true, Gated: true},
	{Name: "sim.us_per_item", Unit: "us", Better: "lower", Layer: true, Gated: true},
	{Name: "sim.ns_per_guest_instr", Unit: "ns", Better: "lower", Layer: true, Gated: true},
	{Name: "sim.guest_instr_per_item", Unit: "count", Better: "lower", Layer: true, Gated: true},
	{Name: "sim.guest_cycles_per_item", Unit: "count", Better: "lower", Layer: true, Gated: true},
	{Name: "isa.predecode_us_per_program", Unit: "us", Better: "lower", Layer: true, Gated: true},
	{Name: "isa.cfg_us_per_program", Unit: "us", Better: "lower", Layer: true, Gated: true},
	{Name: "machine.compile_us_per_program", Unit: "us", Better: "lower", Layer: true, Gated: true},
	{Name: "workload.programs_per_item", Unit: "count", Better: "lower", Layer: true, Gated: true},
	{Name: "progcheck.us_per_item", Unit: "us", Better: "lower", Layer: true, Gated: true},
	{Name: "exec.queue_wait_ms_per_item", Unit: "ms", Better: "lower", Layer: true, Gated: true},
	{Name: "exec.parallel_efficiency", Unit: "ratio", Better: "higher", Layer: true, Gated: true},
	{Name: "go.gc_cycles_per_1k_items", Unit: "count", Better: "lower", Layer: true, Gated: true},
	{Name: "go.gc_cpu_fraction", Unit: "ratio", Better: "lower", Layer: true, Gated: true},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Layer: true, Gated: true},
	// The serving layers exist only on the serve-* workloads.
	{Name: "server.decode_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.cache_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.queue_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.item_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.exec_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.encode_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.request_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "server.outside_us_mean", Unit: "us", Better: "lower", Layer: true},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: true},
	{Name: "cache.loads", Unit: "count", Better: "lower", Layer: true},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Layer: true},
	{Name: "cache.entries", Unit: "count", Better: "lower", Layer: true},
	{Name: "conformance.check_us_per_item", Unit: "us", Better: "lower", Layer: true},
	{Name: "flexbench.analyze_us_per_pass", Unit: "us", Better: "lower", Layer: true},
	{Name: "bench.span_coverage", Unit: "ratio", Better: "higher", Layer: true},
	{Name: "load.rejected_429", Unit: "count", Better: "lower"},
	{Name: "load.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "load.paced_p98_ms", Unit: "ms", Better: "lower"},
}

// simFamilies name the simulator behind each class prefix; the per-family
// layer metrics are sim.ns_per_guest_cycle.<family>.
var simFamilies = map[string]string{
	"IUP": "uniproc", "IAP": "simd", "IMP": "mimd", "ISP": "spatial", "DMP": "dataflow", "USP": "fabric",
}

func familyOf(class string) string { return simFamilies[strings.SplitN(class, "-", 2)[0]] }

// lookupDef finds a metric's definition; the per-family cycle costs share one.
func lookupDef(name string) (metricDef, bool) {
	if strings.HasPrefix(name, "sim.ns_per_guest_cycle.") {
		return metricDef{Name: name, Unit: "ns", Better: "lower", Layer: true}, true
	}
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host records what the numbers ran on; results are comparable only within
// one host.
type Host struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func hostInfo() Host {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Host{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMiB is the process's peak resident set (VmHWM). Where /proc is
// missing it falls back to the memory the Go runtime obtained from the OS.
func maxRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}
