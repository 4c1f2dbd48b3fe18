// Command loadgen is a load generator for the taxonomy serving layer
// (cmd/serve). It drives one replica or a whole fleet (-urls, round-robin)
// in either arrival discipline:
//
//   - closed loop (default): a fixed number of workers each issue one batch
//     request, wait for the response, and immediately issue the next —
//     offered load adapts to the server, latencies are honest round trips.
//   - open loop (-mode open -rate N): arrivals are scheduled on a fixed
//     N-per-second clock regardless of how the server is doing, and each
//     request's latency is measured from its *scheduled* arrival time. A
//     stalled server therefore shows up as growing tail latency instead of
//     silently reduced load — the coordinated-omission fix.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080               # single replica, closed
//	loadgen -urls http://a:8080,http://b:8080        # fleet, round-robin
//	loadgen -mode open -rate 50                      # open loop, 50 arrivals/s
//	loadgen -url http://127.0.0.1:8080 -smoke        # CI gate: short sweep of
//	                                                 # every endpoint; any
//	                                                 # status outside 2xx/429
//	                                                 # fails the run
//
// The JSON document (stdout or -out) is a serving baseline: one result row
// per endpoint with requests, error counts, throughput, p50/p90/p99/max
// latency, and — when the servers export the repro_http_stage_seconds
// histograms — the per-stage latency attribution (decode, cache, queue,
// item, exec, encode) summed across replicas over exactly this endpoint's
// window.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// payloads maps each endpoint to a rotation of request bodies. Workers cycle
// through the variants, so the run exercises both the cache-hit path (repeat
// bodies) and the miss path (first sighting of each variant).
var payloads = map[string][]string{
	"/v1/classify": {
		`{"requests":[{"arch":{"name":"A","ips":"1","dps":"64","ip_ip":"none","ip_dp":"1-64","ip_im":"1-1","dp_dm":"64-1","dp_dp":"64x64"}},{"arch":{"name":"B","ips":"1","dps":"64","ip_ip":"none","ip_dp":"1-64","ip_im":"1-1","dp_dm":"64-1","dp_dp":"64x64"},"n":4}]}`,
		`{"requests":[{"arch":{"name":"C","ips":"1","dps":"64","ip_ip":"none","ip_dp":"1-64","ip_im":"1-1","dp_dm":"64-1","dp_dp":"64x64"},"n":16}]}`,
	},
	"/v1/flexibility": {
		`{"requests":[{"class":"IUP"},{"class":"IAP-II"},{"class":"IMP-II"},{"class":"IMP-XVI"}]}`,
		`{"requests":[{"class":"USP","compare_to":"IUP"},{"class":"DMP-IV","compare_to":"IMP-XVI"}]}`,
	},
	"/v1/estimate": {
		`{"requests":[{"class":"IUP","n":1},{"class":"IAP-II","n":64},{"class":"IMP-XVI","n":16}]}`,
		`{"requests":[{"arch":"MorphoSys"},{"class":"USP","n":64}]}`,
	},
	"/v1/simulate": {
		`{"requests":[{"class":"IUP","kernel":"vecadd","n":64},{"class":"IAP-II","kernel":"dot","n":64,"procs":4}]}`,
		`{"requests":[{"class":"IMP-II","kernel":"scan","n":64,"procs":4},{"class":"USP","kernel":"vecadd","n":16}]}`,
		`{"requests":[{"class":"IAP-II","kernel":"dot","n":128,"procs":8}]}`,
	},
	"/v1/conformance": {
		`{"requests":[{"n":16,"procs":4,"kernels":["vecadd"],"classes":["IUP","IAP"]}]}`,
	},
	"/v1/flexbench": {
		`{"requests":[{"n":16}]}`,
	},
	"/v1/survey": {
		`{"requests":[{}]}`,
		`{"requests":[{"run":true,"n":64}]}`,
	},
}

// endpointOrder fixes the sweep order (and the result row order).
var endpointOrder = []string{
	"/v1/classify",
	"/v1/flexibility",
	"/v1/estimate",
	"/v1/simulate",
	"/v1/conformance",
	"/v1/flexbench",
	"/v1/survey",
}

// StageStat is one stage's server-side attribution over the endpoint's
// measurement window, diffed from the repro_http_stage_seconds histograms.
type StageStat struct {
	// TotalMs is the stage's summed latency across the window.
	TotalMs float64 `json:"total_ms"`
	// MeanMs is TotalMs per handled request.
	MeanMs float64 `json:"mean_ms"`
	// Share is the stage's fraction of the summed request wall time. The
	// sequential stages (decode, cache, exec, encode) partition it; queue
	// and item subdivide exec per batch item, so their shares can exceed
	// exec's under parallel fan-out.
	Share float64 `json:"share"`
}

// EndpointResult is one endpoint's measured row.
type EndpointResult struct {
	Endpoint string `json:"endpoint"`
	// Requests counts completed round trips; Rejected the 429 subset.
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	// Failures counts responses outside 2xx/429 plus transport errors.
	Failures int64 `json:"failures"`
	// RPS is completed requests per wall-clock second.
	RPS float64 `json:"rps"`
	// Latency percentiles over successful requests, milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Stages is the server-side attribution; absent when the server does
	// not export stage histograms.
	Stages map[string]StageStat `json:"stages,omitempty"`
	// DominantStage names the sequential stage with the largest share.
	DominantStage string `json:"dominant_stage,omitempty"`
}

// Metric families scraped from /metrics?format=json for stage attribution.
const (
	stageMetricName   = "repro_http_stage_seconds"
	requestMetricName = "repro_http_request_seconds"
)

// sequentialStages are the stages that partition request wall time end to
// end; queue and item are per-batch-item subdivisions of exec.
var sequentialStages = []string{"decode", "cache", "exec", "encode"}

// metricRow is the subset of the server's JSON metrics exposition loadgen
// reads: histogram name, rendered label string, and running sum/count.
type metricRow struct {
	Name   string   `json:"name"`
	Labels string   `json:"labels"`
	Sum    *float64 `json:"sum"`
	Count  *int64   `json:"count"`
}

var (
	endpointLabelRe = regexp.MustCompile(`endpoint="([^"]*)"`)
	stageLabelRe    = regexp.MustCompile(`stage="([^"]*)"`)
)

// stageSnapshot is one scrape of the server-side latency histograms:
// per-endpoint stage sums plus the request histogram's sum and count.
type stageSnapshot struct {
	stageSum map[string]map[string]float64 // endpoint -> stage -> seconds
	reqSum   map[string]float64            // endpoint -> seconds
	reqCount map[string]int64              // endpoint -> observations
}

// scrapeStages fetches the JSON metrics exposition from every target and
// reduces it to one fleet-wide snapshot stage attribution diffs against:
// sums and counts add across replicas, so the shares stay meaningful when
// the load is spread round-robin.
func scrapeStages(client *http.Client, targets []string) (*stageSnapshot, error) {
	snap := &stageSnapshot{
		stageSum: map[string]map[string]float64{},
		reqSum:   map[string]float64{},
		reqCount: map[string]int64{},
	}
	for _, base := range targets {
		if err := scrapeInto(client, base, snap); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// scrapeInto adds one replica's histograms to the fleet snapshot.
func scrapeInto(client *http.Client, base string, snap *stageSnapshot) error {
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/metrics?format=json: status %d", base, resp.StatusCode)
	}
	var rows []metricRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return fmt.Errorf("decoding %s/metrics?format=json: %w", base, err)
	}
	for _, row := range rows {
		epm := endpointLabelRe.FindStringSubmatch(row.Labels)
		if epm == nil || row.Sum == nil {
			continue
		}
		switch row.Name {
		case stageMetricName:
			stm := stageLabelRe.FindStringSubmatch(row.Labels)
			if stm == nil {
				continue
			}
			byStage := snap.stageSum[epm[1]]
			if byStage == nil {
				byStage = map[string]float64{}
				snap.stageSum[epm[1]] = byStage
			}
			byStage[stm[1]] += *row.Sum
		case requestMetricName:
			snap.reqSum[epm[1]] += *row.Sum
			if row.Count != nil {
				snap.reqCount[epm[1]] += *row.Count
			}
		}
	}
	return nil
}

// stageDelta attributes one endpoint's measurement window across stages by
// diffing two snapshots, and names the dominant sequential stage.
func stageDelta(before, after *stageSnapshot, ep string) (map[string]StageStat, string) {
	reqSec := after.reqSum[ep] - before.reqSum[ep]
	reqN := after.reqCount[ep] - before.reqCount[ep]
	if reqN <= 0 || after.stageSum[ep] == nil {
		return nil, ""
	}
	stats := map[string]StageStat{}
	for stage, sum := range after.stageSum[ep] {
		d := sum - before.stageSum[ep][stage]
		if d < 0 {
			d = 0 // server restarted mid-run; don't report nonsense
		}
		st := StageStat{
			TotalMs: round2(d * 1000),
			MeanMs:  round2(d * 1000 / float64(reqN)),
		}
		if reqSec > 0 {
			st.Share = round2(d / reqSec)
		}
		stats[stage] = st
	}
	dominant := ""
	for _, stage := range sequentialStages {
		st, ok := stats[stage]
		if !ok {
			continue
		}
		if dominant == "" || st.TotalMs > stats[dominant].TotalMs {
			dominant = stage
		}
	}
	return stats, dominant
}

// Doc is the emitted JSON document: host metadata plus one row per
// endpoint.
type Doc struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Bench      string   `json:"bench"`
	URL        string   `json:"url"`
	URLs       []string `json:"urls,omitempty"`
	// Mode records the arrival discipline ("closed" or "open") so a
	// baseline is never compared against a document measured under the
	// other discipline.
	Mode string `json:"mode"`
	// RatePerSec is the scheduled arrival rate per endpoint (open mode).
	RatePerSec  float64          `json:"rate_per_sec,omitempty"`
	Concurrency int              `json:"concurrency"`
	Duration    string           `json:"duration_per_endpoint"`
	Smoke       bool             `json:"smoke,omitempty"`
	Results     []EndpointResult `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run sweeps every requested endpoint and writes the JSON document.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(w)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the serve process")
	urls := fs.String("urls", "", "comma-separated replica base URLs; requests round-robin across them (overrides -url)")
	mode := fs.String("mode", "closed", "arrival discipline: closed (workers wait for responses) or open (fixed-rate schedule)")
	rate := fs.Float64("rate", 50, "open mode: scheduled arrivals per second per endpoint")
	concurrency := fs.Int("c", 8, "closed-loop workers per endpoint")
	duration := fs.Duration("d", 5*time.Second, "measurement window per endpoint")
	endpoints := fs.String("endpoints", "", "comma-separated endpoint subset (default: all)")
	out := fs.String("out", "", "write the JSON document to this file instead of stdout")
	smoke := fs.Bool("smoke", false, "CI smoke mode: 1s per endpoint, 2 workers, fail on any status outside 2xx/429")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *mode != "closed" && *mode != "open" {
		return fmt.Errorf("-mode must be closed or open, got %q", *mode)
	}
	if *mode == "open" && *rate <= 0 {
		return fmt.Errorf("-rate must be positive in open mode, got %g", *rate)
	}
	if *smoke {
		*concurrency = 2
		*duration = time.Second
	}
	targets := []string{*url}
	if *urls != "" {
		targets = strings.Split(*urls, ",")
	}

	sweep := endpointOrder
	if *endpoints != "" {
		sweep = strings.Split(*endpoints, ",")
		for _, ep := range sweep {
			if _, ok := payloads[ep]; !ok {
				return fmt.Errorf("unknown endpoint %q", ep)
			}
		}
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	doc := Doc{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Bench:       "serve-loadgen",
		URL:         targets[0],
		Mode:        *mode,
		Concurrency: *concurrency,
		Duration:    duration.String(),
		Smoke:       *smoke,
	}
	if len(targets) > 1 {
		doc.URLs = targets
	}
	if *mode == "open" {
		doc.RatePerSec = *rate
	}
	// Stage attribution brackets each endpoint's window with a metrics
	// scrape; a server without the stage histograms degrades to latency-only
	// rows rather than failing the run.
	prev, scrapeErr := scrapeStages(client, targets)
	if scrapeErr != nil {
		fmt.Fprintf(w, "# stage attribution disabled: %v\n", scrapeErr)
	}
	for _, ep := range sweep {
		res, err := hammer(client, targets, ep, *mode, *concurrency, *rate, *duration)
		if err != nil {
			return err
		}
		if prev != nil {
			if cur, err := scrapeStages(client, targets); err == nil {
				res.Stages, res.DominantStage = stageDelta(prev, cur, ep)
				prev = cur
			}
		}
		doc.Results = append(doc.Results, res)
		fmt.Fprintf(w, "# %-16s %6d req  %8.1f req/s  p50 %6.2fms  p99 %6.2fms  429s %d  failures %d",
			ep, res.Requests, res.RPS, res.P50Ms, res.P99Ms, res.Rejected, res.Failures)
		if res.DominantStage != "" {
			fmt.Fprintf(w, "  dominant %s (%.0f%%)", res.DominantStage, res.Stages[res.DominantStage].Share*100)
		}
		fmt.Fprintln(w)
		if *smoke && res.Failures > 0 {
			return fmt.Errorf("smoke: %s had %d responses outside 2xx/429", ep, res.Failures)
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		return os.WriteFile(*out, enc, 0o644)
	}
	_, err = w.Write(enc)
	return err
}

// hammer drives one endpoint for the window — closed loop of `workers`, or
// open loop at `rate` arrivals/s — and reduces the per-request observations
// into one result row. Requests round-robin across the targets; body and
// target rotate on independent cursors so every payload variant reaches
// every replica.
func hammer(client *http.Client, targets []string, ep, mode string, workers int, rate float64, window time.Duration) (EndpointResult, error) {
	bodies := payloads[ep]
	var (
		nextBody   atomic.Int64 // payload rotation cursor across all workers
		nextTarget atomic.Int64 // replica round-robin cursor
		rejected   atomic.Int64
		failures   atomic.Int64
		mu         sync.Mutex
		latencies  []float64 // ms, successful requests only
		wg         sync.WaitGroup
	)
	// shoot issues one request and records its latency as measured from
	// `start` — the send time in closed mode, the *scheduled* arrival time
	// in open mode (so queueing behind a slow server is charged to the
	// request, not silently dropped from the sample).
	shoot := func(start time.Time) {
		body := bodies[nextBody.Add(1)%int64(len(bodies))]
		base := targets[nextTarget.Add(1)%int64(len(targets))]
		resp, err := client.Post(base+ep, "application/json", strings.NewReader(body))
		if err != nil {
			failures.Add(1)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected.Add(1)
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			ms := float64(time.Since(start).Microseconds()) / 1000
			mu.Lock()
			latencies = append(latencies, ms)
			mu.Unlock()
		default:
			failures.Add(1)
		}
	}
	deadline := time.Now().Add(window)
	switch mode {
	case "open":
		// Fixed-rate arrival schedule: tick k fires at start + k/rate no
		// matter how long earlier requests take. One goroutine per arrival;
		// in-flight count floats with server latency, which is the point.
		interval := time.Duration(float64(time.Second) / rate)
		begin := time.Now()
		for k := int64(0); ; k++ {
			sched := begin.Add(time.Duration(k) * interval)
			if !sched.Before(deadline) {
				break
			}
			time.Sleep(time.Until(sched))
			wg.Add(1)
			go func(sched time.Time) {
				defer wg.Done()
				shoot(sched)
			}(sched)
		}
	default: // closed
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					shoot(time.Now())
				}
			}()
		}
	}
	wg.Wait()

	res := EndpointResult{
		Endpoint: ep,
		Requests: int64(len(latencies)) + rejected.Load() + failures.Load(),
		Rejected: rejected.Load(),
		Failures: failures.Load(),
	}
	res.RPS = round2(float64(res.Requests) / window.Seconds())
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.P50Ms = round2(percentile(latencies, 0.50))
		res.P90Ms = round2(percentile(latencies, 0.90))
		res.P99Ms = round2(percentile(latencies, 0.99))
		res.MaxMs = round2(latencies[len(latencies)-1])
		res.MeanMs = round2(sum / float64(len(latencies)))
	}
	return res, nil
}

// percentile reads the p-quantile (0..1) from a sorted sample with
// nearest-rank interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// round2 keeps the JSON readable: two decimal places is plenty for ms.
func round2(v float64) float64 { return math.Round(v*100) / 100 }
