// Package server is the taxonomy-as-a-service layer: a JSON-over-HTTP
// facade that exposes every capability of the reproduction — classification,
// flexibility scoring, Eq 1/Eq 2 estimation, kernel simulation, the
// differential conformance suite and the Table III survey — as batched
// endpoints backed by the internal/exec worker pool.
//
// The serving contracts:
//
//   - Batching: every /v1 endpoint takes {"requests": [...]} and fans the
//     items across the worker pool; results return in item order.
//   - Determinism + caching: simulations are pure functions of their
//     request, so results are cached in an LRU keyed on canonicalized
//     request hashes, and a cache hit replays byte-identical response
//     bytes. With Config.Peers set, the cache is sharded across replicas
//     (internal/cache): consistent hashing names one owner per key, misses
//     fill from the owner over HTTP, and a singleflight group coalesces
//     concurrent misses so a stampede computes once.
//   - Backpressure: each endpoint holds a concurrency gate; a saturated
//     endpoint rejects with 429 and a Retry-After hint instead of queueing.
//     Heavy campaigns (full conformance matrices, long lockstep/backend
//     sweeps) are refused on the request path and redirected to the async
//     job queue (POST /v1/jobs, internal/jobs): submit, poll or stream
//     progress over SSE, fetch the result when done.
//   - Isolation: handler panics (and per-item simulation panics, via
//     exec.PanicError) become structured 500s/item errors, never a torn
//     connection for the other requests.
//   - Observability: request, latency, cache and rejection metrics live in
//     an internal/obs Registry served at /metrics (Prometheus text or
//     ?format=json), with /healthz for liveness.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Config sizes the server. The zero value is usable: every field has a
// production-lean default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe ("" -> ":8080").
	Addr string
	// Workers is the exec pool width each batch fans out over
	// (0 -> GOMAXPROCS).
	Workers int
	// CacheSize is the LRU capacity in entries (0 -> 4096; negative
	// disables caching).
	CacheSize int
	// MaxBatch caps the item count of one batch request (0 -> 256).
	MaxBatch int
	// MaxBodyBytes caps the request body (0 -> 8 MiB).
	MaxBodyBytes int64
	// MaxConcurrent is the per-endpoint in-flight request limit
	// (0 -> 4*GOMAXPROCS; negative disables the gate).
	MaxConcurrent int
	// PerEndpoint overrides MaxConcurrent for specific endpoints, keyed by
	// path ("/v1/simulate").
	PerEndpoint map[string]int
	// RequestTimeout bounds one request's total work (0 -> 60s).
	RequestTimeout time.Duration
	// DisableTracing turns off request tracing and the flight recorder;
	// the span hooks then take their zero-allocation no-op path.
	DisableTracing bool
	// FlightRecent is the flight recorder's most-recent-traces ring size
	// (0 -> 32; negative disables the ring).
	FlightRecent int
	// FlightSlow is the flight recorder's slowest-traces set size
	// (0 -> 32; negative disables the set).
	FlightSlow int
	// SlowRequest is the latency at or above which a request is logged at
	// Warn with its stage breakdown (0 -> 500ms; negative disables).
	SlowRequest time.Duration
	// Logger receives the structured request log (nil -> slog.Default()).
	Logger *slog.Logger
	// Self is this replica's own base URL ("http://10.0.0.1:8080") as it
	// appears in Peers. Empty with empty Peers means single-node operation.
	Self string
	// Peers lists every replica's base URL, including Self, for the sharded
	// peer cache. Empty means single-node operation (purely local cache).
	Peers []string
	// JobsDir holds the async job queue's write-ahead log; "" runs the
	// queue in memory (jobs then do not survive a restart).
	JobsDir string
	// MaxQueuedJobs bounds the job queue; submits past it get a 429
	// (0 -> 16).
	MaxQueuedJobs int
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.FlightRecent == 0 {
		c.FlightRecent = 32
	}
	if c.FlightSlow == 0 {
		c.FlightSlow = 32
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP serving layer. Create with New, expose with Handler
// (tests) or ListenAndServe/Serve (production), stop with Shutdown (or
// Close in tests that never served).
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	reg  *obs.Registry
	http *http.Server

	// The distributed result cache and its instruments, plus the
	// per-endpoint loaders the cache computes misses through (filled by
	// register, dispatched by endpoint path).
	dcache   *cache.Cache
	cmetrics *cache.Metrics
	loaders  map[string]func(ctx context.Context, canonical []byte) ([]byte, error)

	// The async job queue: the manager, the worker goroutine's cancel +
	// done handshake, and the once guarding teardown.
	jobs      *jobs.Manager
	stopJobs  context.CancelFunc
	jobsDone  chan struct{}
	closeOnce sync.Once

	// Tracing state: the flight recorder, the request-ID source and the
	// request log. tracing mirrors !cfg.DisableTracing for the hot path.
	tracing    bool
	flight     *obs.FlightRecorder
	idBase     string
	reqSeq     atomic.Uint64
	logger     *slog.Logger
	slowThresh time.Duration
	runtime    *runtimeGauges

	// Per-endpoint instruments, pre-registered so the request path never
	// takes the registry's write lock.
	limiters map[string]*limiter
	metrics  map[string]*endpointMetrics
}

// endpointMetrics groups one endpoint's instruments.
type endpointMetrics struct {
	requests map[int]*obs.Counter // by status code
	rejected *obs.Counter
	items    *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
	inflight *obs.Gauge
	// inflightN is the authoritative in-flight count; the gauge mirrors it
	// (Gauge has no atomic add, and concurrent Set(Value()+1) loses
	// updates).
	inflightN atomic.Int64
	latency   *obs.Histogram
	// stages attributes request latency per stage (decode, cache, queue,
	// item, exec, encode), keyed by stage name; see stageNames.
	stages map[string]*obs.Histogram
}

// enter/leave maintain the in-flight gauge race-free.
func (em *endpointMetrics) enter() { em.inflight.Set(float64(em.inflightN.Add(1))) }
func (em *endpointMetrics) leave() { em.inflight.Set(float64(em.inflightN.Add(-1))) }

// Endpoints lists the batch endpoints the server exposes, in display order.
func Endpoints() []string {
	return []string{
		"/v1/classify",
		"/v1/flexibility",
		"/v1/estimate",
		"/v1/simulate",
		"/v1/conformance",
		"/v1/flexbench",
		"/v1/survey",
	}
}

// statusCodes are the codes pre-registered per endpoint.
var statusCodes = []int{
	http.StatusOK,
	http.StatusBadRequest,
	http.StatusMethodNotAllowed,
	http.StatusTooManyRequests,
	http.StatusInternalServerError,
	http.StatusGatewayTimeout,
}

// latencyBounds are the request/stage-latency histogram bucket bounds in
// seconds. The ladder is dense through the tail — a loadgen baseline surfaced a
// 2056ms conformance outlier hiding behind a 4.3ms p99, and the original
// coarse ladder (…, 1, 2.5, 5, 10) could not separate a 2s outlier from a
// 1.1s one, nor resolve anything between 500ms and 1s. Sub-second steps
// every ~1.5x and explicit 0.75/1.5/2/3/7.5 rungs keep one-bucket
// resolution across the whole observed tail; the 30/60 rungs bound the
// request-timeout region. The metrics-schema golden pins this ladder.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	0.75, 1, 1.5, 2, 3, 5, 7.5, 10, 30, 60,
}

// Stage and request latency metric names.
const (
	metricRequestSeconds = "repro_http_request_seconds"
	metricStageSeconds   = "repro_http_stage_seconds"
)

// New builds a server with the six /v1 batch endpoints, the async job API,
// the peer-cache fill route, /metrics and /healthz registered. It errors on
// an inconsistent peer set or an unreadable job journal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		reg:        obs.NewRegistry(),
		loaders:    map[string]func(ctx context.Context, canonical []byte) ([]byte, error){},
		tracing:    !cfg.DisableTracing,
		flight:     obs.NewFlightRecorder(cfg.FlightRecent, cfg.FlightSlow),
		idBase:     fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
		logger:     cfg.Logger,
		slowThresh: cfg.SlowRequest,
		limiters:   map[string]*limiter{},
		metrics:    map[string]*endpointMetrics{},
	}
	s.runtime = newRuntimeGauges(s.reg)
	for _, ep := range Endpoints() {
		limit := cfg.MaxConcurrent
		if v, ok := cfg.PerEndpoint[ep]; ok {
			limit = v
		}
		s.limiters[ep] = newLimiter(limit)
		em := &endpointMetrics{
			requests: map[int]*obs.Counter{},
			rejected: s.reg.MustCounter("repro_http_rejected_total", "requests rejected by the concurrency gate", "endpoint", ep),
			items:    s.reg.MustCounter("repro_http_batch_items_total", "batch items processed", "endpoint", ep),
			hits:     s.reg.MustCounter("repro_cache_hits_total", "batch items served from the result cache", "endpoint", ep),
			misses:   s.reg.MustCounter("repro_cache_misses_total", "batch items computed on a cache miss", "endpoint", ep),
			inflight: s.reg.MustGauge("repro_http_inflight", "requests currently being served", "endpoint", ep),
			latency:  s.reg.MustHistogram(metricRequestSeconds, "request latency", latencyBounds, "endpoint", ep),
			stages:   map[string]*obs.Histogram{},
		}
		for _, code := range statusCodes {
			em.requests[code] = s.reg.MustCounter("repro_http_requests_total", "requests served", "endpoint", ep, "code", strconv.Itoa(code))
		}
		for _, stage := range stageNames {
			em.stages[stage] = s.reg.MustHistogram(metricStageSeconds, "request latency attributed per stage", latencyBounds, "endpoint", ep, "stage", stage)
		}
		s.metrics[ep] = em
	}

	// /v1/simulate items are most of what the result cache holds, so
	// their keys take the dictionary's one-byte codes; registering each
	// endpoint adds its own response's keys.
	cache.AddKeys(jsonKeys(reflect.TypeFor[SimulateResponse]())...)
	registerRoutes(s)

	// The distributed cache dispatches misses to the loader register()
	// stored for each endpoint; with Peers set it also shards ownership
	// across replicas and serves its shard on cache.FillPath.
	s.cmetrics = cache.NewMetrics(s.reg)
	dc, err := cache.New(cache.Config{
		Self:    cfg.Self,
		Peers:   cfg.Peers,
		Entries: cfg.CacheSize,
		Loader: func(ctx context.Context, endpoint string, canonical []byte) ([]byte, error) {
			ld := s.loaders[endpoint]
			if ld == nil {
				return nil, fmt.Errorf("no loader for endpoint %q", endpoint)
			}
			return ld(ctx, canonical)
		},
		Client:  &http.Client{Timeout: cfg.RequestTimeout},
		Metrics: s.cmetrics,
	})
	if err != nil {
		return nil, err
	}
	s.dcache = dc
	s.mux.Handle(cache.FillPath, dc.FillHandler())

	// The async job queue: replay the journal (recovering any job a crash
	// interrupted), register the job API, and start the worker loop. The
	// goroutine lives here — internal/jobs is determinism-scoped and the
	// caller owns the worker.
	mgr, err := jobs.New(jobs.Config{
		Dir:       cfg.JobsDir,
		MaxQueued: cfg.MaxQueuedJobs,
		Workers:   cfg.Workers,
		Runners:   jobs.DefaultRunners(),
		Metrics:   jobs.NewMetrics(s.reg),
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	registerJobRoutes(s)
	jctx, jcancel := context.WithCancel(context.Background())
	s.stopJobs = jcancel
	s.jobsDone = make(chan struct{})
	go func() {
		defer close(s.jobsDone)
		mgr.Run(jctx)
	}()

	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Handler returns the server's root handler (panic recovery included), for
// httptest and embedding.
func (s *Server) Handler() http.Handler {
	return s.recoverPanics(s.mux)
}

// Registry exposes the server's metric registry (loadgen and tests read it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// ListenAndServe serves on the configured address until Shutdown.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve serves on an existing listener until Shutdown; cmd/serve and tests
// use it to bind port 0 and learn the real address.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown gracefully drains in-flight requests, then stops the job worker
// and closes the queue journal. A job mid-run stays "running" in the
// journal and resumes from its last completed chunk on the next start —
// graceful shutdown deliberately exercises the crash-recovery path.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.closeJobs()
	return err
}

// Close releases the job worker and journal without serving shutdown; for
// tests and callers that never called Serve. Idempotent with Shutdown.
func (s *Server) Close() error {
	s.closeJobs()
	return nil
}

// closeJobs stops the worker loop, waits for it to park, and closes the
// journal — exactly once, however many of Shutdown/Close run.
func (s *Server) closeJobs() {
	s.closeOnce.Do(func() {
		s.stopJobs()
		<-s.jobsDone
		_ = s.jobs.Close()
	})
}

// recoverPanics is the outermost middleware: any panic escaping a handler
// (the exec pool already fences per-item panics) becomes a structured 500.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeError(w, http.StatusInternalServerError, APIError{
					Code:    CodeInternal,
					Message: fmt.Sprintf("handler panic: %v", rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleMetrics serves the obs registry: Prometheus text by default,
// machine-readable JSON with ?format=json. Runtime gauges are sampled at
// scrape time, so they are exactly as fresh as the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.runtime.sample()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := s.reg.WriteJSON(w); err != nil {
			writeError(w, http.StatusInternalServerError, APIError{Code: CodeInternal, Message: err.Error()})
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WriteProm(w); err != nil {
		writeError(w, http.StatusInternalServerError, APIError{Code: CodeInternal, Message: err.Error()})
	}
}

// writeIndentedJSON emits an indented JSON body for the human-facing debug
// surfaces (curl without jq should still be readable).
func writeIndentedJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits a structured error body with the given status.
func writeError(w http.ResponseWriter, status int, e APIError) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: e})
}

// endpointSpec wires one batch endpoint: defaults normalises a decoded item
// (so semantically identical requests share a cache key), validate rejects
// bad items with a 400 before any work runs, and run computes one item.
type endpointSpec[Req, Resp any] struct {
	// path is the endpoint's route ("/v1/classify").
	path string
	// defaults fills unset optional fields in place.
	defaults func(*Req)
	// validate returns a human-readable reason when the item is
	// unacceptable; the whole batch is then rejected with a 400 naming the
	// item index.
	validate func(Req) error
	// run computes one item. A returned error becomes the item's ItemError
	// slot; the other items are unaffected. run must be deterministic in
	// Req — the result cache depends on it.
	run func(context.Context, Req) (Resp, error)
}

// makeLoader adapts one endpoint's run function into the distributed
// cache's loader shape: canonical bytes in, response bytes out. It is the
// compute path for local misses AND for peer fill requests arriving on
// cache.FillPath — a peer-supplied canonical is untrusted input, so it is
// decoded strictly and re-validated before running.
func makeLoader[Req, Resp any](ep endpointSpec[Req, Resp]) func(ctx context.Context, canonical []byte) ([]byte, error) {
	return func(ctx context.Context, canonical []byte) ([]byte, error) {
		var req Req
		dec := json.NewDecoder(bytes.NewReader(canonical))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("canonical item: %w", err)
		}
		if ep.defaults != nil {
			ep.defaults(&req)
		}
		if err := ep.validate(req); err != nil {
			return nil, err
		}
		resp, err := ep.run(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	}
}

// jsonKeys returns the object keys encoding/json can write for a value of
// type t: the JSON names of its fields and of the fields of the structs it
// holds, in field order. Map keys depend on the data and are left out.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array || t.Kind() == reflect.Map {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || seen[t] {
			return
		}
		seen[t] = true
		for i := range t.NumField() {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case name == "-" || !f.IsExported() && !f.Anonymous:
				continue
			case f.Anonymous && name == "":
				walk(f.Type) // promoted fields
				continue
			case name == "":
				name = f.Name
			}
			keys = append(keys, name)
			walk(f.Type)
		}
	}
	walk(t)
	return keys
}

// register installs the endpoint on the server's mux with the full
// middleware stack: method gate, concurrency gate, timeout, metrics,
// per-item caching, exec fan-out.
func register[Req, Resp any](s *Server, ep endpointSpec[Req, Resp]) {
	em := s.metrics[ep.path]
	gate := s.limiters[ep.path]
	if em == nil || gate == nil {
		panic(fmt.Sprintf("server: endpoint %q not declared in Endpoints()", ep.path))
	}
	s.loaders[ep.path] = makeLoader(ep)
	cache.AddKeys(jsonKeys(reflect.TypeFor[Resp]())...)
	s.mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r, rt, root := s.traceStart(r, ep.path)
		var st stageTimes
		status := serveBatch(s, w, r, ep, em, gate, &st)
		s.traceFinish(rt, root, status)
		dur := time.Since(start)
		em.latency.Observe(dur.Seconds())
		if c := em.requests[status]; c != nil {
			c.Inc()
		}
		s.logRequest(ep.path, rt, status, dur, st)
	})
}

// serveBatch is the shared batch request path; it returns the status code
// written (for the request counter) and fills st with the per-stage
// stopwatch readings that also land in the stage histograms.
func serveBatch[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, ep endpointSpec[Req, Resp], em *endpointMetrics, gate *limiter, st *stageTimes) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, APIError{
			Code:    CodeMethod,
			Message: fmt.Sprintf("%s takes POST, got %s", ep.path, r.Method),
		})
		return http.StatusMethodNotAllowed
	}
	if !gate.TryAcquire() {
		em.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, APIError{
			Code:    CodeOverloaded,
			Message: fmt.Sprintf("%s is at its concurrency limit; retry shortly", ep.path),
		})
		return http.StatusTooManyRequests
	}
	defer gate.Release()
	em.enter()
	defer em.leave()
	rctx := r.Context()

	items, keys, canons, errStatus := decodeStage(s, w, r, ep, em, st)
	if errStatus != 0 {
		return errStatus
	}
	em.items.Add(int64(len(items)))

	// Split into cache hits and misses. Hits and misses interleave back in
	// item order; the hit bytes are the exact bytes an earlier miss stored.
	results, missIdx := cacheStage(s, rctx, em, keys, st)

	// Fan the misses across the worker pool. The exec observer attributes
	// each item's share of the stage wall time between waiting for a pool
	// slot and executing, and mirrors both as retroactive spans so the
	// request trace shows the fan-out shape.
	ectx, esp := obs.StartSpan(rctx, "exec")
	execStart := time.Now()
	ctx, cancel := context.WithTimeout(ectx, s.cfg.RequestTimeout)
	defer cancel()
	ctx = exec.WithObserver(ctx, func(bi int, wait, run time.Duration, err error) {
		em.stages["queue"].Observe(wait.Seconds())
		em.stages["item"].Observe(run.Seconds())
		if wait > 0 {
			obs.RecordSpan(ectx, "queue-wait", int32(missIdx[bi]+1), execStart, wait)
		}
	})
	batch := exec.Map(ctx, s.cfg.Workers, missIdx, func(ctx context.Context, i int) (json.RawMessage, error) {
		ictx, isp := obs.StartSpan(ctx, "item")
		defer isp.End()
		isp.SetTrack(int32(i + 1))
		// The distributed cache resolves the miss: peer fill when another
		// replica owns the key, a (singleflight-coalesced) local compute
		// through this endpoint's loader otherwise. Successful bytes land
		// in the local LRU inside Fetch.
		v, _, err := s.dcache.Fetch(ictx, keys[i], ep.path, canons[i])
		if err != nil {
			return nil, err
		}
		return v, nil
	})
	timedOut := false
	for bi, res := range batch {
		i := missIdx[bi]
		switch {
		case res.Err == nil:
			results[i] = json.RawMessage(res.Value)
		case errors.Is(res.Err, context.DeadlineExceeded):
			timedOut = true
		default:
			// Per-item failures (including fenced panics) fill the item's
			// slot; the rest of the batch is unaffected and uncached.
			results[i] = marshalItemError(res.Err)
		}
	}
	esp.End()
	st.exec = time.Since(execStart)
	em.stages["exec"].Observe(st.exec.Seconds())
	if timedOut {
		writeError(w, http.StatusGatewayTimeout, APIError{
			Code:    CodeTimeout,
			Message: fmt.Sprintf("request exceeded the %s deadline", s.cfg.RequestTimeout),
		})
		return http.StatusGatewayTimeout
	}

	return encodeStage(s, rctx, w, em, results, len(items), st)
}

// decodeStage reads and strictly decodes the envelope, then each item:
// unknown fields are a client error, not silently dropped request knobs.
// Items the local cache does not hold are validated. It returns each
// item's canonical encoding (the defaults-applied struct re-marshaled) and
// its cache key. A non-zero returned status means the error response was
// already written.
func decodeStage[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, ep endpointSpec[Req, Resp], em *endpointMetrics, st *stageTimes) (items []Req, keys []string, canons [][]byte, errStatus int) {
	_, sp := obs.StartSpan(r.Context(), "decode")
	defer sp.End()
	start := time.Now()
	defer func() {
		st.decode = time.Since(start)
		em.stages["decode"].Observe(st.decode.Seconds())
	}()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var env BatchEnvelope[json.RawMessage]
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		writeError(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "body: " + err.Error()})
		return nil, nil, nil, http.StatusBadRequest
	}
	if len(env.Requests) == 0 {
		writeError(w, http.StatusBadRequest, APIError{Code: CodeEmptyBatch, Message: `"requests" must hold at least one item`})
		return nil, nil, nil, http.StatusBadRequest
	}
	if len(env.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, APIError{
			Code:    CodeBatchTooLarge,
			Message: fmt.Sprintf("batch holds %d items, limit is %d", len(env.Requests), s.cfg.MaxBatch),
		})
		return nil, nil, nil, http.StatusBadRequest
	}

	items = make([]Req, len(env.Requests))
	keys = make([]string, len(env.Requests))
	canons = make([][]byte, len(env.Requests))
	for i, raw := range env.Requests {
		idx := i
		itemDec := json.NewDecoder(bytes.NewReader(raw))
		itemDec.DisallowUnknownFields()
		if err := itemDec.Decode(&items[i]); err != nil {
			writeError(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "item: " + err.Error(), Index: &idx})
			return nil, nil, nil, http.StatusBadRequest
		}
		if ep.defaults != nil {
			ep.defaults(&items[i])
		}
		// Canonical encoding: the defaults-applied struct re-marshaled, so
		// field order, whitespace and spelled-out defaults all hash
		// identically — on this replica and on every peer.
		canon, mErr := json.Marshal(items[i])
		if mErr == nil {
			canons[i] = canon
			keys[i] = cache.Key(ep.path, canon)
		}
		// Only a loader that validated this same canonical item can have
		// filled the local cache, so a cached item skips validation.
		if mErr != nil || !s.dcache.Contains(keys[i]) {
			if err := ep.validate(items[i]); err != nil {
				apiErr := APIError{Code: CodeInvalid, Message: err.Error(), Index: &idx}
				var ce *checkError
				if errors.As(err, &ce) {
					apiErr.Findings = ce.findings
				}
				writeError(w, http.StatusBadRequest, apiErr)
				return nil, nil, nil, http.StatusBadRequest
			}
		}
		if mErr != nil {
			writeError(w, http.StatusInternalServerError, APIError{Code: CodeInternal, Message: mErr.Error()})
			return nil, nil, nil, http.StatusInternalServerError
		}
	}
	return items, keys, canons, 0
}

// cacheStage looks every item key up in the result cache, returning the
// result slots (hits pre-filled) and the miss indices.
func cacheStage(s *Server, ctx context.Context, em *endpointMetrics, keys []string, st *stageTimes) (results []json.RawMessage, missIdx []int) {
	_, sp := obs.StartSpan(ctx, "cache")
	defer sp.End()
	start := time.Now()
	defer func() {
		st.cache = time.Since(start)
		em.stages["cache"].Observe(st.cache.Seconds())
	}()

	results = make([]json.RawMessage, len(keys))
	for i := range keys {
		if cached, ok := s.dcache.Lookup(keys[i]); ok {
			results[i] = cached
			em.hits.Inc()
		} else {
			missIdx = append(missIdx, i)
			em.misses.Inc()
		}
	}
	return results, missIdx
}

// encodeStage marshals the result envelope and writes the response.
func encodeStage(s *Server, ctx context.Context, w http.ResponseWriter, em *endpointMetrics, results []json.RawMessage, items int, st *stageTimes) int {
	_, sp := obs.StartSpan(ctx, "encode")
	defer sp.End()
	start := time.Now()
	defer func() {
		st.encode = time.Since(start)
		em.stages["encode"].Observe(st.encode.Seconds())
	}()

	st.items = items
	body, err := json.Marshal(struct {
		Results []json.RawMessage `json:"results"`
	}{results})
	if err != nil {
		writeError(w, http.StatusInternalServerError, APIError{Code: CodeInternal, Message: err.Error()})
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Batch-Items", strconv.Itoa(items))
	_, _ = w.Write(body)
	return http.StatusOK
}

// marshalItemError encodes a run failure as the item's result slot.
func marshalItemError(err error) json.RawMessage {
	var pe *exec.PanicError
	code := CodeRunFailed
	if errors.As(err, &pe) {
		code = CodeInternal
	}
	b, mErr := json.Marshal(ItemError{Error: &APIError{Code: code, Message: err.Error()}})
	if mErr != nil {
		return json.RawMessage(`{"error":{"code":"internal","message":"error encoding failed"}}`)
	}
	return b
}
