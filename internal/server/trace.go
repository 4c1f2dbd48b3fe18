package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
)

// This file is the request-tracing half of the serving layer: request IDs,
// the root span opened per request, the flight recorder that keeps the
// slowest and most recent traces, the /debug/requests surface, structured
// request logging, and the runtime gauges sampled into /metrics. The span
// mechanics live in internal/obs; this file owns the HTTP-shaped policy —
// what gets a span, where traces are kept, and when a request is slow
// enough to log loudly.

// stageNames are the per-request stages the server attributes latency to.
// decode, cache, exec and encode partition the handler's own wall time;
// queue and item subdivide exec — per batch item, the wait for a pool slot
// and the item's execution — so their totals can exceed exec's under
// parallel fan-out.
var stageNames = []string{"decode", "cache", "queue", "item", "exec", "encode"}

// stageTimes carries one request's stage stopwatch readings out of
// serveBatch for the request log.
type stageTimes struct {
	decode, cache, exec, encode time.Duration
	items                       int
}

// nextRequestID issues a process-unique request identifier: a boot-time
// prefix plus a sequence number, cheap and collision-free within one
// serve process.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// traceStart opens the request's trace and root span when tracing is
// enabled, returning the request with the span context attached. With
// tracing disabled it returns the request unchanged and nils — and every
// downstream span call degrades to the zero-allocation no-op path.
func (s *Server) traceStart(r *http.Request, name string) (*http.Request, *obs.ReqTrace, *obs.Span) {
	if !s.tracing {
		return r, nil, nil
	}
	rt := obs.NewReqTrace(s.nextRequestID(), name)
	ctx, root := obs.StartSpan(obs.WithReqTrace(r.Context(), rt), name)
	return r.WithContext(ctx), rt, root
}

// traceFinish ends the root span, stamps the final status and hands the
// snapshot to the flight recorder. Safe on the nil trace of a disabled
// path.
func (s *Server) traceFinish(rt *obs.ReqTrace, root *obs.Span, status int) {
	if rt == nil {
		root.End()
		return
	}
	root.End()
	rt.SetStatus(status)
	s.flight.Record(rt.Snapshot())
}

// logRequest emits the structured request log line: every request at
// Debug, requests at or over the slow threshold at Warn with the stage
// breakdown that explains where the time went.
func (s *Server) logRequest(endpoint string, rt *obs.ReqTrace, status int, d time.Duration, st stageTimes) {
	slow := s.slowThresh > 0 && d >= s.slowThresh
	level := slog.LevelDebug
	msg := "request"
	if slow {
		level, msg = slog.LevelWarn, "slow request"
	}
	if !s.logger.Enabled(context.Background(), level) {
		return
	}
	id := "-"
	if rt != nil {
		id = rt.ID()
	}
	attrs := []any{
		slog.String("id", id),
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Float64("ms", float64(d.Microseconds())/1000),
		slog.Int("items", st.items),
		slog.Float64("decode_ms", float64(st.decode.Microseconds())/1000),
		slog.Float64("cache_ms", float64(st.cache.Microseconds())/1000),
		slog.Float64("exec_ms", float64(st.exec.Microseconds())/1000),
		slog.Float64("encode_ms", float64(st.encode.Microseconds())/1000),
	}
	if slow {
		attrs = append(attrs, slog.Float64("threshold_ms", float64(s.slowThresh.Microseconds())/1000))
	}
	s.logger.Log(context.Background(), level, msg, attrs...)
}

// handleDebugRequests serves the flight recorder:
//
//	GET /debug/requests                     listing (recent + slowest)
//	GET /debug/requests?id=<rid>            one trace's span tree as JSON
//	GET /debug/requests?id=<rid>&format=chrome
//	                                        the merged Chrome trace download
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, APIError{
			Code:    CodeMethod,
			Message: "/debug/requests takes GET, got " + r.Method,
		})
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		w.Header().Set("Content-Type", "application/json")
		body := struct {
			TracingEnabled bool `json:"tracing_enabled"`
			obs.FlightDump
		}{s.tracing, s.flight.Dump()}
		writeIndentedJSON(w, body)
		return
	}
	snap := s.flight.Find(id)
	if snap == nil {
		writeError(w, http.StatusNotFound, APIError{
			Code:    CodeNotFound,
			Message: fmt.Sprintf("request %q is not in the flight recorder (it holds the %d most recent and %d slowest traces)", id, s.cfg.FlightRecent, s.cfg.FlightSlow),
		})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+id+".json"))
		if err := snap.WriteChrome(w); err != nil {
			// A replay that fails or diverges writes no byte, so the
			// attachment header can still be taken back.
			w.Header().Del("Content-Disposition")
			writeError(w, http.StatusInternalServerError, APIError{Code: CodeInternal, Message: err.Error()})
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		writeError(w, http.StatusInternalServerError, APIError{Code: CodeInternal, Message: err.Error()})
	}
}

// runtimeGauges are the process-health instruments /metrics samples on
// every scrape: no background goroutine to leak, and the values are as
// fresh as the scrape that reads them.
type runtimeGauges struct {
	goroutines   *obs.Gauge
	heapAlloc    *obs.Gauge
	heapObjects  *obs.Gauge
	gcCycles     *obs.Gauge
	gcPauseTotal *obs.Gauge
	gcPauseLast  *obs.Gauge
}

// Runtime gauge metric names.
const (
	metricGoroutines   = "repro_runtime_goroutines"
	metricHeapAlloc    = "repro_runtime_heap_alloc_bytes"
	metricHeapObjects  = "repro_runtime_heap_objects"
	metricGCCycles     = "repro_runtime_gc_cycles_total"
	metricGCPauseTotal = "repro_runtime_gc_pause_seconds_total"
	metricGCPauseLast  = "repro_runtime_gc_pause_last_seconds"
)

// newRuntimeGauges registers the runtime instruments.
func newRuntimeGauges(reg *obs.Registry) *runtimeGauges {
	return &runtimeGauges{
		goroutines:   reg.MustGauge(metricGoroutines, "live goroutines"),
		heapAlloc:    reg.MustGauge(metricHeapAlloc, "bytes of allocated heap objects"),
		heapObjects:  reg.MustGauge(metricHeapObjects, "allocated heap objects"),
		gcCycles:     reg.MustGauge(metricGCCycles, "completed GC cycles"),
		gcPauseTotal: reg.MustGauge(metricGCPauseTotal, "cumulative GC stop-the-world pause"),
		gcPauseLast:  reg.MustGauge(metricGCPauseLast, "most recent GC stop-the-world pause"),
	}
}

// sample refreshes the gauges from the runtime.
func (g *runtimeGauges) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.goroutines.Set(float64(runtime.NumGoroutine()))
	g.heapAlloc.Set(float64(ms.HeapAlloc))
	g.heapObjects.Set(float64(ms.HeapObjects))
	g.gcCycles.Set(float64(ms.NumGC))
	g.gcPauseTotal.Set(float64(ms.PauseTotalNs) / 1e9)
	if ms.NumGC > 0 {
		g.gcPauseLast.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
}
