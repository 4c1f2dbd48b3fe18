package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/conformance"
	"repro/internal/modelzoo"
	"repro/internal/server"
	"repro/internal/taxonomy"
)

const simulatePath = "/v1/simulate"

// Serving sizes. The served workloads call the handler in-process: over
// loopback TCP, runs spread several times wider, and the transport is no
// code of this repository.
const (
	coldWarmKeys = 50   // serve-cold keys sent during set-up
	warmHotKeys  = 64   // serve-warm's hot set
	pacedRate    = 30   // serve-cold's open-loop phase, requests per second
	spanLimit    = 4096 // request spans kept per traced phase
	checkEvery   = 50   // every 50th serve-cold response is re-run directly
)

// isServable reports whether /v1/simulate runs the class: every simulated
// class but the spatial processors.
func isServable(class string) bool { return !strings.HasPrefix(class, "ISP") }

// simulateKeys returns one epoch of served simulate keys: every servable
// (class, kernel) cell of the conformance matrix at every size n = procs*k,
// procs in {4, 8} and k in [4, 16], each once. The seed sets the order, but
// the order is stratified: the epoch is 26 rounds, each round holds every
// cell once, and within a round the cells of one kernel take evenly spaced
// sizes. Every few rounds therefore carry nearly the same work, so a
// time-boxed run's throughput does not depend on how far it got, and
// different seeds give the same mix.
func simulateKeys(seed int64) []server.SimulateRequest {
	type size struct{ n, procs int }
	var sizes []size
	for _, p := range []int{4, 8} {
		for k := 4; k <= 16; k++ {
			sizes = append(sizes, size{p * k, p})
		}
	}
	sort.Slice(sizes, func(i, j int) bool {
		if sizes[i].n != sizes[j].n {
			return sizes[i].n < sizes[j].n
		}
		return sizes[i].procs < sizes[j].procs
	})
	var cells []conformance.Cell
	for _, c := range conformance.Matrix() {
		if isServable(c.Class) {
			cells = append(cells, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	off := make([]int, len(cells))
	for _, kernel := range conformance.KernelNames() {
		var group []int
		for i, c := range cells {
			if c.Kernel == kernel {
				group = append(group, i)
			}
		}
		base := rng.Intn(len(sizes))
		for j, gi := range rng.Perm(len(group)) {
			off[group[gi]] = base + j*len(sizes)/len(group)
		}
	}
	keys := make([]server.SimulateRequest, 0, len(sizes)*len(cells))
	for round := range sizes {
		for _, ci := range rng.Perm(len(cells)) {
			s := sizes[(round+off[ci])%len(sizes)]
			keys = append(keys, server.SimulateRequest{Class: cells[ci].Class, Kernel: cells[ci].Kernel, N: s.n, Procs: s.procs})
		}
	}
	return keys
}

func encodeKeys(keys []server.SimulateRequest) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := json.Marshal(server.BatchEnvelope[server.SimulateRequest]{Requests: []server.SimulateRequest{k}})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// target is one server under test plus the time its callers spent inside
// its handler.
type target struct {
	srv      *server.Server
	h        http.Handler
	clientNs atomic.Int64
	requests atomic.Int64
}

func newTarget() (*target, error) {
	srv, err := server.New(server.Config{Workers: workers, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	return &target{srv: srv, h: srv.Handler()}, nil
}

func (t *target) close() { _ = t.srv.Close() } // Close only stops the job worker; it cannot fail

// post sends one /v1/simulate request and returns the response and the time
// from send to return.
func (t *target) post(body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, simulatePath, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	d := time.Since(start)
	t.clientNs.Add(int64(d))
	t.requests.Add(1)
	return rec, d
}

// lookups returns the server's /v1/simulate cache hits and misses so far.
func (t *target) lookups() (hits, misses int64) {
	reg := t.srv.Registry()
	hits, _ = reg.CounterValue("repro_cache_hits_total", "endpoint", simulatePath)
	misses, _ = reg.CounterValue("repro_cache_misses_total", "endpoint", simulatePath)
	return hits, misses
}

// checkResponse verifies a simulate response: status 200, one result, no
// item error, the key echoed back, and a run that retired instructions.
func checkResponse(k server.SimulateRequest, code int, body []byte) (server.SimulateResponse, error) {
	if code != http.StatusOK {
		return server.SimulateResponse{}, fmt.Errorf("status %d: %.200s", code, body)
	}
	var env struct {
		Results []server.SimulateResponse `json:"results"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return server.SimulateResponse{}, fmt.Errorf("decoding response: %w", err)
	}
	if len(env.Results) != 1 {
		return server.SimulateResponse{}, fmt.Errorf("%d results, want 1", len(env.Results))
	}
	res := env.Results[0]
	switch {
	case res.Error != nil:
		return res, fmt.Errorf("item error: %s", res.Error.Message)
	case res.Class != k.Class || res.Kernel != k.Kernel || res.N != k.N || res.Procs != k.Procs:
		return res, fmt.Errorf("response is for %s/%s n=%d procs=%d", res.Kernel, res.Class, res.N, res.Procs)
	case res.Cycles <= 0 || res.Instructions <= 0:
		return res, fmt.Errorf("run reported %d cycles, %d instructions", res.Cycles, res.Instructions)
	}
	return res, nil
}

// closedLoop runs one caller per latency histogram of ph, each sending its
// next request as soon as the previous one returns, until send reports
// false. send returns the latency to record for the request it made.
func closedLoop(ph *phase, send func(caller int) (time.Duration, bool)) {
	counts := make([]int64, len(ph.lats))
	busy := make([]time.Duration, len(ph.lats))
	var wg sync.WaitGroup
	for c := range ph.lats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				d, ok := send(c)
				if !ok {
					return
				}
				ph.lats[c].add(d)
				counts[c]++
				busy[c] += d
			}
		}(c)
	}
	wg.Wait()
	for c := range counts {
		ph.items += counts[c]
		ph.busy += busy[c]
	}
}

// closedBursts runs a closed loop with `workers` callers for d, in
// calibrated bursts; send makes one request.
func closedBursts(d time.Duration, send func(caller int) time.Duration) *phase {
	return bursts(d, workers, func(ph *phase, until time.Time) {
		closedLoop(ph, func(c int) (time.Duration, bool) {
			if !time.Now().Before(until) {
				return 0, false
			}
			return send(c), true
		})
	})
}

func keyLabel(k server.SimulateRequest) string {
	return fmt.Sprintf("%s/%s n=%d procs=%d", k.Kernel, k.Class, k.N, k.Procs)
}

// coldStream hands out serve-cold keys in stream order. Every request must
// miss the cache, so each pass over the keys (an epoch) goes to a fresh
// server. The set-up warmed the first server with a fixed set of keys, which
// the first epoch therefore skips.
type coldStream struct {
	keys   []server.SimulateRequest
	bodies [][]byte
	first  []int // the first epoch's key indices, without the warm-up keys

	mu      sync.Mutex
	targets []*target
	next    atomic.Int64
	// served keeps the guest counts of sampled responses by key index.
	served map[int]guest
}

// setupSeed picks the keys set-up uses. It is fixed, so set-up costs the
// same whatever the run's seed; the seed orders the measured requests.
const setupSeed = 0

func newColdStream(seed int64, warm int) (*coldStream, error) {
	keys := simulateKeys(seed)
	bodies, err := encodeKeys(keys)
	if err != nil {
		return nil, err
	}
	warmKeys := simulateKeys(setupSeed)[:warm]
	warmBodies, err := encodeKeys(warmKeys)
	if err != nil {
		return nil, err
	}
	t, err := newTarget()
	if err != nil {
		return nil, err
	}
	s := &coldStream{keys: keys, bodies: bodies, targets: []*target{t}, served: map[int]guest{}}
	warmed := map[server.SimulateRequest]bool{}
	for i, k := range warmKeys {
		rec, _ := t.post(warmBodies[i])
		if _, err := checkResponse(k, rec.Code, rec.Body.Bytes()); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", keyLabel(k), err)
		}
		warmed[k] = true
	}
	for i, k := range keys {
		if !warmed[k] {
			s.first = append(s.first, i)
		}
	}
	return s, nil
}

func (s *coldStream) close() {
	for _, t := range s.targets {
		t.close()
	}
}

// at maps stream position j to its server and key index.
func (s *coldStream) at(j int64) (*target, int, error) {
	epoch, k := int64(0), 0
	if j < int64(len(s.first)) {
		k = s.first[j]
	} else {
		j -= int64(len(s.first))
		n := int64(len(s.keys))
		epoch, k = 1+j/n, int(j%n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for int64(len(s.targets)) <= epoch {
		t, err := newTarget()
		if err != nil {
			return nil, 0, err
		}
		s.targets = append(s.targets, t)
	}
	return s.targets[epoch], k, nil
}

// send makes the request at the next stream position and checks it.
// sample reports whether to keep the response's guest counts.
func (s *coldStream) send(r *runner, instrs *atomic.Int64, sample func(j int64) bool, span bool) time.Duration {
	j := s.next.Add(1) - 1
	t, k, err := s.at(j)
	if err != nil {
		r.fail("starting a server: %v", err)
		return 0
	}
	id := noSpan
	if span && r.rec != nil {
		id = r.rec.begin("request", noSpan, int32(k))
	}
	rec, lat := t.post(s.bodies[k])
	if id != noSpan {
		r.rec.end(id)
	}
	r.attempt(1)
	res, err := checkResponse(s.keys[k], rec.Code, rec.Body.Bytes())
	if err != nil {
		r.fail("%s: %v", keyLabel(s.keys[k]), err)
		return lat
	}
	instrs.Add(res.Instructions)
	if sample(j) {
		s.mu.Lock()
		s.served[k] = guest{res.Cycles, res.Instructions}
		s.mu.Unlock()
	}
	return lat
}

func runServeCold(r *runner) {
	warm, attribN := coldWarmKeys, 96
	if r.cfg.Smoke {
		warm, attribN = 5, 24
	}
	s, err := timedSetup(r, func() (*coldStream, error) { return newColdStream(r.cfg.Seed, warm) }, (*coldStream).close)
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	defer s.close()
	// Responses to check against a direct run are kept, and in a traced run
	// those of the first attribN positions, the attribution keys.
	sample := func(j int64) bool { return j%checkEvery == 0 || r.cfg.Traced && j < int64(attribN) }
	closed := func(d time.Duration, spans bool) (*phase, int64) {
		var instrs, spanned atomic.Int64
		ph := closedBursts(d, func(int) time.Duration {
			return s.send(r, &instrs, sample, spans && spanned.Add(1) <= spanLimit)
		})
		return ph, instrs.Load()
	}

	if r.cfg.Traced {
		plain, _ := closed(r.cfg.measure()/2, false)
		r.reportRuntime(plain)
		traced, _ := closed(r.cfg.measure()/4, true)
		r.reportOverhead(plain, traced)
	} else {
		// Two thirds closed loop, one third paced at a fixed rate.
		ph, instrs := closed(r.cfg.measure()*2/3, false)
		r.reportEndToEnd(ph, float64(instrs))
		r.set("latency_p99_ms", ph.quantileMs(0.99)*ph.speed())
		r.paced(s, r.cfg.measure()/3, sample)
	}
	s.verifySamples(r)

	hits, misses := r.reportServer(s.targets)
	if hits != 0 {
		r.fail("serve-cold hit the cache %d times in %d lookups; every request must miss", hits, hits+misses)
	}
	if r.cfg.Traced {
		items := make([]item, 0, attribN)
		for _, k := range s.first[:attribN] {
			var want *guest
			if g, ok := s.served[k]; ok {
				want = &g
			}
			it, err := keyItem(s.keys[k], want)
			if err != nil {
				r.fail("%v", err)
				return
			}
			items = append(items, it)
		}
		r.attribute(items)
	}
}

// paced sends serve-cold requests on a fixed schedule for d, from two
// callers. Latency counts from the scheduled send time, so a stall also
// charges the requests queued behind it; the generator's own lateness (timer
// overshoot while idle) is reported separately. The schedule runs without
// pauses, so the host speed comes from calibrations before and after.
func (r *runner) paced(s *coldStream, d time.Duration, sample func(int64) bool) {
	period := time.Second / pacedRate
	late := make([]hist, workers)
	var instrs, slot atomic.Int64
	ph := newPhase(workers)
	ph.speeds = append(ph.speeds, hostSpeed())
	start := time.Now()
	end := start.Add(d)
	closedLoop(ph, func(c int) (time.Duration, bool) {
		due := start.Add(time.Duration(slot.Add(1)-1) * period)
		if due.After(end) {
			return 0, false
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			late[c].add(time.Since(due))
		}
		s.send(r, &instrs, sample, false)
		return time.Since(due), true
	})
	ph.speeds = append(ph.speeds, hostSpeed())
	for c := range late[1:] {
		late[0].merge(&late[c+1])
	}
	r.set("paced_p50_ms", ph.quantileMs(0.50)*ph.speed())
	r.set("load.paced_p98_ms", ph.quantileMs(0.98))
	r.set("load.late_ms_p99", late[0].quantileMs(0.99))
}

// verifySamples re-runs every sampled response's key directly through
// modelzoo.RunKernel: the served cycles and instructions must match.
func (s *coldStream) verifySamples(r *runner) {
	for k, g := range s.served {
		key := s.keys[k]
		c, err := taxonomy.LookupString(key.Class)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		res, err := modelzoo.RunKernel(c, key.Kernel, key.N, key.Procs)
		if err != nil {
			r.fail("direct run of %s: %v", keyLabel(key), err)
			continue
		}
		if res.Stats.Cycles != g.cycles || res.Stats.Instructions != g.instrs {
			r.fail("%s served %d cycles / %d instructions, a direct run gives %d / %d",
				keyLabel(key), g.cycles, g.instrs, res.Stats.Cycles, res.Stats.Instructions)
		}
	}
}

// warmSet is serve-warm's server with its hot keys already cached, and the
// exact bytes each hot key must be answered with. The hot set is fixed; the
// run's seed draws the requests from it.
type warmSet struct {
	t      *target
	keys   []server.SimulateRequest
	bodies [][]byte
	expect [][]byte
	served []guest
}

func newWarmSet(hot int) (*warmSet, error) {
	keys := simulateKeys(setupSeed)[:hot]
	bodies, err := encodeKeys(keys)
	if err != nil {
		return nil, err
	}
	t, err := newTarget()
	if err != nil {
		return nil, err
	}
	w := &warmSet{t: t, keys: keys, bodies: bodies}
	for i, k := range keys {
		rec, _ := t.post(bodies[i])
		body := append([]byte(nil), rec.Body.Bytes()...)
		res, err := checkResponse(k, rec.Code, body)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("prefill %s: %w", keyLabel(k), err)
		}
		w.expect = append(w.expect, body)
		w.served = append(w.served, guest{res.Cycles, res.Instructions})
	}
	return w, nil
}

func runServeWarm(r *runner) {
	hot := warmHotKeys
	if r.cfg.Smoke {
		hot = 8
	}
	w, err := timedSetup(r, func() (*warmSet, error) { return newWarmSet(hot) }, func(w *warmSet) { w.t.close() })
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	defer w.t.close()
	setupHits, setupMisses := w.t.lookups()
	loop := func(d time.Duration, spans bool) *phase {
		rngs := make([]*rand.Rand, workers)
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(r.cfg.Seed*workers + int64(c)))
		}
		var spanned atomic.Int64
		ph := closedBursts(d, func(c int) time.Duration {
			i := rngs[c].Intn(len(w.bodies))
			id := noSpan
			if spans && spanned.Add(1) <= spanLimit {
				id = r.rec.begin("request", noSpan, int32(i))
			}
			rec, lat := w.t.post(w.bodies[i])
			if id != noSpan {
				r.rec.end(id)
			}
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.expect[i]) {
				r.fail("%s: status %d, body differs from the cached response: %.200s", keyLabel(w.keys[i]), rec.Code, rec.Body.Bytes())
			}
			return lat
		})
		r.attempt(ph.items)
		return ph
	}

	if r.cfg.Traced {
		plain := loop(r.cfg.measure()/2, false)
		r.reportRuntime(plain)
		traced := loop(r.cfg.measure()/4, true)
		r.reportOverhead(plain, traced)
	} else {
		ph := loop(r.cfg.measure(), false)
		r.reportEndToEnd(ph, 0)
		r.set("latency_p99_ms", ph.quantileMs(0.99)*ph.speed())
	}

	hits, misses := r.reportServer([]*target{w.t})
	hits -= setupHits
	misses -= setupMisses
	if ratio := float64(hits) / float64(max(hits+misses, 1)); ratio < 0.99 {
		r.fail("serve-warm cache hit ratio %.4f after set-up, want at least 0.99", ratio)
	}
	if r.cfg.Traced {
		items := make([]item, len(w.keys))
		for i, k := range w.keys {
			g := w.served[i]
			if items[i], err = keyItem(k, &g); err != nil {
				r.fail("%v", err)
				return
			}
		}
		r.attribute(items)
	}
}

// reportServer reads the targets' registries: stage and request histograms
// over each server's whole life, cache counters, and the concurrency gate's
// rejections. It returns the /v1/simulate cache hits and misses. The stage
// means are per observation: the queue and item stages observe each batch
// item that missed the cache, the others each request. The exec pool's
// metrics come from the queue and item stages too.
func (r *runner) reportServer(ts []*target) (hits, misses int64) {
	type acc struct {
		n   int64
		sum float64
	}
	stages := map[string]*acc{}
	var request acc
	var loads, evictions, rejected, clientNs, requests int64
	var entries float64
	for _, t := range ts {
		reg := t.srv.Registry()
		for _, st := range []string{"decode", "cache", "queue", "item", "exec", "encode"} {
			h, err := reg.Histogram("repro_http_stage_seconds", "", nil, "endpoint", simulatePath, "stage", st)
			if err != nil {
				r.fail("reading stage %s: %v", st, err)
				return 0, 0
			}
			if stages[st] == nil {
				stages[st] = &acc{}
			}
			stages[st].n += h.Count()
			stages[st].sum += h.Sum()
		}
		h, err := reg.Histogram("repro_http_request_seconds", "", nil, "endpoint", simulatePath)
		if err != nil {
			r.fail("reading request latency: %v", err)
			return 0, 0
		}
		request.n += h.Count()
		request.sum += h.Sum()
		counter := func(name string, labels ...string) int64 {
			v, _ := reg.CounterValue(name, labels...)
			return v
		}
		th, tm := t.lookups()
		hits += th
		misses += tm
		rejected += counter("repro_http_rejected_total", "endpoint", simulatePath)
		loads += counter(cache.MetricLoads)
		evictions += counter(cache.MetricEvictions)
		g, err := reg.Gauge(cache.MetricEntries, "")
		if err != nil {
			r.fail("reading cache entries: %v", err)
			return 0, 0
		}
		entries += g.Value()
		clientNs += t.clientNs.Load()
		requests += t.requests.Load()
	}
	if rejected > 0 {
		r.fail("%d requests were refused with 429", rejected)
	}
	r.set("load.rejected_429", float64(rejected))
	r.set("cache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	if !r.cfg.Traced {
		return hits, misses
	}
	meanUs := func(a acc) float64 {
		if a.n == 0 {
			return 0
		}
		return a.sum / float64(a.n) * 1e6
	}
	for st, a := range stages {
		r.set("server."+st+"_us_mean", meanUs(*a))
	}
	r.set("server.request_us_mean", meanUs(request))
	if requests > 0 {
		r.set("server.outside_us_mean", float64(clientNs)/float64(requests)/1e3-meanUs(request))
	}
	r.set("cache.loads", float64(loads))
	r.set("cache.evictions", float64(evictions))
	r.set("cache.entries", entries)
	r.set("exec.queue_wait_ms_per_item", meanUs(*stages["queue"])/1e3)
	if ex := stages["exec"].sum; ex > 0 {
		r.set("exec.parallel_efficiency", stages["item"].sum/ex)
	}
	return hits, misses
}
