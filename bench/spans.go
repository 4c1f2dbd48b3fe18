package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. The recorder lives
// in the benchmark, not in internal/obs, so the instrument stays the same
// when the program's own tracing changes.
type span struct {
	Name   string
	Parent int32 // index of the enclosing span, noSpan for a root
	Item   int32 // the workload item (cell, request) it belongs to, noSpan if none
	Start  time.Duration
	End    time.Duration // since the recorder's origin
}

const noSpan int32 = -1

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use by the workers of one batch.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, parent, item int32, start, end time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Item: item,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return int32(len(r.spans) - 1)
}

// begin opens a span whose end is set by end.
func (r *recorder) begin(name string, parent, item int32) int32 {
	now := time.Now()
	return r.add(name, parent, item, now, now)
}

func (r *recorder) end(id int32) time.Duration {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now.Sub(r.origin)
	return s.End - s.Start
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name string, parent, item int32, fn func()) time.Duration {
	id := r.begin(name, parent, item)
	fn()
	return r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// childCover returns, per span, how much of its interval its children cover:
// the length of the union of the children's intervals clipped to the span.
// A span's self time is its duration minus this.
func childCover(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	cover := make([]time.Duration, len(spans))
	for p, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		ivs := make([]iv, 0, len(ks))
		for _, k := range ks {
			lo, hi := max(spans[k].Start, spans[p].Start), min(spans[k].End, spans[p].End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var total time.Duration
		var cur iv
		for i, v := range ivs {
			switch {
			case i == 0:
				cur = v
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				total += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			total += cur.hi - cur.lo
		}
		cover[p] = total
	}
	return cover
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON to path, one thread row
// per workload item (row 0 for spans that belong to no item).
func writeChrome(path string, spans []span) error {
	cover := childCover(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Item + 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "item": s.Item,
				"self_us": float64(s.End-s.Start-cover[i]) / 1e3},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
