package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// tee sends every event to two recorders.
type tee struct{ a, b obs.Tracer }

func (t tee) Emit(e obs.Event) {
	t.a.Emit(e)
	t.b.Emit(e)
}

// itemChrome builds a one-span request trace on a frozen clock, lets attach
// attach simulations under the item span, and returns its Chrome export.
func itemChrome(t *testing.T, attach func(ctx context.Context, sp *obs.Span)) []byte {
	t.Helper()
	at := time.Unix(1000, 0).UTC()
	rt := obs.NewReqTraceAt("req-replay", "/v1/simulate", func() time.Time { return at })
	ctx, sp := obs.StartSpan(obs.WithReqTrace(context.Background(), rt), "item")
	attach(ctx, sp)
	sp.End()
	var buf bytes.Buffer
	if err := rt.Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimulateReplayExport: for one cell of each served family at two
// sizes, the Chrome export that replays a served run is byte-identical to
// the export of the events recorded during that run, the bounded head the
// item span used to keep. Since the whole document matches, so do the
// truncated, event_count and events_kept fields; the test also pins their
// values and that the larger runs exercise truncation.
func TestSimulateReplayExport(t *testing.T) {
	truncated := 0
	for _, cell := range []struct{ class, kernel string }{
		{"IUP", "vecadd"},
		{"IAP-II", "dot"},
		{"IMP-II", "scan"},
		{"DMP-II", "vecadd"},
		{"USP", "vecadd"},
	} {
		for _, n := range []int{16, 256} {
			r := SimulateRequest{Class: cell.class, Kernel: cell.kernel, N: n, Procs: 4}
			label := fmt.Sprintf("%s %s n=%d", cell.class, cell.kernel, n)
			c, err := taxonomy.LookupString(r.Class)
			if err != nil {
				t.Fatal(err)
			}
			var tally obs.Tally
			during := obs.NewTrace()
			if _, err := modelzoo.RunKernel(c, r.Kernel, r.N, r.Procs, workload.WithTracer(tee{&tally, during})); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if tally.Len() == 0 {
				t.Fatalf("%s emitted no events: nothing to replay", label)
			}
			want := itemChrome(t, func(_ context.Context, sp *obs.Span) {
				sp.AttachSim(label, &tally, func(tr obs.Tracer) error {
					for _, e := range during.Events() {
						tr.Emit(e)
					}
					return nil
				})
			})
			got := itemChrome(t, func(ctx context.Context, _ *obs.Span) {
				if _, err := runSimulate(ctx, r); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			})
			if !bytes.Equal(got, want) {
				t.Errorf("%s: replayed export differs from the recorded one\ngot  %.300s\nwant %.300s", label, got, want)
			}

			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Pid  int            `json:"pid"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatal(err)
			}
			for _, e := range doc.TraceEvents {
				if e.Name != "process_name" || e.Pid != 1 {
					continue
				}
				isTrunc, _ := e.Args["truncated"].(bool)
				if isTrunc != (tally.Len() > obs.MaxSimEvents) {
					t.Errorf("%s: truncated=%v for a run of %d events", label, isTrunc, tally.Len())
				}
				if isTrunc {
					truncated++
					count, _ := e.Args["event_count"].(float64)
					kept, _ := e.Args["events_kept"].(float64)
					if int(count) != tally.Len() || int(kept) != obs.MaxSimEvents {
						t.Errorf("%s: event_count %v, events_kept %v; want %d, %d", label, count, kept, tally.Len(), obs.MaxSimEvents)
					}
				}
			}
		}
	}
	if truncated == 0 {
		t.Error("no run was long enough to exercise truncation")
	}
}
