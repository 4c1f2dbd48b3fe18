package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("x_total", "things")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Registration is idempotent: same name+labels is the same series.
	again := r.MustCounter("x_total", "things")
	again.Inc()
	if got := c.Value(); got != 6 {
		t.Errorf("re-registered counter = %d, want 6", got)
	}
	if v, ok := r.CounterValue("x_total"); !ok || v != 6 {
		t.Errorf("CounterValue = %d, %v", v, ok)
	}
	if _, ok := r.CounterValue("nope"); ok {
		t.Error("CounterValue found a nonexistent metric")
	}
}

func TestCounterLabels(t *testing.T) {
	r := NewRegistry()
	a := r.MustCounter("mix_total", "", "op", "add", "track", "0")
	b := r.MustCounter("mix_total", "", "track", "0", "op", "add") // same set, different order
	other := r.MustCounter("mix_total", "", "op", "mul", "track", "0")
	a.Inc()
	b.Inc()
	other.Add(7)
	if v, ok := r.CounterValue("mix_total", "op", "add", "track", "0"); !ok || v != 2 {
		t.Errorf("labeled counter = %d, %v (label order must not matter)", v, ok)
	}
	if v, _ := r.CounterValue("mix_total", "op", "mul", "track", "0"); v != 7 {
		t.Errorf("other series = %d, want 7", v)
	}
	if _, err := r.Counter("mix_total", "", "odd"); err == nil {
		t.Error("odd label list accepted")
	}
}

func TestKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("m", "")
	if _, err := r.Gauge("m", ""); err == nil {
		t.Error("gauge re-registration of a counter accepted")
	}
	if _, err := r.Histogram("m", "", []float64{1}); err == nil {
		t.Error("histogram re-registration of a counter accepted")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.MustGauge("depth", "")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Errorf("gauge = %g, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Errorf("gauge = %g, want -1", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("lat", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("sum = %g, want 106.5", h.Sum())
	}
	if _, err := r.Histogram("bad", "", []float64{2, 1}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("a_total", "help text").Add(3)
	r.MustGauge("b", "").Set(2.5)
	h := r.MustHistogram("c", "", []float64{1, 2})
	h.Observe(1)
	h.Observe(5)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP a_total help text",
		"# TYPE a_total counter",
		"a_total 3",
		"# TYPE b gauge",
		"b 2.5",
		"# TYPE c histogram",
		`c_bucket{le="1"} 1`,
		`c_bucket{le="2"} 1`,
		`c_bucket{le="+Inf"} 2`,
		"c_sum 6",
		"c_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("d", "", []float64{1}, "pe", "3")
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `d_bucket{pe="3",le="1"} 1`) {
		t.Errorf("labeled bucket line wrong:\n%s", b.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("a_total", "").Add(3)
	r.MustGauge("b", "").Set(2.5)
	h := r.MustHistogram("c", "", []float64{1, 2})
	h.Observe(1.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var series []struct {
		Name    string   `json:"name"`
		Kind    string   `json:"kind"`
		Value   *float64 `json:"value"`
		Count   *int64   `json:"count"`
		Buckets []struct {
			Le    string `json:"le"`
			Count int64  `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(b.String()), &series); err != nil {
		t.Fatalf("JSON dump invalid: %v", err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series, want 3", len(series))
	}
	byName := map[string]int{}
	for i, s := range series {
		byName[s.Name] = i
	}
	if s := series[byName["a_total"]]; s.Kind != "counter" || s.Value == nil || *s.Value != 3 {
		t.Errorf("a_total dumped wrong: %+v", s)
	}
	if s := series[byName["b"]]; s.Kind != "gauge" || s.Value == nil || *s.Value != 2.5 {
		t.Errorf("b dumped wrong: %+v", s)
	}
	if s := series[byName["c"]]; s.Kind != "histogram" || s.Count == nil || *s.Count != 1 || len(s.Buckets) != 3 {
		t.Errorf("c dumped wrong: %+v", s)
	}
}
