package flexbench

import (
	"math"
	"reflect"
	"testing"
)

// cell builds a synthetic scored cell. Synthetic class names are chosen
// outside the taxonomy on purpose: they carry no area, so their energy is
// zero and the cycle-side properties can be checked in isolation.
func cell(kernel, class string, cycles int64) CellMeasure {
	return CellMeasure{Kernel: kernel, Class: class, Runnable: true, Cycles: cycles}
}

// TestScoreBestInClassIsOne: for every kernel at least one class must sit at
// slowdown exactly 1.0 and be flagged Best — the normalisation baseline is
// always a member of the measured set, never an external constant.
func TestScoreBestInClassIsOne(t *testing.T) {
	cells := []CellMeasure{
		cell("k1", "A", 100), cell("k1", "B", 250), cell("k1", "C", 100),
		cell("k2", "A", 30), cell("k2", "B", 10),
	}
	scores := ScoreCells(cells, 4)
	best := map[string]int{}
	for _, s := range scores {
		for _, k := range s.Kernels {
			if k.Slowdown < 1 {
				t.Errorf("%s/%s: slowdown %v < 1", s.Class, k.Kernel, k.Slowdown)
			}
			if k.Best {
				if k.Slowdown != 1.0 {
					t.Errorf("%s/%s: best cell has slowdown %v", s.Class, k.Kernel, k.Slowdown)
				}
				best[k.Kernel]++
			}
		}
	}
	// k1 is tied at 100 cycles between A and C: both are best.
	if best["k1"] != 2 || best["k2"] != 1 {
		t.Errorf("best counts = %v, want k1:2 k2:1", best)
	}
}

// TestScoreScaleInvariance: multiplying every cycle count by a constant
// leaves every slowdown, coverage, geomean and score bit-identical — the
// frontier measures relative shape, not absolute speed. The factor is a
// power of two so the int64→float64 arithmetic stays exact.
func TestScoreScaleInvariance(t *testing.T) {
	cells := []CellMeasure{
		cell("k1", "A", 123), cell("k1", "B", 457), cell("k1", "C", 7919),
		cell("k2", "A", 31), cell("k2", "C", 997),
		cell("k3", "B", 5), cell("k3", "C", 17),
	}
	scaled := make([]CellMeasure, len(cells))
	for i, c := range cells {
		c.Cycles *= 1 << 10
		scaled[i] = c
	}
	a, b := ScoreCells(cells, 4), ScoreCells(scaled, 4)
	if len(a) != len(b) {
		t.Fatalf("class counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Raw cycles differ by construction; everything derived must not.
		x, y := a[i], b[i]
		for j := range y.Kernels {
			y.Kernels[j].Cycles = x.Kernels[j].Cycles
		}
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: scores drifted under x1024 scaling:\n  base:   %+v\n  scaled: %+v", x.Class, x, y)
		}
	}
}

// TestScoreDominatedAddInvariance: adding a class that is strictly worse at
// everything must not move any existing class's row — the weights (area,
// structural score) are class-intrinsic and the baselines are minima, so a
// dominated newcomer can shift neither.
func TestScoreDominatedAddInvariance(t *testing.T) {
	base := []CellMeasure{
		cell("k1", "A", 100), cell("k1", "B", 300),
		cell("k2", "A", 50), cell("k2", "B", 40),
	}
	withDominated := append(append([]CellMeasure{}, base...),
		cell("k1", "Z", 1<<40), cell("k2", "Z", 1<<40))
	a, b := ScoreCells(base, 4), ScoreCells(withDominated, 4)
	if len(b) != len(a)+1 {
		t.Fatalf("expected one extra class, got %d vs %d", len(b), len(a))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s: adding a dominated class changed the row:\n  before: %+v\n  after:  %+v",
				a[i].Class, a[i], b[i])
		}
	}
	z := b[len(b)-1]
	if z.Class != "Z" || z.Score >= a[0].Score {
		t.Errorf("dominated class scored %+v, want strictly below %s's %v", z, a[0].Class, a[0].Score)
	}
}

// TestScoreHolesAndFailuresNeverDivide: unrunnable holes, error cells and
// zero-cycle cells all cost coverage without ever reaching a division; a
// class with nothing scored gets zeros, not NaN.
func TestScoreHolesAndFailuresNeverDivide(t *testing.T) {
	cells := []CellMeasure{
		cell("k1", "A", 100),
		{Kernel: "k2", Class: "A"}, // unrunnable hole
		{Kernel: "k3", Class: "A", Runnable: true, Err: "machine: exploded"}, // failed run
		{Kernel: "k1", Class: "B", Runnable: true, Cycles: 0},                // degenerate count
		{Kernel: "k2", Class: "B"},
		{Kernel: "k3", Class: "B"},
	}
	scores := ScoreCells(cells, 4)
	if len(scores) != 2 {
		t.Fatalf("got %d classes, want 2", len(scores))
	}
	a, b := scores[0], scores[1]
	if a.Coverage != 1.0/3.0 || len(a.Kernels) != 1 || len(a.Errors) != 1 {
		t.Errorf("A = %+v, want 1/3 coverage, 1 scored kernel, 1 error", a)
	}
	if b.Coverage != 0 || b.Score != 0 || b.GeomeanSlowdown != 0 || len(b.Kernels) != 0 {
		t.Errorf("B = %+v, want all-zero row", b)
	}
	for _, s := range scores {
		for _, v := range []float64{s.Coverage, s.GeomeanSlowdown, s.Score, s.ScorePerMGE, s.GeomeanEnergyRatio, s.EnergyScore} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite value in %+v", s.Class, s)
			}
		}
	}
}

// TestScoreEmptyInput: the scorer is total.
func TestScoreEmptyInput(t *testing.T) {
	if got := ScoreCells(nil, 4); len(got) != 0 {
		t.Errorf("ScoreCells(nil) = %v, want empty", got)
	}
}

// TestSpearman pins the rank correlation on known samples.
func TestSpearman(t *testing.T) {
	cases := []struct {
		name string
		x, y []float64
		want float64
	}{
		{"perfect monotone", []float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{"perfect inverse", []float64{1, 2, 3, 4}, []float64{8, 6, 4, 2}, -1},
		{"nonlinear monotone", []float64{1, 2, 3, 4}, []float64{1, 10, 100, 1000}, 1},
		{"constant x", []float64{5, 5, 5}, []float64{1, 2, 3}, 0},
		{"too short", []float64{1}, []float64{2}, 0},
		{"mismatched", []float64{1, 2}, []float64{1, 2, 3}, 0},
	}
	for _, tc := range cases {
		if got := Spearman(tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Spearman = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRanksAveragesTies: the tie-corrected rank assignment the Spearman
// computation depends on.
func TestRanksAveragesTies(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ranks = %v, want %v", got, want)
	}
	got = ranks([]float64{7, 7, 7})
	want = []float64{2, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("all-tied ranks = %v, want %v", got, want)
	}
}

// TestOutlierThreshold: a quarter of the field, floored at two places.
func TestOutlierThreshold(t *testing.T) {
	if got := outlierThreshold(4); got != 2 {
		t.Errorf("threshold(4) = %v, want 2", got)
	}
	if got := outlierThreshold(42); got != 10.5 {
		t.Errorf("threshold(42) = %v, want 10.5", got)
	}
}
