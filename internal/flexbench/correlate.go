package flexbench

import (
	"math"
	"sort"

	"repro/internal/registry"
	"repro/internal/taxonomy"
)

// Result is a complete flexbench verdict: the measured frontier plus its
// correlation against the paper's structural scores. Its JSON form is the
// wire shape of the CLI, the /v1/flexbench endpoint and the jobs campaign,
// and is golden-pinned — it must stay byte-identical across worker counts.
type Result struct {
	Params Params `json:"params"`
	// Kernels is the kernel vocabulary, in row order.
	Kernels []string `json:"kernels"`
	// Pass reports that every runnable cell ran and matched its reference.
	Pass bool `json:"pass"`
	// Scores is the empirical frontier, one row per class in column order.
	Scores []ClassScore `json:"scores"`
	// TableII correlates the measured scores against the paper's Table II
	// structural scores across the classes.
	TableII Correlation `json:"table_ii"`
	// Survey correlates them against the 25 surveyed architectures'
	// printed flexibilities (Table III).
	Survey SurveyCorrelation `json:"survey"`
}

// Analyze scores measured cells and builds the full result.
func Analyze(p Params, cells []CellMeasure) (Result, error) {
	res := Result{Params: p, Scores: ScoreCells(cells, p.Procs)}
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Kernel] {
			seen[c.Kernel] = true
			res.Kernels = append(res.Kernels, c.Kernel)
		}
	}
	res.Pass = len(cells) > 0
	for _, c := range cells {
		if c.Runnable && !c.scored() {
			res.Pass = false
		}
	}
	res.TableII = CorrelateTableII(res.Scores)
	survey, err := CorrelateSurvey(res.Scores)
	if err != nil {
		return Result{}, err
	}
	res.Survey = survey
	return res, nil
}

// RankRow is one class's entry in the structural-vs-measured comparison.
// Ranks are ascending (1 = least flexible) with ties averaged; RankDelta is
// the measured rank minus the structural rank, so a positive delta means
// the class measures more flexible than the paper scores it.
type RankRow struct {
	Class          string  `json:"class"`
	Structural     int     `json:"structural"`
	Empirical      float64 `json:"empirical"`
	StructuralRank float64 `json:"structural_rank"`
	EmpiricalRank  float64 `json:"empirical_rank"`
	RankDelta      float64 `json:"rank_delta"`
	Outlier        bool    `json:"outlier,omitempty"`
}

// Correlation is the Spearman rank correlation between the paper's
// Table II structural scores and the measured scores, with the per-class
// rank deltas and an explicit outlier report.
type Correlation struct {
	Spearman float64   `json:"spearman"`
	Pairs    int       `json:"pairs"`
	Rows     []RankRow `json:"rows"`
	// Outliers names the classes whose rank moved more than
	// max(2, pairs/4) places between the structural and measured orders.
	Outliers []string `json:"outliers,omitempty"`
}

// CorrelateTableII compares the measured scores against Table II across
// every class with a structural score.
func CorrelateTableII(scores []ClassScore) Correlation {
	var rows []RankRow
	var xs, ys []float64
	for _, s := range scores {
		if s.StructuralFlexibility < 0 {
			continue
		}
		rows = append(rows, RankRow{Class: s.Class, Structural: s.StructuralFlexibility, Empirical: s.Score})
		xs = append(xs, float64(s.StructuralFlexibility))
		ys = append(ys, s.Score)
	}
	c := Correlation{Spearman: Spearman(xs, ys), Pairs: len(rows), Rows: rows}
	rx, ry := ranks(xs), ranks(ys)
	threshold := outlierThreshold(len(rows))
	for i := range rows {
		rows[i].StructuralRank = rx[i]
		rows[i].EmpiricalRank = ry[i]
		rows[i].RankDelta = ry[i] - rx[i]
		if math.Abs(rows[i].RankDelta) > threshold {
			rows[i].Outlier = true
			c.Outliers = append(c.Outliers, rows[i].Class)
		}
	}
	return c
}

// SurveyRankRow is one surveyed architecture's comparison: its printed
// Table III flexibility against the measured score of its derived class.
type SurveyRankRow struct {
	Arch               string  `json:"arch"`
	Class              string  `json:"class"`
	PrintedFlexibility int     `json:"printed_flexibility"`
	Empirical          float64 `json:"empirical"`
	// InstructionFlow marks the rows the paper considers mutually
	// comparable (data-flow scores are incomparable with instruction-flow
	// ones; USP compares with both).
	InstructionFlow bool    `json:"instruction_flow"`
	RankDelta       float64 `json:"rank_delta"`
	Outlier         bool    `json:"outlier,omitempty"`
}

// SurveyCorrelation compares the measurement against the 25 surveyed
// architectures of Table III.
type SurveyCorrelation struct {
	// Spearman is the rank correlation over every covered architecture;
	// SpearmanComparable drops the data-flow rows, honouring the paper's
	// incomparability rule.
	Spearman           float64         `json:"spearman"`
	SpearmanComparable float64         `json:"spearman_comparable"`
	Pairs              int             `json:"pairs"`
	Rows               []SurveyRankRow `json:"rows"`
	Outliers           []string        `json:"outliers,omitempty"`
	// Uncovered names surveyed architectures whose derived class is not in
	// the measured set (empty for a full-universe measurement).
	Uncovered []string `json:"uncovered,omitempty"`
}

// CorrelateSurvey re-derives the Table III survey and correlates each
// architecture's printed flexibility with the measured score of its
// derived class.
func CorrelateSurvey(scores []ClassScore) (SurveyCorrelation, error) {
	derived, err := registry.DeriveAll()
	if err != nil {
		return SurveyCorrelation{}, err
	}
	byClass := map[string]ClassScore{}
	for _, s := range scores {
		byClass[s.Class] = s
	}
	var out SurveyCorrelation
	var xs, ys []float64
	for _, d := range derived {
		cl := d.Class.String()
		s, ok := byClass[cl]
		if !ok {
			out.Uncovered = append(out.Uncovered, d.Entry.Arch.Name)
			continue
		}
		out.Rows = append(out.Rows, SurveyRankRow{
			Arch:               d.Entry.Arch.Name,
			Class:              cl,
			PrintedFlexibility: d.Entry.PrintedFlexibility,
			Empirical:          s.Score,
			InstructionFlow:    d.Class.Name.Machine != taxonomy.DataFlow,
		})
		xs = append(xs, float64(d.Entry.PrintedFlexibility))
		ys = append(ys, s.Score)
	}
	out.Pairs = len(out.Rows)
	out.Spearman = Spearman(xs, ys)
	var cxs, cys []float64
	for i, r := range out.Rows {
		if r.InstructionFlow {
			cxs = append(cxs, xs[i])
			cys = append(cys, ys[i])
		}
	}
	out.SpearmanComparable = Spearman(cxs, cys)
	rx, ry := ranks(xs), ranks(ys)
	threshold := outlierThreshold(len(out.Rows))
	for i := range out.Rows {
		out.Rows[i].RankDelta = ry[i] - rx[i]
		if math.Abs(out.Rows[i].RankDelta) > threshold {
			out.Rows[i].Outlier = true
			out.Outliers = append(out.Outliers, out.Rows[i].Arch)
		}
	}
	return out, nil
}

// outlierThreshold is the rank movement that flags a row: a quarter of the
// field, but never fewer than two places.
func outlierThreshold(n int) float64 {
	return math.Max(2, float64(n)/4)
}

// Spearman is the rank correlation coefficient of two paired samples,
// computed as the Pearson correlation of their average ranks (the
// tie-correct form). It returns 0 for fewer than two pairs, mismatched
// lengths, or a constant sample (no rank variance to correlate).
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	var sx, sy float64
	for i := range rx {
		sx += rx[i]
		sy += ry[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks assigns ascending 1-based ranks with ties averaged.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1 .. j
		for k := i; k < j; k++ {
			r[idx[k]] = avg
		}
		i = j
	}
	return r
}
