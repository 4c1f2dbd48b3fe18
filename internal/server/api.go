package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/conformance"
	"repro/internal/flexbench"
	"repro/internal/jobs"
	"repro/internal/progcheck"
	"repro/internal/spec"
)

// APIError is the structured error body every non-2xx response carries and
// the per-item error shape inside a batch result. Code is a stable,
// machine-matchable identifier; Message is human-readable detail.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Index points at the offending batch item for request-level rejections
	// (nil when the error concerns the whole request).
	Index *int `json:"index,omitempty"`
	// Findings carries the static checker's diagnoses when a /v1/simulate
	// item is rejected because its guest program failed verification, so
	// clients see exactly which op is wrong instead of a prose summary.
	Findings []progcheck.Finding `json:"findings,omitempty"`
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Index != nil {
		return fmt.Sprintf("%s: item %d: %s", e.Code, *e.Index, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorBody is the envelope of a non-2xx response.
type ErrorBody struct {
	Error APIError `json:"error"`
}

// Stable error codes.
const (
	CodeBadRequest    = "bad_request"     // malformed JSON, unknown fields
	CodeInvalid       = "invalid_request" // failed endpoint validation
	CodeEmptyBatch    = "empty_batch"
	CodeBatchTooLarge = "batch_too_large"
	CodeOverloaded    = "overloaded" // concurrency limit hit -> 429
	CodeTimeout       = "timeout"    // request deadline expired -> 504
	CodeInternal      = "internal"   // recovered panic -> 500
	CodeRunFailed     = "run_failed" // per-item simulation/estimation error
	CodeNotFound      = "not_found"
	CodeMethod        = "method_not_allowed"
	CodeConflict      = "conflict" // operation invalid in the job's state -> 409
)

// BatchEnvelope is the request body shape shared by every /v1 endpoint:
// a batch of endpoint-specific items.
//
//	{"requests": [ {...}, {...} ]}
type BatchEnvelope[Req any] struct {
	Requests []Req `json:"requests"`
}

// ItemError is embedded in every per-item response type: when a batch item
// fails at run time (the request itself was valid), the item's result slot
// carries the error instead of a payload and the other items are unaffected.
type ItemError struct {
	Error *APIError `json:"error,omitempty"`
}

// --- /v1/classify ---

// ClassifyRequest classifies one Table III-style architecture description
// and prices it with Eq 1 / Eq 2.
type ClassifyRequest struct {
	Arch spec.Architecture `json:"arch"`
	// N is the instantiation size for symbolic block counts (default 16).
	N int `json:"n,omitempty"`
}

// Neighbour is one "did you mean" suggestion for an unclassifiable shape.
type Neighbour struct {
	Class    string `json:"class"`
	Distance int    `json:"distance"`
}

// ClassifyResponse is one classification result.
type ClassifyResponse struct {
	ItemError
	Name    string `json:"name,omitempty"`
	Class   string `json:"class,omitempty"`
	Row     int    `json:"row,omitempty"` // 1-based Table I row
	Machine string `json:"machine,omitempty"`
	Proc    string `json:"proc,omitempty"`
	// Flexibility is a pointer so a real score of 0 (IUP) still serializes
	// while unclassifiable-shape error items omit it.
	Flexibility *int    `json:"flexibility,omitempty"`
	AreaGE      float64 `json:"area_ge,omitempty"`
	ConfigBits  int     `json:"config_bits,omitempty"`
	// Relatives lists surveyed machines of the same class.
	Relatives []string `json:"relatives,omitempty"`
	// Nearest lists the closest implementable classes when the shape is not
	// classifiable (paired with Error).
	Nearest []Neighbour `json:"nearest,omitempty"`
}

// --- /v1/flexibility ---

// FlexibilityRequest scores one class with the paper's Table II system,
// optionally comparing it against a second class.
type FlexibilityRequest struct {
	Class string `json:"class"`
	// CompareTo adds the §III comparison block against this class.
	CompareTo string `json:"compare_to,omitempty"`
}

// FlexibilityResponse is one flexibility score.
type FlexibilityResponse struct {
	ItemError
	// The score fields are never omitted: 0 is a real flexibility score
	// (IUP), and false is a real implementability verdict.
	Class         string `json:"class"`
	Flexibility   int    `json:"flexibility"`
	Base          int    `json:"base"`
	Implementable bool   `json:"implementable"`
	// Comparison block, present when compare_to was set.
	CompareTo    string `json:"compare_to,omitempty"`
	Comparable   *bool  `json:"comparable,omitempty"`
	MoreFlexible *bool  `json:"more_flexible,omitempty"`
	CanMorphInto *bool  `json:"can_morph_into,omitempty"`
}

// --- /v1/estimate ---

// EstimateRequest evaluates Eq 1 (area) and Eq 2 (configuration bits) for a
// taxonomy class or a surveyed architecture. Exactly one of Class and Arch
// must be set.
type EstimateRequest struct {
	Class string `json:"class,omitempty"`
	Arch  string `json:"arch,omitempty"`
	// N is the instantiation size for plural counts (default 16).
	N int `json:"n,omitempty"`
}

// EstimateResponse is one Eq 1 / Eq 2 evaluation with the term breakdown.
type EstimateResponse struct {
	ItemError
	Class      string             `json:"class,omitempty"`
	IPs        int                `json:"ips,omitempty"`
	DPs        int                `json:"dps,omitempty"`
	AreaGE     float64            `json:"area_ge,omitempty"`
	ConfigBits int                `json:"config_bits,omitempty"`
	AreaTerms  map[string]float64 `json:"area_terms,omitempty"`
	BitTerms   map[string]int     `json:"bit_terms,omitempty"`
}

// --- /v1/simulate ---

// SimulateRequest runs one workload kernel on the simulator of a machine
// class — the served form of cmd/simulate.
type SimulateRequest struct {
	Class  string `json:"class"`
	Kernel string `json:"kernel"`
	// N is the problem size (elements; matmul rows). Default 64.
	N int `json:"n,omitempty"`
	// Procs is the lane/core/PE count for parallel classes. Default 4.
	Procs int `json:"procs,omitempty"`
}

// SimulateResponse is one kernel run's cycle-level statistics plus the
// obs-metric cross-check verdict.
type SimulateResponse struct {
	ItemError
	Class             string  `json:"class,omitempty"`
	Kernel            string  `json:"kernel,omitempty"`
	N                 int     `json:"n,omitempty"`
	Procs             int     `json:"procs,omitempty"`
	Cycles            int64   `json:"cycles,omitempty"`
	Instructions      int64   `json:"instructions,omitempty"`
	IPC               float64 `json:"ipc,omitempty"`
	ALUOps            int64   `json:"alu_ops,omitempty"`
	MemReads          int64   `json:"mem_reads,omitempty"`
	MemWrites         int64   `json:"mem_writes,omitempty"`
	Messages          int64   `json:"messages,omitempty"`
	Barriers          int64   `json:"barriers,omitempty"`
	NetConflictCycles int64   `json:"net_conflict_cycles,omitempty"`
	// OutputHead is the first few words of the kernel output, a quick
	// content signature for clients.
	OutputHead []int64 `json:"output_head,omitempty"`
	// MetricsChecked reports that the traced obs counters reproduced the
	// machine stats exactly (false only for the metrics-exempt USP fabric).
	MetricsChecked bool `json:"metrics_checked,omitempty"`
}

// --- /v1/conformance ---

// ConformanceRequest runs a filtered slice of the differential conformance
// suite at one operating point: selected kernel × class cells plus an
// optional short random-program lockstep sweep. The synchronous endpoint is
// deliberately small — at most maxConformanceCells cells and
// maxConformanceSeeds seeds per item; full-matrix campaigns and long sweeps
// go through the async job queue (POST /v1/jobs).
type ConformanceRequest struct {
	// N is the problem size per kernel (default 64; must divide by Procs).
	N int `json:"n,omitempty"`
	// Procs is the lane/core count (default 4; power of two >= 4).
	Procs int `json:"procs,omitempty"`
	// Kernels selects the kernel rows to run. Required in effect: the
	// unfiltered matrix exceeds the sync cell cap.
	Kernels []string `json:"kernels,omitempty"`
	// Classes selects the machine-class columns, by exact name ("IAP-II")
	// or family prefix ("IAP").
	Classes []string `json:"classes,omitempty"`
	// Seeds is the lockstep sweep length (default 0: matrix cells only).
	Seeds int `json:"seeds,omitempty"`
	// Seed is the first lockstep seed (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// ConformanceResponse is one full suite verdict.
type ConformanceResponse struct {
	ItemError
	Pass     bool                         `json:"pass"`
	Cells    []conformance.CellResult     `json:"cells,omitempty"`
	Summary  []string                     `json:"summary,omitempty"`
	Lockstep []conformance.LockstepResult `json:"lockstep,omitempty"`
}

// --- /v1/flexbench ---

// FlexbenchRequest measures the empirical flexibility frontier: the full
// kernel × machine-class universe at one operating point, scored and
// correlated against the paper's Table II and the Table III survey. The
// synchronous endpoint is capped at modest problem sizes; bigger sweeps
// (and per-cell stability repeats) run as a "flexbench" job.
type FlexbenchRequest struct {
	// N is the problem size per kernel (default 64; must divide by Procs).
	N int `json:"n,omitempty"`
	// Procs is the lane/core count (default 4; power of two >= 4).
	Procs int `json:"procs,omitempty"`
}

// FlexbenchResponse carries one full frontier measurement.
type FlexbenchResponse struct {
	ItemError
	Result *flexbench.Result `json:"result,omitempty"`
}

// --- /v1/jobs ---

// JobSubmitRequest enqueues one asynchronous campaign. The response is the
// admitted job snapshot (202 Accepted) with the id to poll or stream.
type JobSubmitRequest struct {
	// Kind names the campaign: "conformance", "lockstep", "backends" or
	// "flexbench".
	Kind string `json:"kind"`
	// Spec is the kind-specific body (jobs.ConformanceSpec / jobs.SweepSpec);
	// empty means the kind's defaults.
	Spec json.RawMessage `json:"spec,omitempty"`
	// TimeoutSec bounds the job's total run time (0 = no deadline).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// JobListResponse is the GET /v1/jobs body: every job in submit order plus
// the kinds this replica can run.
type JobListResponse struct {
	Kinds []string   `json:"kinds"`
	Jobs  []jobs.Job `json:"jobs"`
}

// --- /v1/survey ---

// SurveyRequest re-derives the paper's Table III survey, optionally
// executing every instantiable machine on the canonical kernel.
type SurveyRequest struct {
	// Run executes each surveyed machine through internal/modelzoo.
	Run bool `json:"run,omitempty"`
	// N is the vector length for Run (default 1024).
	N int `json:"n,omitempty"`
}

// SurveyRow is one Table III row: printed vs derived classification, plus
// execution results when requested.
type SurveyRow struct {
	Name               string `json:"name"`
	PrintedClass       string `json:"printed_class"`
	PrintedFlexibility int    `json:"printed_flexibility"`
	DerivedClass       string `json:"derived_class"`
	DerivedFlexibility int    `json:"derived_flexibility"`
	NameMatches        bool   `json:"name_matches"`
	FlexibilityMatches bool   `json:"flexibility_matches"`
	// Execution block (Run only).
	Processors   int   `json:"processors,omitempty"`
	Cycles       int64 `json:"cycles,omitempty"`
	Instructions int64 `json:"instructions,omitempty"`
}

// SurveyResponse is the full survey.
type SurveyResponse struct {
	ItemError
	Rows []SurveyRow `json:"rows,omitempty"`
}
