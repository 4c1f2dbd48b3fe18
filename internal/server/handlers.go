package server

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/flexbench"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/progcheck"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// Request sizing caps. Validation rejects anything beyond them with a 400 —
// the serving layer refuses work that would monopolise the pool rather than
// discovering it at run time.
const (
	// maxEstimateN bounds instantiation sizes for Eq 1 / Eq 2.
	maxEstimateN = 1 << 20
	// maxSimulateN bounds the per-kernel problem size.
	maxSimulateN = 1 << 16
	// maxSimulateProcs bounds lane/core/PE counts.
	maxSimulateProcs = 1 << 10
	// maxConformanceN bounds the matrix problem size per cell.
	maxConformanceN = 1 << 12
	// maxConformanceCells bounds the kernel × class cells one synchronous
	// conformance item may run. The full matrix (112 cells) is far past it:
	// full campaigns go through POST /v1/jobs, which journals progress and
	// never holds a connection open.
	maxConformanceCells = 16
	// maxConformanceSeeds bounds the synchronous lockstep sweep length;
	// longer sweeps are a "lockstep" job.
	maxConformanceSeeds = 16
	// maxFlexbenchN bounds the synchronous measured-flexibility universe
	// (always all 112 runnable cells, so only the problem size is the
	// knob); bigger operating points are a "flexbench" job.
	maxFlexbenchN = 256
)

// jobRedirect names the async alternative in sync-cap rejection messages.
func jobRedirect(kind string) string {
	return fmt.Sprintf(`submit the campaign as a job instead: POST /v1/jobs {"kind":%q,...}`, kind)
}

// registerRoutes wires every /v1 endpoint. The cost model is built once:
// the default library is static and validated at startup.
func registerRoutes(s *Server) {
	model, err := cost.NewModel(cost.DefaultLibrary())
	if err != nil {
		panic(fmt.Sprintf("server: default cost library invalid: %v", err))
	}

	register(s, endpointSpec[ClassifyRequest, ClassifyResponse]{
		path: "/v1/classify",
		defaults: func(r *ClassifyRequest) {
			if r.N == 0 {
				r.N = 16
			}
		},
		validate: func(r ClassifyRequest) error {
			if r.Arch.Name == "" {
				return fmt.Errorf("arch.name must be set")
			}
			if r.N < 1 || r.N > maxEstimateN {
				return fmt.Errorf("n must be in [1, %d], got %d", maxEstimateN, r.N)
			}
			// Structural parse errors (malformed cells) are request errors;
			// unclassifiable-but-well-formed shapes are run results.
			if _, err := spec.Resolve(r.Arch); err != nil {
				return err
			}
			return nil
		},
		run: func(ctx context.Context, r ClassifyRequest) (ClassifyResponse, error) {
			return runClassify(model, r)
		},
	})

	register(s, endpointSpec[FlexibilityRequest, FlexibilityResponse]{
		path: "/v1/flexibility",
		validate: func(r FlexibilityRequest) error {
			if _, err := taxonomy.LookupString(r.Class); err != nil {
				return err
			}
			if r.CompareTo != "" {
				if _, err := taxonomy.LookupString(r.CompareTo); err != nil {
					return err
				}
			}
			return nil
		},
		run: func(ctx context.Context, r FlexibilityRequest) (FlexibilityResponse, error) {
			return runFlexibility(r)
		},
	})

	register(s, endpointSpec[EstimateRequest, EstimateResponse]{
		path: "/v1/estimate",
		defaults: func(r *EstimateRequest) {
			if r.N == 0 {
				r.N = 16
			}
		},
		validate: func(r EstimateRequest) error {
			if (r.Class == "") == (r.Arch == "") {
				return fmt.Errorf("exactly one of class and arch must be set")
			}
			if r.N < 1 || r.N > maxEstimateN {
				return fmt.Errorf("n must be in [1, %d], got %d", maxEstimateN, r.N)
			}
			if r.Class != "" {
				if _, err := taxonomy.LookupString(r.Class); err != nil {
					return err
				}
			}
			if r.Arch != "" {
				if _, ok := registry.Find(r.Arch); !ok {
					return fmt.Errorf("architecture %q is not in the Table III registry", r.Arch)
				}
			}
			return nil
		},
		run: func(ctx context.Context, r EstimateRequest) (EstimateResponse, error) {
			return runEstimate(model, r)
		},
	})

	register(s, endpointSpec[SimulateRequest, SimulateResponse]{
		path: "/v1/simulate",
		defaults: func(r *SimulateRequest) {
			if r.N == 0 {
				r.N = 64
			}
			if r.Procs == 0 {
				r.Procs = 4
			}
		},
		validate: func(r SimulateRequest) error {
			if _, err := taxonomy.LookupString(r.Class); err != nil {
				return err
			}
			if !modelzoo.KnownKernel(r.Kernel) {
				return fmt.Errorf("unknown kernel %q", r.Kernel)
			}
			if r.N < 1 || r.N > maxSimulateN {
				return fmt.Errorf("n must be in [1, %d], got %d", maxSimulateN, r.N)
			}
			if r.Procs < 1 || r.Procs > maxSimulateProcs {
				return fmt.Errorf("procs must be in [1, %d], got %d", maxSimulateProcs, r.Procs)
			}
			return checkSimulateProgram(r)
		},
		run: func(ctx context.Context, r SimulateRequest) (SimulateResponse, error) {
			return runSimulate(ctx, r)
		},
	})

	register(s, endpointSpec[ConformanceRequest, ConformanceResponse]{
		path: "/v1/conformance",
		defaults: func(r *ConformanceRequest) {
			if r.N == 0 {
				r.N = 64
			}
			if r.Procs == 0 {
				r.Procs = 4
			}
			if r.Seed == 0 {
				r.Seed = 1
			}
		},
		validate: func(r ConformanceRequest) error {
			if r.N > maxConformanceN {
				return fmt.Errorf("n must be <= %d, got %d", maxConformanceN, r.N)
			}
			if r.Seeds < 0 || r.Seeds > maxConformanceSeeds {
				return fmt.Errorf("seeds must be in [0, %d] on the request path, got %d; %s",
					maxConformanceSeeds, r.Seeds, jobRedirect("lockstep"))
			}
			if err := (conformance.Params{N: r.N, Procs: r.Procs}).Validate(); err != nil {
				return err
			}
			cells, err := conformance.FilterCells(r.Kernels, r.Classes)
			if err != nil {
				return err
			}
			if len(cells) == 0 {
				return fmt.Errorf("kernels/classes filters select no cells")
			}
			if len(cells) > maxConformanceCells {
				return fmt.Errorf("filters select %d cells, the request-path limit is %d; %s",
					len(cells), maxConformanceCells, jobRedirect("conformance"))
			}
			return nil
		},
		run: func(ctx context.Context, r ConformanceRequest) (ConformanceResponse, error) {
			return runConformance(ctx, r)
		},
	})

	register(s, endpointSpec[FlexbenchRequest, FlexbenchResponse]{
		path: "/v1/flexbench",
		defaults: func(r *FlexbenchRequest) {
			if r.N == 0 {
				r.N = 64
			}
			if r.Procs == 0 {
				r.Procs = 4
			}
		},
		validate: func(r FlexbenchRequest) error {
			if r.N > maxFlexbenchN {
				return fmt.Errorf("n must be <= %d on the request path, got %d; %s",
					maxFlexbenchN, r.N, jobRedirect("flexbench"))
			}
			return (flexbench.Params{N: r.N, Procs: r.Procs}).Validate()
		},
		run: func(ctx context.Context, r FlexbenchRequest) (FlexbenchResponse, error) {
			return runFlexbench(ctx, r)
		},
	})

	register(s, endpointSpec[SurveyRequest, SurveyResponse]{
		path: "/v1/survey",
		defaults: func(r *SurveyRequest) {
			if r.Run && r.N == 0 {
				r.N = 1024
			}
		},
		validate: func(r SurveyRequest) error {
			if !r.Run && r.N != 0 {
				return fmt.Errorf("n only applies with run=true")
			}
			if r.Run && (r.N < 1 || r.N > maxSimulateN) {
				return fmt.Errorf("n must be in [1, %d], got %d", maxSimulateN, r.N)
			}
			return nil
		},
		run: func(ctx context.Context, r SurveyRequest) (SurveyResponse, error) {
			return runSurvey(r)
		},
	})
}

// runClassify mirrors cmd/classify: classify, score, estimate, name the
// surveyed relatives; unclassifiable shapes answer with the nearest
// implementable classes instead of failing the item opaquely.
func runClassify(model cost.Model, r ClassifyRequest) (ClassifyResponse, error) {
	c, flex, err := core.ClassifyWithFlexibility(r.Arch)
	if err != nil {
		resp := ClassifyResponse{Name: r.Arch.Name}
		resp.Error = &APIError{Code: CodeRunFailed, Message: err.Error()}
		// Validation resolved the spec already, so Resolve cannot fail here.
		if res, rerr := spec.Resolve(r.Arch); rerr == nil {
			if sugg, serr := taxonomy.Suggest(res.IPs, res.DPs, res.Links, 3); serr == nil {
				for _, sg := range sugg {
					resp.Nearest = append(resp.Nearest, Neighbour{Class: sg.Class.String(), Distance: sg.Distance})
				}
			}
		}
		return resp, nil
	}
	est, err := model.ForArchitecture(r.Arch, r.N)
	if err != nil {
		return ClassifyResponse{}, err
	}
	resp := ClassifyResponse{
		Name:        r.Arch.Name,
		Class:       c.String(),
		Row:         c.Index,
		Machine:     c.Name.Machine.String(),
		Proc:        c.Name.Proc.String(),
		Flexibility: &flex,
		AreaGE:      est.Area,
		ConfigBits:  est.ConfigBits,
	}
	for _, e := range core.Survey() {
		if e.PrintedName == c.String() && e.Arch.Name != r.Arch.Name {
			resp.Relatives = append(resp.Relatives, e.Arch.Name)
		}
	}
	return resp, nil
}

// runFlexibility scores one class and optionally compares it to another.
func runFlexibility(r FlexibilityRequest) (FlexibilityResponse, error) {
	c, err := taxonomy.LookupString(r.Class)
	if err != nil {
		return FlexibilityResponse{}, err
	}
	resp := FlexibilityResponse{
		Class:         c.String(),
		Flexibility:   taxonomy.Flexibility(c),
		Base:          taxonomy.FlexibilityBase(c),
		Implementable: c.Implementable,
	}
	if r.CompareTo != "" {
		other, err := taxonomy.LookupString(r.CompareTo)
		if err != nil {
			return FlexibilityResponse{}, err
		}
		more, comparable := taxonomy.MoreFlexible(c, other)
		morph := taxonomy.CanMorphInto(c, other)
		resp.CompareTo = other.String()
		resp.Comparable = &comparable
		resp.MoreFlexible = &more
		resp.CanMorphInto = &morph
	}
	return resp, nil
}

// runEstimate evaluates Eq 1 / Eq 2 with the per-term breakdown, the JSON
// shape cmd/estimate -json prints.
func runEstimate(model cost.Model, r EstimateRequest) (EstimateResponse, error) {
	var est cost.Estimate
	var err error
	if r.Class != "" {
		var c taxonomy.Class
		if c, err = taxonomy.LookupString(r.Class); err == nil {
			est, err = model.ForClass(c, r.N)
		}
	} else {
		e, _ := registry.Find(r.Arch) // validated present
		est, err = model.ForArchitecture(e.Arch, r.N)
	}
	if err != nil {
		return EstimateResponse{}, err
	}
	resp := EstimateResponse{
		Class:      est.Class.String(),
		IPs:        est.IPCount,
		DPs:        est.DPCount,
		AreaGE:     est.Area,
		ConfigBits: est.ConfigBits,
		AreaTerms:  map[string]float64{},
		BitTerms:   map[string]int{},
	}
	for _, term := range cost.Terms() {
		resp.AreaTerms[string(term)] = est.AreaBreakdown[term]
		resp.BitTerms[string(term)] = est.BitsBreakdown[term]
	}
	return resp, nil
}

// checkError is the validation failure a statically rejected guest program
// produces: the findings ride into the 400 body (APIError.Findings) so the
// client sees the per-op diagnoses, not just prose.
type checkError struct {
	program  string
	findings []progcheck.Finding
	reason   string // unbounded-budget reason, "" when bounded
}

func (e *checkError) Error() string {
	parts := make([]string, 0, len(e.findings)+1)
	for _, f := range e.findings {
		parts = append(parts, fmt.Sprintf("pc %d: %s", f.PC, f.Message))
	}
	if e.reason != "" {
		parts = append(parts, e.reason)
	}
	return fmt.Sprintf("program %q failed static verification: %s", e.program, strings.Join(parts, "; "))
}

// checkSimulateProgram statically verifies every guest program the request
// would execute against the machine shape it would run on, before the item
// is admitted to the pool. Rejections are structured 400s carrying the
// findings. A program the checker cannot prove bounded (Budget.Bounded
// false) is rejected too; the bound's value is not compared with the run
// budget, so every admitted run still runs under the default cycle budget.
// (class, kernel) pairs the dispatch cannot run are left for the run
// stage's per-item error.
func checkSimulateProgram(r SimulateRequest) error {
	c, err := taxonomy.LookupString(r.Class) // validated present
	if err != nil {
		return err
	}
	progs, err := modelzoo.CheckKernel(c, r.Kernel, r.N, r.Procs)
	if err != nil {
		if modelzoo.Unsupported(err) {
			return nil
		}
		return err
	}
	for _, p := range progs {
		bad := make([]progcheck.Finding, 0, len(p.Report.Findings))
		for _, f := range p.Report.Findings {
			if f.Severity >= report.SevWarn {
				bad = append(bad, f)
			}
		}
		reason := ""
		if !p.Report.Budget.Bounded {
			reason = "execution is not provably bounded: " + p.Report.Budget.Reason
		}
		if len(bad) > 0 || reason != "" {
			return &checkError{program: p.Name, findings: bad, reason: reason}
		}
	}
	return nil
}

// runSimulate executes one kernel × class cell with a tally attached and
// cross-checks the tally against the machine stats, the same invariant the
// conformance matrix enforces per cell. When the request is traced, the
// run is attached under the item's span as a replay recipe: the request's
// Chrome trace re-runs the same deterministic simulation to show the guest
// cycles inside the wall time, and checks the replay against this run.
func runSimulate(ctx context.Context, r SimulateRequest) (SimulateResponse, error) {
	c, err := taxonomy.LookupString(r.Class)
	if err != nil {
		return SimulateResponse{}, err
	}
	var tally obs.Tally
	res, err := modelzoo.RunKernel(c, r.Kernel, r.N, r.Procs, workload.WithTracer(&tally))
	if err != nil {
		return SimulateResponse{}, err
	}
	if sp := obs.CurrentSpan(ctx); sp != nil {
		sp.AttachSim(fmt.Sprintf("%s %s n=%d", c, r.Kernel, r.N), &tally, func(tr obs.Tracer) error {
			_, err := modelzoo.RunKernel(c, r.Kernel, r.N, r.Procs, workload.WithTracer(tr))
			return err
		})
	}
	return simulateResponse(c, r, res, &tally)
}

// simulateResponse renders one finished run and cross-checks the tally's
// folded totals against the machine stats. The USP fabric's clock steps
// are not evented, so USP runs are metrics-exempt.
func simulateResponse(c taxonomy.Class, r SimulateRequest, res workload.Result, tally *obs.Tally) (SimulateResponse, error) {
	resp := SimulateResponse{
		Class:             c.String(),
		Kernel:            r.Kernel,
		N:                 r.N,
		Procs:             r.Procs,
		Cycles:            res.Stats.Cycles,
		Instructions:      res.Stats.Instructions,
		IPC:               res.Stats.IPC(),
		ALUOps:            res.Stats.ALUOps,
		MemReads:          res.Stats.MemReads,
		MemWrites:         res.Stats.MemWrites,
		Messages:          res.Stats.Messages,
		Barriers:          res.Stats.Barriers,
		NetConflictCycles: res.Stats.NetConflictCycles,
	}
	for i := 0; i < len(res.Output) && i < 8; i++ {
		resp.OutputHead = append(resp.OutputHead, int64(res.Output[i]))
	}
	if c.Name.Machine != taxonomy.UniversalFlow {
		if err := tally.Check(res.Stats.Totals()); err != nil {
			return SimulateResponse{}, err
		}
		resp.MetricsChecked = true
	}
	return resp, nil
}

// runConformance executes the selected cells serially inside the item —
// the batch engine's parallelism is across items, and the serial run is
// byte-stable. Validation already applied the cell and seed caps.
func runConformance(ctx context.Context, r ConformanceRequest) (ConformanceResponse, error) {
	sel, err := conformance.FilterCells(r.Kernels, r.Classes)
	if err != nil {
		return ConformanceResponse{}, err
	}
	p := conformance.Params{N: r.N, Procs: r.Procs}
	mctx, msp := obs.StartSpan(ctx, "matrix")
	cells, matrixPass := conformance.RunCellsParallel(mctx, sel, p, 1)
	msp.End()
	resp := ConformanceResponse{
		Pass:    matrixPass,
		Cells:   cells,
		Summary: conformance.Summary(cells),
	}
	if r.Seeds > 0 {
		lctx, lsp := obs.StartSpan(ctx, "lockstep")
		lockstep, lockstepPass := conformance.LockstepSweepParallel(lctx, r.Seed, r.Seeds, 1)
		lsp.End()
		resp.Lockstep = lockstep
		resp.Pass = resp.Pass && lockstepPass
	}
	if err := ctx.Err(); err != nil {
		return ConformanceResponse{}, err
	}
	return resp, nil
}

// runFlexbench measures the full universe serially inside the item — the
// batch engine's parallelism is across items, and the serial measurement is
// byte-stable. Validation already applied the sizing cap.
func runFlexbench(ctx context.Context, r FlexbenchRequest) (FlexbenchResponse, error) {
	p := flexbench.Params{N: r.N, Procs: r.Procs}
	mctx, msp := obs.StartSpan(ctx, "measure")
	res, err := flexbench.Run(mctx, p, 1)
	msp.End()
	if err != nil {
		return FlexbenchResponse{}, err
	}
	return FlexbenchResponse{Result: &res}, nil
}

// runSurvey re-derives Table III and optionally executes every machine.
func runSurvey(r SurveyRequest) (SurveyResponse, error) {
	derived, err := registry.DeriveAll()
	if err != nil {
		return SurveyResponse{}, err
	}
	resp := SurveyResponse{Rows: make([]SurveyRow, len(derived))}
	for i, d := range derived {
		resp.Rows[i] = SurveyRow{
			Name:               d.Entry.Arch.Name,
			PrintedClass:       d.Entry.PrintedName,
			PrintedFlexibility: d.Entry.PrintedFlexibility,
			DerivedClass:       d.Class.String(),
			DerivedFlexibility: d.Flexibility,
			NameMatches:        d.NameMatches,
			FlexibilityMatches: d.FlexibilityMatches,
		}
		if r.Run {
			res, err := modelzoo.RunVecAdd(d.Entry.Arch, r.N)
			if err != nil {
				return SurveyResponse{}, err
			}
			resp.Rows[i].Processors = res.Instance.Processors
			resp.Rows[i].Cycles = res.Stats.Cycles
			resp.Rows[i].Instructions = res.Stats.Instructions
		}
	}
	return resp, nil
}
