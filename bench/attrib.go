package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/conformance"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/progcheck"
	"repro/internal/server"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// workers is the pool width of every batch the benchmark runs: the
// workloads model a 2-core host.
const workers = 2

// item is one unit of workload input that the attribution pass drives
// through every layer: a conformance cell or a served simulate key.
type item struct {
	label string
	class string
	// run executes the item's kernel with the given options and returns the
	// pure-Go reference output when the item has one.
	run func(opts ...workload.Option) (workload.Result, []isa.Word, error)
	// want holds the guest counts the untraced path reported, when known;
	// the attribution pass must reproduce them exactly.
	want *guest
}

type guest struct{ cycles, instrs int64 }

func cellItems(cells []conformance.Cell, p conformance.Params, want map[string]guest) []item {
	items := make([]item, len(cells))
	for i, c := range cells {
		c := c
		label := c.Kernel + "/" + c.Class
		it := item{label: label, class: c.Class, run: func(opts ...workload.Option) (workload.Result, []isa.Word, error) {
			return c.Execute(p, opts...)
		}}
		if g, ok := want[label]; ok {
			it.want = &g
		}
		items[i] = it
	}
	return items
}

func keyItem(k server.SimulateRequest, want *guest) (item, error) {
	c, err := taxonomy.LookupString(k.Class)
	if err != nil {
		return item{}, err
	}
	return item{
		label: keyLabel(k),
		class: k.Class,
		want:  want,
		run: func(opts ...workload.Option) (workload.Result, []isa.Word, error) {
			res, err := modelzoo.RunKernel(c, k.Kernel, k.N, k.Procs, opts...)
			return res, nil, err
		},
	}, nil
}

// itemCost is what the attribution pass measured on one item.
type itemCost struct {
	ok                                   bool
	cycles, instrs, events               int64
	programs                             int
	sim, plain, collect, check           time.Duration
	predecode, cfg, compile, checkerTime time.Duration
}

// attribute drives every item through the layers one call at a time, on
// the same 2-worker pool the workloads use, with a span around each call:
//
//	sim           the kernel run with a tracer attached
//	sim.untraced  the same run without one (its twin)
//	obs.collect   folding the trace into a metrics registry
//	check         output against the reference, counters against Stats
//	workload.stage  the dry run that lists the item's guest programs
//	isa.predecode, isa.cfg, machine.compile, progcheck  per guest program
//
// and reports the per-layer metrics. The calls are the public entry points
// the program itself uses, so a layer's time is what that layer costs on
// this workload's inputs.
func (r *runner) attribute(items []item) {
	if len(items) == 0 {
		r.fail("attribution: no items")
		return
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	batch := exec.Map(context.Background(), workers, idx, func(_ context.Context, i int) (itemCost, error) {
		return r.attributeItem(int32(i), items[i]), nil
	})
	r.attempt(int64(len(items)))

	var tot itemCost
	famTime := map[string]time.Duration{}
	famCycles := map[string]int64{}
	for i, b := range batch {
		c := b.Value
		if b.Err != nil || !c.ok {
			if b.Err != nil {
				r.fail("attribution %s: %v", items[i].label, b.Err)
			}
			continue
		}
		tot.cycles += c.cycles
		tot.instrs += c.instrs
		tot.events += c.events
		tot.programs += c.programs
		tot.sim += c.sim
		tot.plain += c.plain
		tot.collect += c.collect
		tot.check += c.check
		tot.predecode += c.predecode
		tot.cfg += c.cfg
		tot.compile += c.compile
		tot.checkerTime += c.checkerTime
		fam := familyOf(items[i].class)
		famTime[fam] += c.plain
		famCycles[fam] += c.cycles
	}

	n := float64(len(items))
	us := func(d time.Duration, per float64) float64 {
		if per == 0 {
			return 0
		}
		return float64(d) / 1e3 / per
	}
	progs := float64(tot.programs)
	r.set("sim.us_per_item", us(tot.plain, n))
	r.set("sim.guest_instr_per_item", float64(tot.instrs)/n)
	r.set("sim.guest_cycles_per_item", float64(tot.cycles)/n)
	if tot.instrs > 0 {
		r.set("sim.ns_per_guest_instr", float64(tot.plain)/float64(tot.instrs))
	}
	for fam, d := range famTime {
		if famCycles[fam] > 0 {
			r.set("sim.ns_per_guest_cycle."+fam, float64(d)/float64(famCycles[fam]))
		}
	}
	r.set("obs.events_per_item", float64(tot.events)/n)
	if tot.events > 0 {
		r.set("obs.trace_ns_per_event", float64(tot.sim-tot.plain)/float64(tot.events))
	}
	r.set("obs.collect_us_per_item", us(tot.collect, n))
	r.set("obs.collect_allocs_per_event", collectAllocsPerEvent(items))
	r.set("conformance.check_us_per_item", us(tot.check, n))
	r.set("workload.programs_per_item", progs/n)
	r.set("isa.predecode_us_per_program", us(tot.predecode, progs))
	r.set("isa.cfg_us_per_program", us(tot.cfg, progs))
	r.set("machine.compile_us_per_program", us(tot.compile, progs))
	r.set("progcheck.us_per_item", us(tot.checkerTime, n))

	// Coverage: how much of the item spans their child spans account for.
	spans := r.rec.snapshot()
	cover := childCover(spans)
	var covered, total time.Duration
	for i, s := range spans {
		if s.Name == "item" {
			covered += cover[i]
			total += s.End - s.Start
		}
	}
	if total > 0 {
		r.set("bench.span_coverage", float64(covered)/float64(total))
	}
}

func (r *runner) attributeItem(id int32, it item) (c itemCost) {
	rec := r.rec
	root := rec.begin("item", noSpan, id)
	defer rec.end(root)

	trace := obs.AcquireTrace()
	defer obs.ReleaseTrace(trace)
	var res workload.Result
	var want []isa.Word
	var err error
	c.sim = rec.timed("sim", root, id, func() { res, want, err = it.run(workload.WithTracer(trace)) })
	if err != nil {
		r.fail("%s: traced run: %v", it.label, err)
		return c
	}
	var plain workload.Result
	c.plain = rec.timed("sim.untraced", root, id, func() { plain, _, err = it.run() })
	if err != nil {
		r.fail("%s: untraced run: %v", it.label, err)
		return c
	}
	events := trace.Events()
	reg := obs.NewRegistry()
	c.collect = rec.timed("obs.collect", root, id, func() { err = obs.Collect(reg, events) })
	if err != nil {
		r.fail("%s: collect: %v", it.label, err)
		return c
	}
	c.check = rec.timed("check", root, id, func() { err = checkItem(it, res, plain, want, reg) })
	if err != nil {
		r.fail("%s: %v", it.label, err)
		return c
	}

	var specs []workload.ProgramSpec
	rec.timed("workload.stage", root, id, func() { _, _, err = it.run(workload.WithProgramSink(&specs)) })
	if err != nil {
		r.fail("%s: staging: %v", it.label, err)
		return c
	}
	for _, s := range specs {
		var dec isa.DecodedProgram
		c.predecode += rec.timed("isa.predecode", root, id, func() { dec = isa.Predecode(s.Program) })
		c.cfg += rec.timed("isa.cfg", root, id, func() { _ = isa.BuildCFG(dec) })
		c.compile += rec.timed("machine.compile", root, id, func() { _ = machine.Compile(dec, machine.CompileOptions{}) })
		c.checkerTime += rec.timed("progcheck", root, id, func() {
			_ = progcheck.Check(s.Program, progcheck.Target{
				MemWords: s.MemWords, Procs: s.Procs, HasNetwork: s.HasNetwork, HasBarrier: s.HasBarrier,
			})
		})
	}
	c.ok = true
	c.cycles, c.instrs = res.Stats.Cycles, res.Stats.Instructions
	c.events = int64(len(events))
	c.programs = len(specs)
	return c
}

// checkItem is the conformance check of one attributed item: the traced and
// untraced runs agree, the output matches the reference, the collected
// counters reproduce the machine's Stats, and the guest counts match the
// ones the untraced workload path reported.
func checkItem(it item, traced, plain workload.Result, want []isa.Word, reg *obs.Registry) error {
	if traced.Stats != plain.Stats {
		return fmt.Errorf("traced stats %+v differ from untraced %+v", traced.Stats, plain.Stats)
	}
	if want != nil {
		if len(traced.Output) != len(want) {
			return fmt.Errorf("output length %d, reference %d", len(traced.Output), len(want))
		}
		for i := range want {
			if traced.Output[i] != want[i] {
				return fmt.Errorf("output[%d] = %d, reference %d", i, traced.Output[i], want[i])
			}
		}
	}
	if familyOf(it.class) != "fabric" { // the fabric's clock steps are not evented
		s := traced.Stats
		for _, ch := range []struct {
			metric string
			want   int64
		}{
			{obs.MetricInstructions, s.Instructions},
			{obs.MetricALUOps, s.ALUOps},
			{obs.MetricMemReads, s.MemReads},
			{obs.MetricMemWrites, s.MemWrites},
			{obs.MetricMessages, s.Messages},
			{obs.MetricBarriers, s.Barriers},
			{obs.MetricNetConflict, s.NetConflictCycles},
		} {
			if got, _ := reg.CounterValue(ch.metric); got != ch.want {
				return fmt.Errorf("collected %s = %d, stats say %d", ch.metric, got, ch.want)
			}
		}
	}
	if it.want != nil && (it.want.cycles != traced.Stats.Cycles || it.want.instrs != traced.Stats.Instructions) {
		return fmt.Errorf("attribution counted %d cycles / %d instructions, the workload path %d / %d",
			traced.Stats.Cycles, traced.Stats.Instructions, it.want.cycles, it.want.instrs)
	}
	return nil
}

// collectAllocsPerEvent measures obs.Collect's allocations per event on a
// few evenly spaced items, one at a time so no other goroutine's
// allocations are counted.
func collectAllocsPerEvent(items []item) float64 {
	var mallocs, events uint64
	for _, it := range spread(items, 8) {
		func() {
			trace := obs.AcquireTrace()
			defer obs.ReleaseTrace(trace)
			if _, _, err := it.run(workload.WithTracer(trace)); err != nil {
				return
			}
			ev := trace.Events()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := obs.Collect(obs.NewRegistry(), ev)
			runtime.ReadMemStats(&after)
			if err != nil {
				return
			}
			mallocs += after.Mallocs - before.Mallocs
			events += uint64(len(ev))
		}()
	}
	if events == 0 {
		return 0
	}
	return float64(mallocs) / float64(events)
}

// spread picks k evenly spaced elements of xs, or all of them.
func spread[T any](xs []T, k int) []T {
	if len(xs) <= k {
		return xs
	}
	out := make([]T, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k]
	}
	return out
}
