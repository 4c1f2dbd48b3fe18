package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/uniproc"
)

// stagedRun is what one run of a staged program produced: the machine's
// output words, Stats, per-core stats (IMP only) and, for a traced run,
// its folded events.
type stagedRun struct {
	Out   []isa.Word
	Stats machine.Stats
	Cores []mimd.CoreStats
	Tally obs.Tally
}

// stagedCase runs one staged program on a fresh machine, traced into a
// Tally or untraced (the fused and run-ahead paths).
type stagedCase struct {
	name string
	run  func(traced bool) (stagedRun, error)
}

// firstClass returns the first implementable Table I class of the given
// processing type whose links satisfy ok.
func firstClass(t *testing.T, proc taxonomy.ProcessingType, ok func(l taxonomy.Links) bool) taxonomy.Class {
	t.Helper()
	for _, c := range tableClasses(taxonomy.InstructionFlow, proc) {
		if ok(c.Links) {
			return c
		}
	}
	t.Fatalf("no %v class with the wanted links", proc)
	return taxonomy.Class{}
}

// stagedCases stages the dot product once per machine family: IUP, IAP,
// IMP with a direct and with a crossbar DP-DM switch (per-core images on
// the first, so several cores share one staged program), and ISP.
func stagedCases(t *testing.T) []stagedCase {
	t.Helper()
	const n, procs = 64, 4
	a, b := make([]isa.Word, n), make([]isa.Word, n)
	for i := range a {
		a[i], b[i] = isa.Word(i%7-3), isa.Word(i%5+1)
	}
	uniProg, err := dotProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	cases := []stagedCase{{name: "IUP", run: func(traced bool) (stagedRun, error) {
		var r stagedRun
		cfg := uniproc.Config{MemWords: 2*n + 16}
		if traced {
			cfg.Tracer = &r.Tally
		}
		m, err := uniproc.New(cfg, uniProg)
		if err != nil {
			return r, err
		}
		defer m.Release()
		r.Out, r.Stats, err = m.RunWithInput(concat(a, b), 2*n, 1)
		return r, err
	}}}

	network := func(l taxonomy.Links) bool { return l[taxonomy.SiteDPDP].Switched() }
	direct := func(l taxonomy.Links) bool {
		return network(l) && !l[taxonomy.SiteDPDM].Switched() && !l[taxonomy.SiteIPIM].Switched()
	}
	crossbar := func(l taxonomy.Links) bool { return network(l) && l[taxonomy.SiteDPDM].Switched() }
	m := n / procs
	bankWords := 2*m + 16
	for _, sc := range []struct {
		name string
		c    taxonomy.Class
	}{
		{"IAP", firstClass(t, taxonomy.ArrayProcessor, network)},
		{"IMP direct DP-DM", firstClass(t, taxonomy.MultiProcessor, direct)},
		{"IMP crossbar DP-DM", firstClass(t, taxonomy.MultiProcessor, crossbar)},
		{"ISP", firstClass(t, taxonomy.SpatialProcessor, network)},
	} {
		global := 0
		if sc.c.Links[taxonomy.SiteDPDM].Switched() {
			global = bankWords
		}
		prog, err := dotButterflyProgram(m, procs, global)
		if err != nil {
			t.Fatal(err)
		}
		load := chunks(m, a, b)
		cases = append(cases, stagedCase{name: fmt.Sprintf("%s (%s)", sc.name, sc.c), run: func(traced bool) (stagedRun, error) {
			var r stagedRun
			ro := runOpts{}
			if traced {
				ro.tracer = &r.Tally
			}
			mach, err := newBanked(sc.c, procs, bankWords, prog, ro)
			if err != nil {
				return r, err
			}
			defer mach.Release()
			for p := range procs {
				for _, s := range load(p) {
					if err := mach.LoadBank(p, s.base, s.vals); err != nil {
						return r, err
					}
				}
			}
			if r.Stats, err = mach.Run(); err != nil {
				return r, err
			}
			for p := range procs {
				word, err := mach.ReadBank(p, 2*m, 1)
				if err != nil {
					return r, err
				}
				r.Out = append(r.Out, word...)
			}
			if mm, ok := mach.(*mimd.Machine); ok {
				r.Cores = mm.CoreStats()
			}
			return r, nil
		}})
	}
	return cases
}

// TestStagedRunsConcurrent pins that a staged program is run-independent:
// eight goroutines run the same staged IUP, IAP, IMP (direct and crossbar
// DP-DM) and ISP programs at once, traced and untraced, and every run's
// output, Stats, per-core stats and folded events equal a serial run's.
// The traced runs emit into a Tally, so the IUP and IMP runs take their
// fused paths traced as well as untraced, the crossbar IMP through the
// block table cut around its loads and stores. Run it under -race: the
// shared decoded form, op chain and both block tables must only ever be
// read.
func TestStagedRunsConcurrent(t *testing.T) {
	cases := stagedCases(t)
	want := make([][2]stagedRun, len(cases))
	for i, c := range cases {
		for mode, traced := range []bool{false, true} {
			r, err := c.run(traced)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want[i][mode] = r
		}
		if want[i][1].Tally.Len() == 0 {
			t.Fatalf("%s: the traced run emitted no events", c.name)
		}
	}
	before := machine.StagedStats()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * len(cases) {
				i := (g + k) % len(cases)
				for mode, traced := range []bool{false, true} {
					got, err := cases[i].run(traced)
					if err != nil {
						t.Errorf("%s: %v", cases[i].name, err)
						return
					}
					if !reflect.DeepEqual(got, want[i][mode]) {
						t.Errorf("%s (traced %v): concurrent run %+v differs from the serial %+v", cases[i].name, traced, got, want[i][mode])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if after := machine.StagedStats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Errorf("the concurrent runs staged %d programs afresh and took %d staged ones; want 0 and more",
			after.Misses-before.Misses, after.Hits-before.Hits)
	}
	if err := machine.VerifyStaged(); err != nil {
		t.Error(err)
	}
	if err := VerifyAssembled(); err != nil {
		t.Error(err)
	}
}
