package modelzoo_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden kernel-run file")

// goldenShapes are the (n, procs) points the kernel-run golden pins:
// dividing and non-dividing shards, odd and power-of-two widths, a single
// processor and a chunk smaller than the width.
var goldenShapes = [][2]int{{64, 4}, {64, 8}, {16, 2}, {48, 3}, {60, 6}, {7, 4}, {8, 1}}

// matrixShape is the conformance matrix's golden sizing. The executor
// relation is checked there too, without adding records to the golden.
var matrixShape = [2]int{16, 4}

// TestKernelRunsGolden pins every implementable Table I class × every
// kernel × goldenShapes through RunKernel, on and off the conformance
// matrix: Stats, a hash of the output, a hash of the traced event stream
// and every ProgramSpec the program sink records. A failing run records
// only that it failed and whether the failure is Unsupported, so error
// wording may change but which cells fail may not. At every golden shape
// and at matrixShape, the untraced run and the machine.Step reference
// (workload.WithInterp), traced and untraced, must reproduce the record.
func TestKernelRunsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range taxonomy.Table() {
		if !c.Implementable {
			continue
		}
		for _, kernel := range modelzoo.Kernels() {
			for _, s := range goldenShapes {
				goldenRun(t, &b, c, kernel, s[0], s[1])
			}
			n, procs := matrixShape[0], matrixShape[1]
			want, err := kernelRun(c, kernel, n, procs, true)
			checkRelations(t, c, kernel, n, procs, want, err)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "kernel_runs.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("kernel runs drifted from %s at line %d (review, then rerun with -update):\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("kernel runs drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// goldenRun appends one (class, kernel, n, procs) record to b.
func goldenRun(t *testing.T, b *strings.Builder, c taxonomy.Class, kernel string, n, procs int) {
	t.Helper()
	fmt.Fprintf(b, "%s %s n=%d procs=%d\n", c, kernel, n, procs)

	var specs []workload.ProgramSpec
	if _, err := modelzoo.RunKernel(c, kernel, n, procs, workload.WithProgramSink(&specs)); err != nil {
		fmt.Fprintf(b, "  sink: error unsupported=%v\n", modelzoo.Unsupported(err))
	}
	for _, s := range specs {
		fmt.Fprintf(b, "  spec %s mem=%d procs=%d net=%v barrier=%v prog=%016x\n",
			s.Name, s.MemWords, s.Procs, s.HasNetwork, s.HasBarrier, programHash(s.Program))
	}

	rec, err := kernelRun(c, kernel, n, procs, true)
	if err != nil {
		fmt.Fprintf(b, "  run: error unsupported=%v\n", modelzoo.Unsupported(err))
	} else {
		fmt.Fprintf(b, "  run: %+v out=%016x trace=%016x events=%d\n",
			rec.stats, rec.out, rec.trace, rec.events)
	}
	checkRelations(t, c, kernel, n, procs, rec, err)
}

// runRecord is what the golden pins of one kernel run: Stats, the output
// hash and, for a traced run, the event-stream hash and count.
type runRecord struct {
	stats  machine.Stats
	out    uint64
	trace  uint64
	events int
}

// kernelRun runs one kernel, hashing its event stream when traced.
func kernelRun(c taxonomy.Class, kernel string, n, procs int, traced bool, opts ...workload.Option) (runRecord, error) {
	tr := &hashTracer{h: fnv.New64a()}
	if traced {
		opts = append(opts, workload.WithTracer(tr))
	}
	res, err := modelzoo.RunKernel(c, kernel, n, procs, opts...)
	return runRecord{stats: res.Stats, out: wordsHash(res.Output), trace: tr.h.Sum64(), events: tr.events}, err
}

// checkRelations requires the untraced compiled run and the Step
// reference, traced and untraced, to fail exactly when the traced compiled
// run (want, wantErr) failed, and otherwise to reproduce its record; the
// untraced runs have no event stream to compare.
func checkRelations(t *testing.T, c taxonomy.Class, kernel string, n, procs int, want runRecord, wantErr error) {
	t.Helper()
	for _, v := range []struct {
		name   string
		traced bool
		opts   []workload.Option
	}{
		{"untraced", false, nil},
		{"interp traced", true, []workload.Option{workload.WithInterp()}},
		{"interp untraced", false, []workload.Option{workload.WithInterp()}},
	} {
		got, err := kernelRun(c, kernel, n, procs, v.traced, v.opts...)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s %s n=%d procs=%d: %s run error %v, traced compiled run error %v",
				c, kernel, n, procs, v.name, err, wantErr)
			continue
		}
		if !v.traced {
			got.trace, got.events = want.trace, want.events
		}
		if err == nil && got != want {
			t.Errorf("%s %s n=%d procs=%d: %s run %+v differs from the traced compiled run %+v",
				c, kernel, n, procs, v.name, got, want)
		}
	}
}

// hashTracer folds every event, in emission order, into one FNV-64a hash.
type hashTracer struct {
	mu     sync.Mutex
	h      hash.Hash64
	events int
}

func (t *hashTracer) Emit(e obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [2 + 4 + 3*8]byte
	buf[0], buf[1] = byte(e.Kind), e.Flags
	binary.LittleEndian.PutUint32(buf[2:], uint32(e.Track))
	binary.LittleEndian.PutUint64(buf[6:], uint64(e.Cycle))
	binary.LittleEndian.PutUint64(buf[14:], uint64(e.Dur))
	binary.LittleEndian.PutUint64(buf[22:], uint64(e.Arg))
	t.h.Write(buf[:])
	t.events++
}

func wordsHash(ws []isa.Word) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], uint64(w))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func programHash(p isa.Program) uint64 {
	h := fnv.New64a()
	for _, ins := range p {
		fmt.Fprintf(h, "%d %d %d %d %d;", ins.Op, ins.Rd, ins.Ra, ins.Rb, ins.Imm)
	}
	return h.Sum64()
}
