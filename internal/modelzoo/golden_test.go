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

// TestKernelRunsGolden pins every implementable Table I class × every
// kernel × goldenShapes through RunKernel, on and off the conformance
// matrix: Stats, a hash of the output, a hash of the traced event stream
// and every ProgramSpec the program sink records. A failing run records
// only that it failed and whether the failure is Unsupported, so error
// wording may change but which cells fail may not.
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

	tr := &hashTracer{h: fnv.New64a()}
	res, err := modelzoo.RunKernel(c, kernel, n, procs, workload.WithTracer(tr))
	if err != nil {
		fmt.Fprintf(b, "  run: error unsupported=%v\n", modelzoo.Unsupported(err))
		return
	}
	fmt.Fprintf(b, "  run: %+v out=%016x trace=%016x events=%d\n",
		res.Stats, wordsHash(res.Output), tr.h.Sum64(), tr.events)

	plain, err := modelzoo.RunKernel(c, kernel, n, procs)
	if err != nil || plain.Stats != res.Stats || wordsHash(plain.Output) != wordsHash(res.Output) {
		t.Errorf("%s %s n=%d procs=%d: untraced run (%+v, %v) differs from the traced run (%+v)",
			c, kernel, n, procs, plain.Stats, err, res.Stats)
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
