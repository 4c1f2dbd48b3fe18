package main

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The host's speed drifts. On the shared 2-core virtual machine the
// baselines come from, a process keeping both cores busy gets the same CPU
// time minute after minute while doing 15-30% more or less work per
// CPU-second, with no steal time and no cycle counters to account for it.
// Two fixed calibration loops, run on both cores while the workload is
// idle, gauge that drift: each measured phase runs in short bursts with a
// calibration between them, and time metrics are reported in reference
// seconds, host seconds scaled by the loops' speed relative to their speed
// on the reference host. The loops live here and never change, so a change
// to the program under test cannot move them. The raw host times are
// reported as wall.* metrics.
const (
	calibrationSlice = 10 * time.Millisecond // per loop, per calibration
	burstLen         = 500 * time.Millisecond

	// Loop rates on the reference host (iterations per second over both
	// cores), medians of repeated calibrations.
	refInterpRate = 4.0e6
	refLookupRate = 5.2e7
)

// hostSpeed runs both calibration loops and returns the host's speed
// relative to the reference host: the geometric mean of the loops' rates
// over their reference rates. It first completes a garbage collection, so
// the workload's collector cannot slow the loops: otherwise a change that
// allocates more would also read the host as slower and flatter itself.
func hostSpeed() float64 {
	runtime.GC()
	a := parallelRate(interpLoop) / refInterpRate
	b := parallelRate(lookupLoop) / refLookupRate
	return math.Sqrt(a * b)
}

// parallelRate runs loop on `workers` goroutines for calibrationSlice each
// and returns the sum of their iteration rates.
func parallelRate(loop func(seed int, stop func() bool) uint64) float64 {
	rates := make([]float64, workers)
	var wg sync.WaitGroup
	for g := range rates {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			n := loop(g, func() bool { return time.Since(start) >= calibrationSlice })
			rates[g] = float64(n) / time.Since(start).Seconds()
		}(g)
	}
	wg.Wait()
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total
}

// interpLoop dispatches a fixed byte code through a switch, the shape of
// an instruction-set interpreter's inner loop. One iteration runs 256 ops.
func interpLoop(seed int, stop func() bool) uint64 {
	var code [256]byte
	for i := range code {
		code[i] = byte((i*7 + seed) % 5)
	}
	acc := uint64(88172645463325252)
	var n uint64
	for !stop() {
		for rep := 0; rep < 100; rep++ {
			for _, op := range code {
				switch op {
				case 0:
					acc ^= acc << 13
				case 1:
					acc ^= acc >> 7
				case 2:
					acc ^= acc << 17
				case 3:
					acc += 3
				default:
					acc *= 0x9E3779B97F4A7C15
				}
			}
		}
		n += 100
	}
	if acc == 0 { // keeps acc live; xorshift never reaches 0
		n++
	}
	return n
}

// lookupLoop renders label keys into a buffer and looks them up in a map,
// the shape of metric-series lookups. It allocates nothing, so it neither
// triggers nor waits on garbage collection.
func lookupLoop(seed int, stop func() bool) uint64 {
	const tracks, ops = 16, 24
	m := make(map[string]*uint64, tracks*ops)
	var buf []byte
	key := func(t, o int) []byte {
		buf = append(buf[:0], "track="...)
		buf = strconv.AppendInt(buf, int64(t), 10)
		buf = append(buf, ",op="...)
		return strconv.AppendInt(buf, int64(o), 10)
	}
	for t := 0; t < tracks; t++ {
		for o := 0; o < ops; o++ {
			m[string(key(t, o))] = new(uint64)
		}
	}
	var n uint64
	i := seed
	for !stop() {
		for rep := 0; rep < 100; rep++ {
			i = (i*5 + 1) % (tracks * ops)
			*m[string(key(i/ops, i%ops))]++
		}
		n += 100
	}
	return n
}
