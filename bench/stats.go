package main

import (
	"math"
	"sort"
	"time"
)

// Latency histogram: bucket i counts durations in [histBase^i,
// histBase^(i+1)) nanoseconds, and quantiles interpolate inside a bucket, so
// they carry under 1% error. The histogram has a fixed size however many
// samples arrive: storing raw samples would grow with throughput, and a
// faster commit would then read heavier in max_rss_mb and alloc_kb_per_item.
const (
	histBase    = 1.01
	histBuckets = 2800 // 1 ns up to about 20 minutes
)

var histLogBase = math.Log(histBase)

type hist struct {
	counts [histBuckets]int64
	n      int64
}

func (h *hist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) / histLogBase)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs returns the q-quantile in milliseconds, 0 for an empty
// histogram.
func (h *hist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := math.Pow(histBase, float64(i))
			frac := (rank - float64(cum)) / float64(c)
			return lo * (1 + frac*(histBase-1)) / 1e6
		}
		cum += c
	}
	return math.Pow(histBase, histBuckets) / 1e6
}

// median is the middle of vs (the mean of the two middle values for an even
// count), as Python's statistics.median computes it.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs by the exclusive
// method of Python's statistics.quantiles(vs, n=4), the one used to judge
// run-to-run spread. With fewer than two values both equal the only value.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
