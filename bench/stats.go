package main

import (
	"math"
	"sort"
)

// beyond is how many samples must lie above a reported percentile, so the
// figure is a measurement and not the run's single worst case.
const beyond = 10

// tailSlices is how many equal slices of a phase the tail percentile is
// taken over: one GC pause or scheduler hiccup moves one slice's figure,
// not the median of them.
const tailSlices = 10

// median returns the middle of xs (the mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailOf returns the highest percentile of xs that has at least `beyond`
// samples above it, capped at the 99th: with 1 000 samples or more that is
// p99 (nearest rank), with fewer it is a lower percentile, and with too few
// to leave ten beyond it is the median. The second result is the
// percentile reported.
func tailOf(xs []float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.99 * float64(n))) // 1-based nearest rank
	if n-rank < beyond {
		rank = n - beyond
	}
	if rank < (n+1)/2 {
		rank = (n + 1) / 2
	}
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// quantile returns the q-quantile of xs by nearest rank; 0 for an empty
// slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// summary is a latency distribution as the benchmark reports it.
type summary struct {
	N      int
	P50    float64
	P90    float64 // median of the per-slice 90th percentiles
	Tail   float64 // median of the per-slice tails
	TailAt float64 // the percentile Tail is (99 when every slice has >= 1000 samples)
	Slices int
}

// summarize reports the overall median and the median of the per-slice
// tail percentiles, the samples split in arrival order into as many equal
// slices (at most ten) as still hold 1 000 samples each.
func summarize(xs []float64) summary {
	n := len(xs)
	out := summary{N: n, P50: median(xs)}
	if n == 0 {
		return out
	}
	k := n / 1000
	if k < 1 {
		k = 1
	}
	if k > tailSlices {
		k = tailSlices
	}
	tails, p90s := make([]float64, k), make([]float64, k)
	for i := 0; i < k; i++ {
		slice := xs[i*n/k : (i+1)*n/k]
		tails[i], out.TailAt = tailOf(slice)
		p90s[i] = quantile(slice, 0.9)
	}
	out.Tail, out.P90 = median(tails), median(p90s)
	out.Slices = k
	return out
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(xs, n=4), which the
// driver uses; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
