package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four: %v", got)
	}
	if median(nil) != 0 || quantile(nil, 0.9) != 0 {
		t.Error("empty input must read 0")
	}
	if got := quantile(seq(100), 0.9); got != 90 {
		t.Errorf("p90 of 1..100: %v", got)
	}
}

// The reported tail is the highest percentile, capped at the 99th, that
// still has ten samples beyond it.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // the value, which for 1..n is also the rank
		at   float64
	}{
		{n: 5000, want: 4950, at: 99},
		{n: 1000, want: 990, at: 99},
		{n: 500, want: 490, at: 98},
		{n: 100, want: 90, at: 90},
		{n: 15, want: 8, at: 100 * 8.0 / 15}, // too few to leave ten beyond: the median
	} {
		got, at := tailOf(seq(c.n))
		if got != c.want || math.Abs(at-c.at) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, got, at, c.want, c.at)
		}
	}
}

// One disturbed slice (a GC pause, a stolen processor) moves that slice's
// tail and not the median of the slices' tails.
func TestTailIsMedianOfSlices(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 100
		if i%50 == 0 {
			xs[i] = 200 // 2 % of every slice: its p99
		}
	}
	calm := summarize(xs)
	if calm.Slices != 10 || calm.Tail != 200 || calm.P50 != 100 || calm.TailAt != 99 {
		t.Fatalf("calm run: %+v", calm)
	}
	for i := 3000; i < 4000; i += 2 {
		xs[i] = 50000
	}
	hit := summarize(xs)
	if hit.Tail != 200 || hit.P90 != 100 {
		t.Errorf("one disturbed slice moved the figures: %+v", hit)
	}
	if worst, _ := tailOf(xs); worst != 50000 {
		t.Errorf("the overall p99 should see the disturbance, got %v", worst)
	}
	if few := summarize(seq(2500)); few.Slices != 2 {
		t.Errorf("2500 samples make %d slices, want 2 of at least 1000", few.Slices)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{9, 1, 4, 7, 3})
	if q1 != 2 || q2 != 4 || q3 != 8 {
		t.Errorf("five values: %v %v %v, Python gives 2 4 8", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("two values: %v %v %v, Python gives 0.5 2 3.5", q1, q2, q3)
	}
}
