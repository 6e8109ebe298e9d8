package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625},
		{[]float64{7, 1, 4}, 1, 7},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.in)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.in, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must be refused")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// supported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	v, ok := percentile(ramp(100), 0.9)
	if v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, supported", v, ok)
	}
	if v, ok := percentile(ramp(100), 0.99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v, %v; want 99, refused (1 sample beyond)", v, ok)
	}
	if _, ok := percentile(ramp(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond and must be supported")
	}
	if _, ok := percentile(ramp(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond and must be refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestHighestSupported(t *testing.T) {
	cases := map[int]float64{
		15:    0,
		20:    0.5,
		99:    0.5,
		100:   0.9,
		1000:  0.99,
		10000: 0.999,
	}
	for n, want := range cases {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestWindowedQuantile pins the chunking rule and shows why it is used: load
// that slows a third of the run moves the run's p90 and median but not the
// median of the chunks' p90s and medians.
func TestWindowedQuantile(t *testing.T) {
	clean := ramp(100) // chunk p90 of 1..100 is 90, chunk median 50
	var xs []float64
	for c := 0; c < 30; c++ {
		for _, x := range clean {
			if c < 10 {
				x *= 2 // a slowed stretch
			}
			xs = append(xs, x)
		}
	}
	for _, c := range []struct{ q, want float64 }{{0.9, 90}, {0.5, 50}} {
		v, k, ok := windowedQuantile(xs, c.q)
		if v != c.want || k != 30 || !ok {
			t.Errorf("windowedQuantile(q=%v) = %v over %d chunks (ok %v), want %v over 30 chunks", c.q, v, k, ok, c.want)
		}
		if p, _ := percentile(xs, c.q); p <= c.want {
			t.Errorf("plain q=%v quantile = %v; the slowed third should lift it above %v", c.q, p, c.want)
		}
	}
	if _, k, ok := windowedQuantile(ramp(450), 0.9); k != 4 || !ok {
		t.Errorf("450 ops: %d chunks (ok %v), want 4 supported chunks", k, ok)
	}
	if _, k, ok := windowedQuantile(ramp(60), 0.9); k != 1 || ok {
		t.Errorf("60 ops: %d chunks (ok %v), want 1 flagged chunk", k, ok)
	}
	if _, _, ok := windowedQuantile(nil, 0.5); ok {
		t.Error("no ops must be flagged")
	}
}
