package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// The 0.99 cut of 1000 samples leaves exactly ten above it.
	if beyond := 1000 - int(percentile(xs, 0.99)); beyond != minBeyond {
		t.Errorf("%d samples beyond p99 of 1000, want %d", beyond, minBeyond)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{9, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := highestPercentile(tc.n); q > 0.5 && float64(tc.n)*(1-q) < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", tc.n, q*100, minBeyond)
		}
	}
	if supports(999, 0.99) || !supports(1000, 0.99) {
		t.Error("p99 needs exactly 1000 samples")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{1.5, 2.5, 2.5, 4, 10, 11, 12}, [3]float64{2.5, 4, 11}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.want[0] || q2 != tc.want[1] || q3 != tc.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v", tc.xs, q1, q2, q3, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should fail")
	}
}

func TestRelativeSpread(t *testing.T) {
	got, ok := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("relativeSpread = %v (%v), want %v", got, ok, want)
	}
	if _, ok := relativeSpread([]float64{0, 0, 0}); ok {
		t.Error("a zero median has no relative spread")
	}
}

func TestFailedRatio(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int
		want              float64
	}{{0, 100, 0}, {1, 4, 0.25}, {3, 3, 1}, {0, 0, 1}} {
		if got := failedRatio(tc.failed, tc.attempted); got != tc.want {
			t.Errorf("failedRatio(%d, %d) = %v, want %v", tc.failed, tc.attempted, got, tc.want)
		}
	}
}

func TestMedianAndDurations(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	d := durations{3 * time.Microsecond, time.Microsecond, 2 * time.Microsecond}
	if got := d.sortedMicros(); got[0] != 1 || got[2] != 3 {
		t.Errorf("sortedMicros = %v", got)
	}
	if d.sum() != 6*time.Microsecond {
		t.Errorf("sum = %v", d.sum())
	}
}

func TestSpreadMain(t *testing.T) {
	in := strings.Join([]string{
		"host: noise line",
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1,"unit":"s"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":2,"unit":"s"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":3,"unit":"s"}}}`,
	}, "\n")
	var out strings.Builder
	if err := spreadMain(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	// quartiles(1,2,3) = 1, 2, 3: spread (3-1)/2.
	if !strings.Contains(out.String(), "3 runs") || !strings.Contains(out.String(), "spread 1.0000") {
		t.Errorf("unexpected spread output:\n%s", out.String())
	}
	if err := spreadMain(strings.NewReader("nothing"), &out); err == nil {
		t.Error("input without result lines should fail")
	}
}
