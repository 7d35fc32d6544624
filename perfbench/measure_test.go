package main

import (
	"slices"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{}, 0.99); got != 0 {
		t.Fatalf("quantile of nothing = %v, want 0", got)
	}
}

func TestQuietLeavesOutStolenMeasurements(t *testing.T) {
	stolen := []float64{0, 12, 1, -1, 30, 2}
	if got, want := quiet(stolen), []int{0, 2, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("quiet(%v) = %v, want %v", stolen, got, want)
	}
	xs := []float64{1, 9, 2, 3, 9, 4}
	if v, used := quietMedian(xs, stolen); v != 2.5 || used != 4 {
		t.Fatalf("quietMedian = %v over %d, want 2.5 over 4", v, used)
	}
}

func TestQuietKeepsLeastStolenQuarterInASpell(t *testing.T) {
	stolen := []float64{30, 8, 25, 40, 9, 35, 20, 50}
	if got, want := quiet(stolen), []int{1, 4}; !slices.Equal(got, want) {
		t.Fatalf("quiet(%v) = %v, want %v", stolen, got, want)
	}
}
