package sim

import (
	"testing"
)

// TestEnginePerfIdenticalExecutions requires the incremental engine to be
// an observationally exact replacement for the naive rescan on the full
// composed protocol: same step counts, same per-rule move counts.
func TestEnginePerfIdenticalExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive in -short mode")
	}
	if n := len(epCases()); n != 6 {
		t.Fatalf("expected 6 sweep points, got %d", n)
	}
	for i := range epCases() {
		if row, _ := epCell(Options{Seed: 42}, i); !row.Match {
			t.Fatalf("incremental and naive executions diverged:\n%v", epTable(row))
		}
	}
}

// TestEnginePerfGridRatio pins the acceptance bar: on a 20×20 grid the
// incremental engine must do at least 3× fewer guard evaluations per step
// than the naive scan.
func TestEnginePerfGridRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive in -short mode")
	}
	idx, err := variantIndex(CellSpec{Exp: "ep", Variant: "grid-20x20"})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := epCell(Options{Seed: 7}, idx)
	if !row.Match {
		t.Fatalf("20x20 grid executions diverged")
	}
	if row.Ratio < 3 {
		t.Fatalf("20x20 grid guard-eval ratio %.2f < 3x (naive %.0f/step, incremental %.0f/step)",
			row.Ratio, row.NaivePerStep, row.IncPerStep)
	}
}
