// BenchmarkCells regenerates every figure and proposition of the paper
// (and the comparison/extension experiments), one sub-benchmark per cell
// of the experiment grid — see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for the recorded paper-vs-measured outcomes. Each
// sub-benchmark runs its cell through sim.RunCell, the experiments' single
// entry point, and fails if the cell's acceptance check breaks.
//
//	go test -run '^$' -bench Cells -benchmem
//	go test -run '^$' -bench 'Cells/p5' -benchmem
package ssmfp_test

import (
	"testing"

	"ssmfp/internal/sim"
)

func BenchmarkCells(b *testing.B) {
	for _, spec := range sim.CellGrid() {
		b.Run(spec.Key(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunCell(spec, sim.Options{Seed: 2009})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatalf("cell %s failed its acceptance check", spec.Key())
				}
			}
		})
	}
}
