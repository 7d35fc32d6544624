package sim

import (
	"fmt"
	"math/rand"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// --- E-EP: incremental enabled-set engine vs naive rescan --------------

// EPRow is one sweep point of experiment E-EP, which compares the
// incremental enabled-set engine against the naive full rescan on the
// composed SSMFP+routing program. The two modes must produce bit-identical
// executions (same steps, same per-rule move counts); the payoff column is
// guard evaluations per step, which for the naive scan is Θ(n · rules) and
// for the incremental engine is proportional to the executed processors'
// neighborhoods.
type EPRow struct {
	Topology        string
	N               int
	Steps           int
	NaivePerStep    float64 // guard evaluations per step, full rescan
	IncPerStep      float64 // guard evaluations per step, incremental
	Ratio           float64 // naive / incremental
	ProcsSkippedPct float64 // share of processor evaluations the cache avoided
	Match           bool    // both modes produced identical executions
}

// epRun drives one engine over the scenario and reports its stats plus an
// execution fingerprint (per-rule move counts) for the determinism check.
// Self-check is off in both modes so the guard-evaluation counts are the
// modes' real costs, not the harness's. shards > 1 runs the engine on the
// sharded parallel path; the fingerprint comparison then doubles as the
// sweep-wide determinism oracle for the parallel engine.
func epRun(g *graph.Graph, seed int64, steps int, incremental bool, shards int) (sm.Stats, int, map[string]int) {
	cfg := core.CleanConfig(g)
	opts := []sm.EngineOption{sm.WithIncremental(incremental), sm.WithSelfCheck(false)}
	if shards > 1 {
		opts = append(opts, sm.WithShards(shards, seed))
	}
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, opts...)
	rng := rand.New(rand.NewSource(seed))
	in := workload.NewInjector(workload.RandomPairs(g, g.N(), rng),
		func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })
	in.Tick(e)
	ran, _ := e.Run(steps, nil)
	return e.Stats(), ran, e.MoveCounts()
}

func sameMoves(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// epCase is one sweep point of E-EP. Random graphs derive from a per-case
// seed offset (not one rng shared across the sweep) so a case builds the
// same graph whichever other cells run.
type epCase struct {
	slug    string
	display string
	steps   int
	make    func(seed int64) *graph.Graph
}

// epCases is the canonical case list of E-EP. Step caps shrink with n to
// keep the naive baseline affordable (it costs Θ(n² · n) guard
// evaluations overall: n processors × ~6n+1 rules each, every step).
func epCases() []epCase {
	randomCase := func(n, m, off int) func(int64) *graph.Graph {
		return func(seed int64) *graph.Graph {
			return graph.RandomConnected(n, m, rand.New(rand.NewSource(seed+int64(off))))
		}
	}
	return []epCase{
		{"grid-5x5", "grid 5x5", 200, func(int64) *graph.Graph { return graph.Grid(5, 5) }},
		{"grid-10x10", "grid 10x10", 80, func(int64) *graph.Graph { return graph.Grid(10, 10) }},
		{"grid-20x20", "grid 20x20", 24, func(int64) *graph.Graph { return graph.Grid(20, 20) }},
		{"random-25", "random n=25 m=50", 200, randomCase(25, 50, 103)},
		{"random-100", "random n=100 m=200", 80, randomCase(100, 200, 104)},
		{"random-400", "random n=400 m=800", 24, randomCase(400, 800, 105)},
	}
}

// epCell runs one canonical case of E-EP: the same scenario through the
// naive and the incremental engine, comparing fingerprints. Self-check
// stays off in both modes regardless of paranoia so the guard-evaluation
// counts are the modes' real costs, not the harness's.
func epCell(o Options, idx int) (EPRow, CellMeasure) {
	c := epCases()[idx]
	g := c.make(o.Seed)
	runSeed := o.Seed + int64(idx)
	nStats, nSteps, nMoves := epRun(g, runSeed, c.steps, false, 1)
	iStats, iSteps, iMoves := epRun(g, runSeed, c.steps, true, o.Shards)
	match := nSteps == iSteps && sameMoves(nMoves, iMoves)
	steps := iSteps
	if steps == 0 {
		steps = 1
	}
	evaluated := iStats.ProcsEvaluated + iStats.ProcsSkipped
	skippedPct := 0.0
	if evaluated > 0 {
		skippedPct = 100 * float64(iStats.ProcsSkipped) / float64(evaluated)
	}
	row := EPRow{
		Topology:        c.display,
		N:               g.N(),
		Steps:           iSteps,
		NaivePerStep:    float64(nStats.GuardEvals) / float64(steps),
		IncPerStep:      float64(iStats.GuardEvals) / float64(steps),
		ProcsSkippedPct: skippedPct,
		Match:           match,
	}
	if row.IncPerStep > 0 {
		row.Ratio = row.NaivePerStep / row.IncPerStep
	}
	return row, CellMeasure{
		Steps:      iSteps,
		GuardEvals: iStats.GuardEvals,
		Extra:      map[string]float64{"ratio": row.Ratio, "naive_guard_evals": float64(nStats.GuardEvals)},
	}
}

// epTable renders one E-EP sweep point.
func epTable(row EPRow) *metrics.Table {
	t := metrics.NewTable("E-EP: guard evaluations per step — naive rescan vs incremental enabled set",
		"topology", "n", "steps", "naive evals/step", "incremental evals/step", "ratio", "procs skipped", "identical run")
	t.AddRow(row.Topology, row.N, row.Steps,
		fmt.Sprintf("%.0f", row.NaivePerStep),
		fmt.Sprintf("%.0f", row.IncPerStep),
		fmt.Sprintf("%.1fx", row.Ratio),
		fmt.Sprintf("%.1f%%", row.ProcsSkippedPct),
		row.Match)
	return t
}
