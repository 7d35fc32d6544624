package sim

import (
	"math/rand"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// RARow is one routing-variant measurement of experiment E-RA.
type RARow struct {
	Variant      string
	RoutingRound int // R_A: rounds until every table is canonical
	ProbeDelay   int // rounds before the probe's R1 fires (Prop. 6 delay)
	ProbeOK      bool
}

// raCell isolates the max(R_A, ·) term of Propositions 5-7: the same
// corrupted scenario is run with the normal routing algorithm A and with a
// deliberately slowed variant (routing.NewSlowProgram). A is prioritized,
// so a processor whose table is still wrong cannot execute R1; the probe's
// generation delay (Prop. 6) therefore tracks the source's share of R_A —
// the R_A branch of the paper's O(max(R_A, Δ^D)) bounds, exhibited
// empirically. (End-to-end latency does NOT have to track global R_A: a
// message only needs the tables along its own path, which usually repair
// long before the whole network is silent — a nuance the bound hides.)
// It reports the fast and slow rows and whether the slow variant's R_A
// and probe delay both exceed the fast one's.
func raCell(o Options) ([]RARow, bool, CellMeasure) {
	seed := o.Seed
	run := func(name string, prog func(*graph.Graph, routing.Accessor) sm.Program) RARow {
		g := graph.Grid(3, 3)
		rng := rand.New(rand.NewSource(seed))
		// Corrupt only the routing tables, with maximal distance error at
		// the probe source so its local repair work dominates; buffers
		// start clean.
		cfg := core.CleanConfig(g)
		for p := 0; p < g.N(); p++ {
			cfg[p].(*core.Node).RT = routing.RandomState(g, graph.ProcessID(p), rng)
		}
		src := cfg[0].(*core.Node).RT
		for d := 1; d < g.N(); d++ {
			src.Dist[d] = g.N() // worst-case error: the slow variant pays per unit
		}
		cfg[0].(*core.Node).FW.Enqueue("ra-probe", graph.ProcessID(g.N()-1))

		full := sm.Compose(prog(g, core.RoutingOf), core.NewProgram(g))
		e := sm.NewEngine(g, full, NewDaemon(CentralRoundRobin, seed, g.N()), cfg, o.engineOpts()...)
		tr := checker.New(g)
		tr.Attach(e)

		row := RARow{Variant: name, RoutingRound: -1}
		for i := 0; i < 10_000_000; i++ {
			if i%1024 == 0 && o.cancelled() {
				break
			}
			if row.RoutingRound < 0 && routingCorrect(g, e) {
				row.RoutingRound = e.Rounds()
			}
			if !e.Step() {
				break
			}
		}
		if gens := tr.GenerationRounds(); len(gens) == 1 {
			row.ProbeDelay = gens[0]
			row.ProbeOK = tr.AllValidDelivered() && len(tr.Violations()) == 0
		}
		return row
	}

	fast := run("fast A (jump to target)", routing.NewProgram)
	slow := run("slow A (unit steps)", routing.NewSlowProgram)
	tracks := fast.ProbeOK && slow.ProbeOK &&
		slow.RoutingRound > fast.RoutingRound &&
		slow.ProbeDelay > fast.ProbeDelay
	return []RARow{fast, slow}, tracks, CellMeasure{Extra: map[string]float64{
		"fast_ra_rounds":   float64(fast.RoutingRound),
		"fast_probe_delay": float64(fast.ProbeDelay),
		"slow_ra_rounds":   float64(slow.RoutingRound),
		"slow_probe_delay": float64(slow.ProbeDelay),
	}}
}

// raTable renders the E-RA ablation, one row per routing variant.
func raTable(rows []RARow) *metrics.Table {
	t := metrics.NewTable("E-RA: generation delay tracks R_A (the max(R_A, ·) term of Props. 5-7)",
		"routing variant", "R_A (rounds)", "probe generation delay (rounds)", "probe delivered")
	for _, r := range rows {
		t.AddRow(r.Variant, r.RoutingRound, r.ProbeDelay, r.ProbeOK)
	}
	return t
}
