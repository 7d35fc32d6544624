package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ssmfp/internal/baseline"
	"ssmfp/internal/buffergraph"
	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// correctTables builds the canonical routing tables for g.
func correctTables(g *graph.Graph) []*routing.NodeState {
	ts := make([]*routing.NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = routing.CorrectState(g, graph.ProcessID(p))
	}
	return ts
}

// Options parameterizes one experiment cell explicitly. It replaces the
// SSMFP_PARANOID environment variable as the way paranoia reaches the
// engines a cell constructs: the campaign runner executes many cells
// concurrently in one process, so per-run configuration must not live in
// process-global mutable state.
type Options struct {
	// Seed is the cell's base seed; sweep cells derive their own seeds
	// from it by canonical case index, so a cell produces the same numbers
	// whichever other cells run beside it.
	Seed int64

	// Paranoid turns the engine's differential self-check on for every
	// engine the cell builds. False keeps the engine default (on under
	// `go test`, off otherwise) rather than forcing it off.
	Paranoid bool

	// Ctx, when non-nil, aborts long runs early when cancelled
	// (best-effort; checked before a cell starts and, inside scenario
	// runs, every few hundred steps).
	Ctx context.Context

	// Shards > 1 runs every engine the cell builds on the sharded
	// parallel step engine (statemodel.WithShards): guard evaluation and
	// non-adjacent action batches execute concurrently across Shards
	// workers. Executions — and therefore every deterministic quantity
	// in a campaign report — are bit-identical for any value; sharding
	// only changes wall-clock time.
	Shards int
}

// engineOpts translates the options into engine construction options.
func (o Options) engineOpts() []sm.EngineOption {
	var opts []sm.EngineOption
	if o.Paranoid {
		opts = append(opts, sm.WithSelfCheck(true))
	}
	if o.Shards > 1 {
		opts = append(opts, sm.WithShards(o.Shards, o.Seed))
	}
	return opts
}

// cancelled reports a best-effort context check.
func (o Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// --- E-F1: Figure 1, destination-based buffer graph -------------------

// F1Result verifies the Figure 1 claims: with correct tables the
// destination-based buffer graph is acyclic and has n connected
// components, the one of destination d isomorphic to the routing tree T_d.
type F1Result struct {
	Acyclic    bool
	Components int
	AllTrees   bool
	Table      *metrics.Table
}

// ExperimentF1 reconstructs Figure 1 on the paper's 5-processor example
// network.
func ExperimentF1() F1Result {
	g := graph.Figure1Network()
	bg := buffergraph.DestinationBased(g, correctTables(g))
	res := F1Result{
		Acyclic:    bg.Acyclic(),
		Components: len(bg.Components()),
		AllTrees:   true,
	}
	t := metrics.NewTable("E-F1: destination-based buffer graph (Figure 1)",
		"destination", "buffers", "edges", "isomorphic to T_d")
	for d := 0; d < g.N(); d++ {
		sub := bg.Restrict(graph.ProcessID(d))
		isTree := bg.ComponentIsTree(graph.ProcessID(d))
		if !isTree {
			res.AllTrees = false
		}
		t.AddRow(d, sub.Size(), sub.EdgeCount(), isTree)
	}
	res.Table = t
	return res
}

// --- E-F2: Figure 2, SSMFP's two-buffer graph --------------------------

// F2Result verifies the Figure 2 structure and its corruption hazard: with
// correct tables the two-buffer graph is acyclic; with a routing loop it
// has a cycle (the deadlock hazard SSMFP tolerates while A repairs).
type F2Result struct {
	CleanAcyclic bool
	BuffersPerCC int
	CycleLen     int // length of the cycle found under corruption (0 = none)
	Table        *metrics.Table
}

// ExperimentF2 builds the SSMFP buffer graph for one destination of the
// Figure 3 network (destination b, as in the paper's Figure 2), then
// corrupts the tables to exhibit a cycle.
func ExperimentF2() F2Result {
	g := graph.Figure3Network()
	const destB = 1
	clean := buffergraph.SSMFP(g, correctTables(g))
	sub := clean.Restrict(destB)

	ts := correctTables(g)
	routing.CycleCorrupt(g, destB, 0, 2, ts) // a and c route at each other
	corrupt := buffergraph.SSMFP(g, ts)
	cycle := corrupt.Restrict(destB).FindCycle()

	res := F2Result{
		CleanAcyclic: sub.Acyclic(),
		BuffersPerCC: sub.Size(),
		CycleLen:     max(0, len(cycle)-1),
	}
	t := metrics.NewTable("E-F2: SSMFP buffer graph for destination b (Figure 2)",
		"tables", "buffers", "edges", "acyclic", "cycle length")
	t.AddRow("correct", sub.Size(), sub.EdgeCount(), sub.Acyclic(), 0)
	t.AddRow("corrupted (a↔c)", sub.Size(), corrupt.Restrict(destB).EdgeCount(),
		corrupt.Restrict(destB).Acyclic(), res.CycleLen)
	res.Table = t
	return res
}

// --- E-F4: Figure 4, caterpillar classification ------------------------

// F4Census is the caterpillar census observed along an adversarial
// execution: all three types must occur, and every occupied buffer set must
// contain at least one caterpillar head (the progress witness of the
// proofs).
type F4Census struct {
	Seen        map[core.CaterpillarType]int
	AllTypesHit bool
	Consistent  bool
}

// f4Cell runs a corrupted scenario on the Figure 1 network and classifies
// every buffer at every step.
func f4Cell(o Options) (F4Census, CellMeasure) {
	g := graph.Figure1Network()
	rng := rand.New(rand.NewSource(o.Seed))
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	cfg[0].(*core.Node).FW.Enqueue("f4-probe", 4)
	cfg[3].(*core.Node).FW.Enqueue("f4-probe-2", 2)
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, o.Seed, g.N()), cfg, o.engineOpts()...)

	res := F4Census{Seen: make(map[core.CaterpillarType]int), Consistent: true}
	for i := 0; i < 500_000; i++ {
		if i%1024 == 0 && o.cancelled() {
			break
		}
		cfgNow := snapshotStates(e, g)
		for d := 0; d < g.N(); d++ {
			census := core.CaterpillarCensus(g, cfgNow, graph.ProcessID(d))
			for typ, c := range census {
				res.Seen[typ] += c
			}
			total, _ := core.Occupancy(cfgNow, graph.ProcessID(d))
			heads := census[core.Type1] + census[core.Type2] + census[core.Type3]
			if total > 0 && heads == 0 {
				res.Consistent = false
			}
		}
		if !e.Step() {
			break
		}
	}
	res.AllTypesHit = res.Seen[core.Type1] > 0 && res.Seen[core.Type2] > 0 && res.Seen[core.Type3] > 0
	stats := e.Stats()
	return res, CellMeasure{
		Steps:      e.Steps(),
		Rounds:     e.Rounds(),
		GuardEvals: stats.GuardEvals,
		Extra: map[string]float64{
			"type1": float64(res.Seen[core.Type1]),
			"type2": float64(res.Seen[core.Type2]),
			"type3": float64(res.Seen[core.Type3]),
		},
	}
}

// f4Table renders the E-F4 census, one row per caterpillar type.
func f4Table(c F4Census) *metrics.Table {
	t := metrics.NewTable("E-F4: caterpillar census over an adversarial execution (Figure 4)",
		"type", "buffer observations")
	for _, typ := range []core.CaterpillarType{core.Type1, core.Type2, core.Type3} {
		t.AddRow(typ.String(), c.Seen[typ])
	}
	return t
}

// --- E-P4: Proposition 4, ≤ 2n invalid deliveries ----------------------

// P4Row is one sweep point of experiment E-P4: every buffer of a network
// of size N is stuffed with invalid messages, and Proposition 4 bounds the
// invalid messages delivered to any one destination by 2n.
type P4Row struct {
	N              int
	InvalidPlaced  int
	MaxPerDest     int
	Bound          int
	TotalDelivered int
}

// P4Sizes is the canonical size sweep of experiment E-P4.
var P4Sizes = []int{4, 6, 8, 10}

// p4Cell runs one size of the E-P4 sweep.
func p4Cell(o Options, n int) (P4Row, CellMeasure) {
	rng := rand.New(rand.NewSource(o.Seed + int64(n)))
	g := graph.RandomConnected(n, 2*n, rng)
	r := Run(Scenario{
		Name:  fmt.Sprintf("p4-n%d", n),
		Graph: g,
		Corrupt: &core.CorruptOptions{
			BufferFill:     1,
			CorruptRouting: true,
			CorruptQueues:  true,
		},
		Daemon:    Synchronous,
		Seed:      o.Seed + int64(n),
		MaxSteps:  5_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
		Shards:    o.Shards,
	})
	row := P4Row{
		N:              n,
		InvalidPlaced:  2 * n * n,
		MaxPerDest:     r.MaxInvalidPerDst,
		Bound:          2 * n,
		TotalDelivered: r.InvalidDelivered,
	}
	m := measureOf(r)
	m.InvalidBound = row.Bound
	return row, m
}

// p4Table renders one E-P4 sweep point.
func p4Table(row P4Row) *metrics.Table {
	t := metrics.NewTable("E-P4: invalid deliveries per destination vs the 2n bound (Prop. 4)",
		"n", "invalid placed", "max delivered to one dest", "bound 2n", "total invalid delivered")
	t.AddRow(row.N, row.InvalidPlaced, row.MaxPerDest, row.Bound, row.TotalDelivered)
	return t
}

// --- E-P5: Proposition 5, delivery latency bound -----------------------

// P5Row is one sweep point of experiment E-P5: worst-case delivery
// latency must stay within the O(max(R_A, Δ^D)) bound of Proposition 5,
// and the sweep shows how observed latency grows with D and Δ.
type P5Row struct {
	Topology   string
	Delta, D   int
	MaxLatency int     // worst observed generation→delivery rounds
	Bound      float64 // Δ^D reference
}

// topoCase is one named topology of a sweep; graphs are built lazily so
// enumerating the case list (for the campaign cell grid) costs nothing.
type topoCase struct {
	name string
	make func() *graph.Graph
}

// p5Cases is the canonical case list of E-P5: lines grow D at Δ=2, stars
// grow Δ at D=2. Per-case seeds are seed + canonical index.
func p5Cases() []topoCase {
	var cases []topoCase
	for _, n := range []int{3, 5, 7, 9} {
		n := n
		cases = append(cases, topoCase{fmt.Sprintf("line-%d", n), func() *graph.Graph { return graph.Line(n) }})
	}
	for _, n := range []int{4, 6, 8} {
		n := n
		cases = append(cases, topoCase{fmt.Sprintf("star-%d", n), func() *graph.Graph { return graph.Star(n) }})
	}
	return cases
}

// p5Cell runs one canonical case of the E-P5 sweep — adversarial
// all-to-all cross-traffic from a corrupted configuration — and reports
// whether it stayed within the (generously constant-factored) bound.
func p5Cell(o Options, idx int) (P5Row, bool, CellMeasure) {
	c := p5Cases()[idx]
	g := c.make()
	// Saturating cross-traffic: everyone sends to everyone once.
	w := workload.AllToAll(g, 1)
	r := Run(Scenario{
		Name:      "p5-" + c.name,
		Graph:     g,
		Corrupt:   &core.DefaultCorrupt,
		Daemon:    WeaklyFairLIFO,
		Seed:      o.Seed + int64(idx),
		Workload:  w,
		MaxSteps:  8_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
		Shards:    o.Shards,
	})
	row := P5Row{
		Topology:   c.name,
		Delta:      g.MaxDegree(),
		D:          g.Diameter(),
		MaxLatency: int(r.LatencyRounds.Max),
		Bound:      math.Pow(float64(g.MaxDegree()), float64(g.Diameter())),
	}
	// The paper's bound is asymptotic; we check against a generous
	// constant multiple plus the routing-stabilization additive term.
	within := float64(row.MaxLatency) <= 40*(row.Bound+float64(4*g.N()))
	m := measureOf(r)
	m.MaxLatencyRounds = row.MaxLatency
	return row, within, m
}

// p5Table renders one E-P5 sweep point.
func p5Table(row P5Row) *metrics.Table {
	t := metrics.NewTable("E-P5: worst delivery latency vs Δ^D bound (Prop. 5)",
		"topology", "Δ", "D", "max latency (rounds)", "Δ^D")
	t.AddRow(row.Topology, row.Delta, row.D, row.MaxLatency, row.Bound)
	return t
}

// --- E-P6: Proposition 6, delay and waiting time -----------------------

// P6Row is one sweep point of experiment E-P6: the delay (rounds before
// the first emission) and the waiting time (rounds between consecutive
// emissions) at a busy processor.
type P6Row struct {
	Topology   string
	Delta, D   int
	Delay      int // rounds before the probe's first R1
	MaxWaiting int // max rounds between consecutive R1s at the probe source
}

// p6Cases is the canonical case list of E-P6.
func p6Cases() []topoCase {
	return []topoCase{
		{"line-5", func() *graph.Graph { return graph.Line(5) }},
		{"star-6", func() *graph.Graph { return graph.Star(6) }},
		{"grid-3x3", func() *graph.Graph { return graph.Grid(3, 3) }},
	}
}

// p6Cell runs one canonical case of the E-P6 sweep: one source loaded
// with extra messages under all-to-one cross-traffic toward the same sink.
func p6Cell(o Options, idx int) (P6Row, CellMeasure) {
	g := p6Cases()[idx].make()
	sink := graph.ProcessID(0)
	probe := graph.ProcessID(g.N() - 1)
	w := workload.AllToOne(g, sink, 2)
	// The probe source sends three extra messages so waiting time has
	// at least two intervals.
	w = append(w, workload.SinglePair(probe, sink, 3)...)
	r := Run(Scenario{
		Name:      fmt.Sprintf("p6-%d", idx),
		Graph:     g,
		Corrupt:   &core.DefaultCorrupt,
		Daemon:    CentralRandom,
		Seed:      o.Seed + int64(idx),
		Workload:  w,
		MaxSteps:  8_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
		Shards:    o.Shards,
	})
	gens := r.GenRoundsBySource[probe]
	row := P6Row{Topology: g.String(), Delta: g.MaxDegree(), D: g.Diameter()}
	if len(gens) > 0 {
		row.Delay = gens[0]
		for j := 1; j < len(gens); j++ {
			if wait := gens[j] - gens[j-1]; wait > row.MaxWaiting {
				row.MaxWaiting = wait
			}
		}
	}
	m := measureOf(r)
	m.DelayRounds = row.Delay
	m.MaxWaitingRounds = row.MaxWaiting
	return row, m
}

// p6Table renders one E-P6 sweep point.
func p6Table(row P6Row) *metrics.Table {
	t := metrics.NewTable("E-P6: delay and waiting time at a loaded source (Prop. 6)",
		"topology", "Δ", "D", "delay (rounds)", "max waiting (rounds)")
	t.AddRow(row.Topology, row.Delta, row.D, row.Delay, row.MaxWaiting)
	return t
}

// --- E-P7: Proposition 7, amortized complexity Θ(D) --------------------

// P7Row is one sweep point of experiment E-P7: rounds per delivered
// message grow (at most) linearly in D under saturation — the Θ(D) of
// Proposition 7, with 3D as the proof's reference constant.
type P7Row struct {
	D          int
	Rounds     int
	Deliveries int
	Amortized  float64
}

// P7Diameters is the canonical diameter sweep of experiment E-P7.
var P7Diameters = []int{2, 4, 6, 8}

// p7Cell saturates a line of diameter d with all-to-one traffic and
// reports whether the amortized cost stayed within the 3D (+ slack)
// reference.
func p7Cell(o Options, d int) (P7Row, bool, CellMeasure) {
	g := graph.Line(d + 1)
	w := workload.AllToOne(g, 0, 4)
	r := Run(Scenario{
		Name:      fmt.Sprintf("p7-d%d", d),
		Graph:     g,
		Corrupt:   nil, // amortized analysis is about steady state
		Daemon:    Synchronous,
		Seed:      o.Seed + int64(d),
		Workload:  w,
		MaxSteps:  8_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
		Shards:    o.Shards,
	})
	deliveries := r.DeliveredValid + r.InvalidDelivered
	row := P7Row{D: d, Rounds: r.Rounds, Deliveries: deliveries}
	if deliveries > 0 {
		row.Amortized = float64(r.Rounds) / float64(deliveries)
	}
	m := measureOf(r)
	m.Extra = map[string]float64{"d": float64(d), "amortized": row.Amortized}
	return row, row.Amortized <= float64(3*d)+10, m
}

// p7Table renders one E-P7 sweep point.
func p7Table(row P7Row) *metrics.Table {
	t := metrics.NewTable("E-P7: amortized rounds per delivery vs D (Prop. 7)",
		"D", "rounds", "deliveries", "rounds/delivery", "3D reference")
	t.AddRow(row.D, row.Rounds, row.Deliveries, row.Amortized, 3*row.D)
	return t
}

// --- E-X1: SSMFP vs the classical baselines under corruption -----------

// X1Row is one protocol's outcome in experiment E-X1.
type X1Row struct {
	Protocol   string
	Delivered  int
	Lost       int
	Violations int  // duplications and other SP breaches observed
	Stuck      bool // deadlocked or livelocked
}

// x1Cell runs SSMFP and the classical controllers on the same ring with
// the same routing loop and the same traffic, from identical corrupted
// starting points: SSMFP satisfies SP; the atomic classical controller
// livelocks without routing repair; the naive shared-memory port loses
// and duplicates. It reports the rows (SSMFP first) and whether SSMFP
// came out clean.
func x1Cell(o Options) ([]X1Row, bool, CellMeasure) {
	seed := o.Seed
	g := graph.Ring(6)
	const dest = 0

	// --- SSMFP from a corrupted configuration.
	ssmfpRes := func() X1Row {
		cfg := core.CleanConfig(g)
		cfg[2].(*core.Node).RT.Parent[dest] = 3
		cfg[3].(*core.Node).RT.Parent[dest] = 2 // loop 2↔3 toward dest
		cfg[3].(*core.Node).FW.Dests[dest].BufE = &core.Message{
			Payload: "x", LastHop: 3, Color: 0, UID: 1 << 40, Src: 3, Dest: dest, Valid: false}
		for p := 1; p < g.N(); p++ {
			cfg[p].(*core.Node).FW.Enqueue("x", dest) // colliding payloads
		}
		e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, o.engineOpts()...)
		tr := checker.New(g)
		tr.RecordInitial(cfg)
		tr.Attach(e)
		_, terminal := e.Run(5_000_000, nil)
		return X1Row{
			Protocol:   "SSMFP",
			Delivered:  tr.DeliveredValid(),
			Lost:       len(tr.UndeliveredValid()),
			Violations: len(tr.Violations()),
			Stuck:      !terminal,
		}
	}()

	// --- Classical atomic controller, same loop, no routing repair.
	atomicRow := func() X1Row {
		ts := baseline.CorrectTables(g)
		ts[2].Parent[dest] = 3
		ts[3].Parent[dest] = 2
		a := baseline.NewAtomic(g, ts, seed)
		for p := 1; p < g.N(); p++ {
			a.Enqueue(graph.ProcessID(p), "x", dest)
		}
		_, stopped := a.Run(100_000)
		return X1Row{
			Protocol:  "classical (atomic moves, no repair)",
			Delivered: len(a.Delivered()),
			Lost:      0,
			Stuck:     !stopped || a.Deadlocked(), // livelock or deadlock
		}
	}()

	// --- Naive shared-memory port with routing repair.
	naiveRow := func() X1Row {
		cfg := baseline.CleanConfig(g)
		cfg[2].(*baseline.Node).RT.Parent[dest] = 3
		cfg[3].(*baseline.Node).RT.Parent[dest] = 2
		cfg[3].(*baseline.Node).FW.Buf[dest] = &core.Message{
			Payload: "x", LastHop: 3, UID: 1 << 41, Src: 3, Dest: dest, Valid: false}
		for p := 1; p < g.N(); p++ {
			cfg[p].(*baseline.Node).FW.Enqueue("x", dest)
		}
		e := sm.NewEngine(g, baseline.NaiveFullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, o.engineOpts()...)
		tr := checker.New(g)
		tr.Attach(e)
		_, terminal := e.Run(5_000_000, nil)
		return X1Row{
			Protocol:   "naive shared-memory port (no colors)",
			Delivered:  tr.DeliveredValid(),
			Lost:       len(tr.UndeliveredValid()),
			Violations: len(tr.Violations()),
			Stuck:      !terminal,
		}
	}()

	ok := ssmfpRes.Lost == 0 && ssmfpRes.Violations == 0 && !ssmfpRes.Stuck
	return []X1Row{ssmfpRes, atomicRow, naiveRow}, ok, CellMeasure{
		DeliveredValid: ssmfpRes.Delivered,
		Extra: map[string]float64{
			"ssmfp_violations": float64(ssmfpRes.Violations),
			"ssmfp_lost":       float64(ssmfpRes.Lost),
		},
	}
}

// x1Table renders the E-X1 comparison, one row per protocol.
func x1Table(rows []X1Row) *metrics.Table {
	t := metrics.NewTable("E-X1: corrupted initial configuration — SSMFP vs classical controllers",
		"protocol", "valid delivered", "valid lost", "violations", "stuck (dead/livelock)")
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Delivered, r.Lost, r.Violations, r.Stuck)
	}
	return t
}

// --- E-X2: fault-free overhead ------------------------------------------

// X2Row is one topology's cost comparison in experiment E-X2. It
// quantifies the paper's closing claim: snap-stabilization without
// significant overcost with respect to the fault-free algorithm — the
// per-message move overhead of SSMFP over the classical atomic controller
// is a small constant (≈3×: copy + internal move + erase per hop instead
// of one atomic move).
type X2Row struct {
	Topology       string
	SSMFPMoves     float64 // forwarding moves per delivered message
	ClassicalMoves float64 // atomic moves per delivered message
	Overhead       float64
}

// x2Cases is the canonical case list of E-X2.
func x2Cases() []topoCase {
	return []topoCase{
		{"line-6", func() *graph.Graph { return graph.Line(6) }},
		{"ring-8", func() *graph.Graph { return graph.Ring(8) }},
		{"grid-3x3", func() *graph.Graph { return graph.Grid(3, 3) }},
		{"star-6", func() *graph.Graph { return graph.Star(6) }},
	}
}

// x2Cell runs identical permutation traffic fault-free through SSMFP and
// the classical controller on one topology of the E-X2 comparison.
func x2Cell(o Options, idx int) (X2Row, CellMeasure) {
	g := x2Cases()[idx].make()
	rng := rand.New(rand.NewSource(o.Seed + int64(idx)))
	w := workload.Permutation(g, rng)

	r := Run(Scenario{
		Name:      "x2-ssmfp",
		Graph:     g,
		Daemon:    Synchronous,
		Seed:      o.Seed + int64(idx),
		Workload:  w,
		MaxSteps:  4_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
		Shards:    o.Shards,
	})
	fwMoves := 0
	for base, c := range r.MovesByRule {
		if base != "A" {
			fwMoves += c
		}
	}

	a := baseline.NewAtomic(g, baseline.CorrectTables(g), o.Seed+int64(idx))
	for _, s := range w {
		a.Enqueue(s.Src, s.Payload, s.Dest)
	}
	a.Run(4_000_000)

	row := X2Row{Topology: g.String()}
	if r.DeliveredValid > 0 {
		row.SSMFPMoves = float64(fwMoves) / float64(r.DeliveredValid)
	}
	if len(a.Delivered()) > 0 {
		row.ClassicalMoves = float64(a.Moves()) / float64(len(a.Delivered()))
	}
	if row.ClassicalMoves > 0 {
		row.Overhead = row.SSMFPMoves / row.ClassicalMoves
	}
	m := measureOf(r)
	m.Extra = map[string]float64{"overhead": row.Overhead}
	return row, m
}

// x2Table renders one E-X2 topology.
func x2Table(row X2Row) *metrics.Table {
	t := metrics.NewTable("E-X2: fault-free moves per message — SSMFP vs classical controller",
		"topology", "SSMFP moves/msg", "classical moves/msg", "overhead")
	t.AddRow(row.Topology, row.SSMFPMoves, row.ClassicalMoves, row.Overhead)
	return t
}
