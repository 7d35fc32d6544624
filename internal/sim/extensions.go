package sim

import (
	"fmt"
	"math/rand"

	"ssmfp/internal/acyclic"
	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/faults"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// --- E-X4: buffer economy of the §4 alternative scheme -----------------

// X4Row compares per-node buffer budgets across schemes for one topology.
// It quantifies the conclusion's discussion: the acyclic-covering buffer
// graph needs far fewer buffers (3 for a ring, 2 for a tree), at the price
// of general applicability (NP-hard minimal rank; our alternating cover is
// an upper bound) and sometimes path stretch (clockwise-only ring routing).
type X4Row struct {
	Topology    string
	N           int
	SSMFP       int     // 2n buffers per node (bufR+bufE per destination)
	DestBased   int     // n buffers per node (Figure 1 scheme)
	AcyclicK    int     // k buffers per node (orientation cover)
	Stretch     float64 // average path length / average shortest distance
	Drained     bool    // the k-buffer controller delivered everything
	ExactlyOnce bool
}

// x4Case is one scheme/topology case of E-X4. The slug is the campaign
// cell variant; the display name keeps the legacy table labels.
type x4Case struct {
	slug    string
	display string
	make    func(seed int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState)
}

// x4Cases is the canonical case list of E-X4.
func x4Cases() []x4Case {
	return []x4Case{
		{"ring-8", "ring-8 (clockwise)", func(int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
			g := graph.Ring(8)
			return g, acyclic.RingCover(g), acyclic.ClockwiseRingTables(g)
		}},
		{"tree-15", "tree-15 (minimal)", func(int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
			g := graph.BinaryTree(15)
			return g, acyclic.TreeCover(g, 0), correctTables(g)
		}},
		{"grid-3x3", "grid-3x3 (alternating)", func(int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
			g := graph.Grid(3, 3)
			ts := correctTables(g)
			c, err := acyclic.AlternatingCover(g, ts)
			if err != nil {
				panic(err)
			}
			return g, c, ts
		}},
		{"random-10", "random-10 (alternating)", func(seed int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
			rng := rand.New(rand.NewSource(seed))
			g := graph.RandomConnected(10, 20, rng)
			ts := correctTables(g)
			c, err := acyclic.AlternatingCover(g, ts)
			if err != nil {
				panic(err)
			}
			return g, c, ts
		}},
	}
}

// x4Cell runs permutation traffic through the level-buffer controller for
// one canonical case of E-X4: a ring (specialized 3-cover, clockwise
// routing), a tree (2-cover, minimal routing), or a general graph
// (alternating cover).
func x4Cell(o Options, idx int) (X4Row, CellMeasure) {
	c := x4Cases()[idx]
	g, cover, tables := c.make(o.Seed)
	ctrl := acyclic.NewController(cover, tables, o.Seed+int64(idx))
	rng := rand.New(rand.NewSource(o.Seed + int64(idx)))
	w := workload.Permutation(g, rng)
	var pathLen, shortest int
	for _, s := range w {
		ctrl.Enqueue(s.Src, s.Payload, s.Dest)
		pathLen += tableDistance(tables, s.Src, s.Dest)
		shortest += g.Dist(s.Src, s.Dest)
	}
	_, stopped := ctrl.Run(4_000_000)
	seen := map[uint64]int{}
	for _, p := range ctrl.Delivered() {
		seen[p.UID]++
	}
	exactlyOnce := len(seen) == len(w)
	for _, n := range seen {
		if n != 1 {
			exactlyOnce = false
		}
	}
	row := X4Row{
		Topology:    c.display,
		N:           g.N(),
		SSMFP:       2 * g.N(),
		DestBased:   g.N(),
		AcyclicK:    cover.Size(),
		Drained:     stopped && ctrl.Quiescent(),
		ExactlyOnce: exactlyOnce,
	}
	if shortest > 0 {
		row.Stretch = float64(pathLen) / float64(shortest)
	}
	return row, CellMeasure{
		Generated:      len(w),
		DeliveredValid: len(seen),
		Extra:          map[string]float64{"cover_k": float64(cover.Size()), "stretch": row.Stretch},
	}
}

// x4Table renders one E-X4 case.
func x4Table(row X4Row) *metrics.Table {
	t := metrics.NewTable("E-X4: buffers per node — SSMFP vs destination-based vs acyclic cover (§4)",
		"topology", "n", "SSMFP (2n)", "dest-based (n)", "acyclic cover (k)", "path stretch", "exactly once")
	t.AddRow(row.Topology, row.N, row.SSMFP, row.DestBased, row.AcyclicK, row.Stretch, row.ExactlyOnce)
	return t
}

// tableDistance follows the tables, counting hops.
func tableDistance(tables []*routing.NodeState, p, d graph.ProcessID) int {
	hops := 0
	for p != d {
		p = tables[p].NextHop(d)
		hops++
		if hops > 10_000 {
			panic("sim: routing loop in tableDistance")
		}
	}
	return hops
}

// --- E-X5: choice_p(d) policy ablation ----------------------------------

// X5Row is one policy's outcome in experiment E-X5, which ablates the fair
// selection scheme behind choice_p(d) — the paper's conclusion suggests
// modifying it to improve the worst case, and its fairness requirement
// exists to prevent starvation. The probe is one message from the
// highest-ID leaf of a star whose other leaves hammer the center; an
// unfair policy serves it last (or never, under sustained load), the fair
// policies serve it within the Δ+1 passing bound.
type X5Row struct {
	Policy        string
	AllDelivered  bool
	ProbeDelivery int // step at which the lone probe message arrived
	MaxLatency    int // worst latency (rounds) across all messages
}

// x5Policies is the canonical policy list of E-X5; the campaign cell
// variants use the policies' String() names.
func x5Policies() []core.ChoicePolicy {
	return []core.ChoicePolicy{core.PolicyQueue, core.PolicyRotating, core.PolicyLowestID}
}

// x5Cell runs the loaded star under one policy.
func x5Cell(o Options, policy core.ChoicePolicy) (X5Row, CellMeasure) {
	g := graph.Star(6)
	cfg := core.CleanConfig(g)
	for leaf := graph.ProcessID(1); leaf <= 4; leaf++ {
		for k := 0; k < 10; k++ {
			cfg[leaf].(*core.Node).FW.Enqueue(fmt.Sprintf("bulk-%d-%d", leaf, k), 0)
		}
	}
	cfg[5].(*core.Node).FW.Enqueue("probe", 0)

	e := sm.NewEngine(g, core.FullProgramWithPolicy(g, policy), NewDaemon(CentralRandom, o.Seed, g.N()), cfg, o.engineOpts()...)
	tr := checker.New(g)
	tr.Attach(e)
	probeStep := -1
	e.Subscribe(func(ev sm.Event) {
		if ev.Kind == core.KindDeliver && ev.Payload.(core.DeliverEvent).Msg.Payload == "probe" {
			probeStep = ev.Step
		}
	})
	e.Run(4_000_000, nil)

	row := X5Row{
		Policy:        policy.String(),
		AllDelivered:  tr.AllValidDelivered() && len(tr.Violations()) == 0,
		ProbeDelivery: probeStep,
	}
	for _, l := range tr.LatencyRounds() {
		if l > row.MaxLatency {
			row.MaxLatency = l
		}
	}
	stats := e.Stats()
	return row, CellMeasure{
		Steps:            e.Steps(),
		Rounds:           e.Rounds(),
		GuardEvals:       stats.GuardEvals,
		DeliveredValid:   tr.DeliveredValid(),
		MaxLatencyRounds: row.MaxLatency,
		Extra:            map[string]float64{"probe_step": float64(probeStep)},
	}
}

// x5Table renders one E-X5 policy.
func x5Table(row X5Row) *metrics.Table {
	t := metrics.NewTable("E-X5: choice policy ablation on a loaded star (§4 future work)",
		"policy", "all delivered", "probe delivered at step", "max latency (rounds)")
	t.AddRow(row.Policy, row.AllDelivered, row.ProbeDelivery, row.MaxLatency)
	return t
}

// --- E-X6: transient faults mid-execution -------------------------------

// X6Row is one fault-storm configuration of experiment E-X6, which
// demonstrates the defining property of snap-stabilization with mid-run
// transient faults instead of a corrupted time zero: after every strike,
// newly generated messages are still delivered exactly once.
type X6Row struct {
	Waves       int
	Compromised int
	PostFaultOK bool
	Violations  int
}

// X6Waves is the canonical storm-intensity sweep of E-X6; campaign cell
// variants are "w<waves>".
var X6Waves = []int{1, 3, 6}

// x6Cell runs one fault-storm intensity.
func x6Cell(o Options, waves int) (X6Row, CellMeasure) {
	seed := o.Seed
	rng := rand.New(rand.NewSource(seed + int64(waves)))
	g := graph.Grid(3, 3)
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, o.engineOpts()...)
	tr := checker.New(g)
	tr.RecordInitial(cfg)
	tr.Attach(e)
	in := faults.NewInjector(g, seed+int64(waves), nil)

	for wave := 0; wave < waves; wave++ {
		for k := 0; k < 4; k++ {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("w%d-%d", wave, k), dst)
		}
		// Strike while the wave is still in flight.
		for i := 0; i < 15; i++ {
			e.Step()
		}
		tr.MarkCompromised(faults.InFlightValid(e, g)...)
		tr.MarkCompromised(in.Strike(e, 4)...)
		faults.RearmRequests(e, g)
	}
	for k := 0; k < 4; k++ {
		src := graph.ProcessID(rng.Intn(g.N()))
		dst := graph.ProcessID(rng.Intn(g.N()))
		e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("final-%d", k), dst)
	}
	_, terminal := e.Run(4_000_000, nil)

	row := X6Row{
		Waves:       waves,
		Compromised: tr.Compromised(),
		PostFaultOK: terminal && tr.AllValidDelivered(),
		Violations:  len(tr.Violations()),
	}
	stats := e.Stats()
	return row, CellMeasure{
		Steps:          e.Steps(),
		Rounds:         e.Rounds(),
		GuardEvals:     stats.GuardEvals,
		Generated:      tr.GeneratedCount(),
		DeliveredValid: tr.DeliveredValid(),
		Extra:          map[string]float64{"compromised": float64(row.Compromised)},
	}
}

// x6Table renders one E-X6 storm intensity.
func x6Table(row X6Row) *metrics.Table {
	t := metrics.NewTable("E-X6: transient fault storms (snap-stabilization mid-run)",
		"fault waves", "messages compromised by faults", "post-fault exactly-once", "violations")
	t.AddRow(row.Waves, row.Compromised, row.PostFaultOK, row.Violations)
	return t
}
