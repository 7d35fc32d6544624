package sim

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

func TestRunCleanScenario(t *testing.T) {
	g := graph.Line(5)
	r := Run(Scenario{
		Name:     "clean",
		Graph:    g,
		Daemon:   Synchronous,
		Seed:     1,
		Workload: workload.SinglePair(0, 4, 3),
		MaxSteps: 100_000,
	})
	if !r.OK() {
		t.Fatalf("clean scenario failed: %+v", r)
	}
	if r.Generated != 3 || r.DeliveredValid != 3 || r.InvalidDelivered != 0 {
		t.Fatalf("accounting: %+v", r)
	}
	if r.RoutingRounds != 0 {
		t.Fatalf("routing rounds = %d, want 0 (tables start correct)", r.RoutingRounds)
	}
	if r.MovesByRule["R1"] != 3 || r.MovesByRule["R6"] != 3 {
		t.Fatalf("moves: %v", r.MovesByRule)
	}
	if r.LatencyRounds.N != 3 || r.LatencyRounds.Max <= 0 {
		t.Fatalf("latency summary: %+v", r.LatencyRounds)
	}
	if !strings.Contains(r.String(), "OK") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestRunCorruptScenarioMeasuresRA(t *testing.T) {
	g := graph.Ring(5)
	r := Run(Scenario{
		Name:     "corrupt",
		Graph:    g,
		Corrupt:  &core.DefaultCorrupt,
		Daemon:   Synchronous,
		Seed:     7,
		Workload: workload.RandomPairs(g, 4, rand.New(rand.NewSource(7))),
		MaxSteps: 1_000_000,
	})
	if !r.OK() {
		t.Fatalf("corrupt scenario failed: %+v", r)
	}
	if r.RoutingRounds < 0 {
		t.Fatal("routing stabilization was never observed")
	}
}

func TestRunSkipsIdleWaits(t *testing.T) {
	g := graph.Line(3)
	w := workload.SinglePair(0, 2, 2)
	w[1].AtStep = 1 << 30 // scheduled far beyond any reachable step
	r := Run(Scenario{
		Name: "idle", Graph: g, Daemon: Synchronous, Seed: 1,
		Workload: w, MaxSteps: 100_000,
	})
	if !r.OK() || r.Generated != 2 {
		t.Fatalf("idle-skip failed: %+v", r)
	}
}

func TestBaseRule(t *testing.T) {
	if BaseRule("R3@17") != "R3" || BaseRule("A@0") != "A" || BaseRule("noat") != "noat" {
		t.Fatal("BaseRule wrong")
	}
}

func TestNewDaemonKinds(t *testing.T) {
	for _, k := range []DaemonKind{Synchronous, CentralRandom, CentralRoundRobin, Distributed, WeaklyFairLIFO} {
		if d := NewDaemon(k, 1, 5); d == nil || d.Name() == "" {
			t.Fatalf("daemon kind %q broken", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind must panic")
		}
	}()
	NewDaemon("bogus", 1, 5)
}

func TestExperimentF1(t *testing.T) {
	r := ExperimentF1()
	if !r.Acyclic || r.Components != 5 || !r.AllTrees {
		t.Fatalf("F1 failed: %+v", r)
	}
	if r.Table.Rows() != 5 {
		t.Fatalf("F1 table rows = %d", r.Table.Rows())
	}
}

func TestExperimentF2(t *testing.T) {
	r := ExperimentF2()
	if !r.CleanAcyclic {
		t.Fatal("clean SSMFP buffer graph must be acyclic")
	}
	if r.BuffersPerCC != 8 { // 2 buffers × 4 processors
		t.Fatalf("buffers per component = %d, want 8", r.BuffersPerCC)
	}
	if r.CycleLen == 0 {
		t.Fatal("corrupted tables must yield a cycle")
	}
}

func TestExperimentF3(t *testing.T) {
	r := ExperimentF3()
	if !r.OK {
		t.Fatalf("Figure 3 replay failed:\n%s\ntrace:\n%s", strings.Join(r.Failures, "\n"), r.Trace)
	}
	if !r.CycleInitially || r.HelloColor != 1 || r.Deliveries != 3 {
		t.Fatalf("F3 result: %+v", r)
	}
	if !strings.Contains(r.Trace, "(0) initial configuration") {
		t.Fatal("trace missing initial frame")
	}
}

func TestExperimentF4(t *testing.T) {
	c, _ := f4Cell(Options{Seed: 11})
	if !c.Consistent {
		t.Fatal("caterpillar census inconsistent (occupied buffers without a head)")
	}
	if !c.AllTypesHit {
		t.Fatalf("not all caterpillar types observed: %v", c.Seen)
	}
}

func TestExperimentP4(t *testing.T) {
	for _, n := range []int{4, 6} {
		row, _ := p4Cell(Options{Seed: 3}, n)
		if row.MaxPerDest > row.Bound {
			t.Fatalf("Proposition 4 bound violated: %+v", row)
		}
		if row.TotalDelivered == 0 {
			t.Fatal("expected some invalid deliveries under full corruption")
		}
	}
}

func TestExperimentP6(t *testing.T) {
	if n := len(p6Cases()); n != 3 {
		t.Fatalf("cases = %d", n)
	}
	for i := range p6Cases() {
		row, _ := p6Cell(Options{Seed: 5}, i)
		if row.MaxWaiting <= 0 {
			t.Fatalf("waiting time not measured: %+v", row)
		}
	}
}

func TestExperimentP7(t *testing.T) {
	var xs, ys []float64
	for _, d := range []int{2, 4, 6} {
		row, within, _ := p7Cell(Options{Seed: 5}, d)
		if !within {
			t.Fatalf("amortized complexity above 3D reference: %+v", row)
		}
		if row.Deliveries == 0 || row.Amortized <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
		xs = append(xs, float64(d))
		ys = append(ys, row.Amortized)
	}
	// Amortized cost must not explode: the fit over D should be sublinear
	// in absolute terms (slope well below the 3·D proof constant).
	if fit := metrics.LinearFit(xs, ys); fit.Slope > 3.0 {
		t.Fatalf("amortized slope %v too steep", fit.Slope)
	}
}

func TestExperimentP5(t *testing.T) {
	if testing.Short() {
		t.Skip("P5 sweep is the slowest experiment; skipped in -short mode")
	}
	var lines []P5Row
	for i := range p5Cases() {
		row, within, _ := p5Cell(Options{Seed: 5}, i)
		if !within {
			t.Fatalf("Proposition 5 bound violated: %+v", row)
		}
		if strings.HasPrefix(row.Topology, "line-") {
			lines = append(lines, row)
		}
	}
	// Latency must grow with the diameter along the line sweep.
	if len(lines) < 2 || lines[len(lines)-1].MaxLatency <= lines[0].MaxLatency {
		t.Fatalf("latency should grow with D: %+v", lines)
	}
}

func TestExperimentX1(t *testing.T) {
	rows, ok, _ := x1Cell(Options{Seed: 9})
	if !ok {
		t.Fatalf("SSMFP failed in the comparison: %+v", rows[0])
	}
	atomic, naive := rows[1], rows[2]
	if !atomic.Stuck {
		t.Fatalf("classical atomic controller should livelock in the loop: %+v", atomic)
	}
	if naive.Lost == 0 && naive.Violations == 0 && !naive.Stuck {
		t.Fatalf("naive port unexpectedly clean: %+v", naive)
	}
}

func TestExperimentX2(t *testing.T) {
	if n := len(x2Cases()); n != 4 {
		t.Fatalf("cases = %d", n)
	}
	for i := range x2Cases() {
		row, _ := x2Cell(Options{Seed: 13}, i)
		if row.SSMFPMoves <= 0 || row.ClassicalMoves <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
		if row.Overhead < 1 || row.Overhead > 8 {
			t.Fatalf("overhead %v outside the 'small constant' claim", row.Overhead)
		}
	}
}

func TestExperimentX3(t *testing.T) {
	if n := len(x3Cases()); n != 3 {
		t.Fatalf("cases = %d", n)
	}
	for i := range x3Cases() {
		if row, _ := x3Cell(Options{Seed: 21}, i); !row.ExactlyOnce {
			t.Fatalf("message-passing port violated exactly-once: %+v", row)
		}
	}
}

func TestExperimentX4(t *testing.T) {
	var rows []X4Row
	for i := range x4Cases() {
		row, _ := x4Cell(Options{Seed: 31}, i)
		if !row.Drained || !row.ExactlyOnce {
			t.Fatalf("acyclic-cover controller failed: %+v", row)
		}
		if row.AcyclicK >= row.DestBased {
			t.Fatalf("cover should beat the destination scheme on buffers: %+v", row)
		}
		rows = append(rows, row)
	}
	if rows[0].AcyclicK != 3 {
		t.Fatalf("ring cover size = %d, want 3 (the paper's '3 for a ring')", rows[0].AcyclicK)
	}
	if rows[1].AcyclicK != 2 {
		t.Fatalf("tree cover size = %d, want 2 (the paper's '2 for a tree')", rows[1].AcyclicK)
	}
	if rows[0].Stretch <= 1.0 {
		t.Fatalf("clockwise ring routing must show stretch > 1, got %v", rows[0].Stretch)
	}
	if rows[1].Stretch != 1.0 {
		t.Fatalf("tree routing is minimal, stretch = %v", rows[1].Stretch)
	}
}

func TestExperimentX5(t *testing.T) {
	if n := len(x5Policies()); n != 3 {
		t.Fatalf("policies = %d", n)
	}
	byPolicy := map[string]X5Row{}
	for _, policy := range x5Policies() {
		row, _ := x5Cell(Options{Seed: 33}, policy)
		byPolicy[row.Policy] = row
		if !row.AllDelivered {
			t.Fatalf("policy %s failed to deliver (finite supply: even unfair policies finish): %+v", row.Policy, row)
		}
		if row.ProbeDelivery < 0 {
			t.Fatalf("probe never delivered under %s", row.Policy)
		}
	}
	// The unfair policy must serve the probe later than the paper's queue.
	if byPolicy["lowest-id"].ProbeDelivery <= byPolicy["fifo-queue"].ProbeDelivery {
		t.Fatalf("lowest-id should starve the probe relative to the queue: %+v vs %+v",
			byPolicy["lowest-id"], byPolicy["fifo-queue"])
	}
}

func TestExperimentX6(t *testing.T) {
	var last X6Row
	for _, waves := range X6Waves {
		last, _ = x6Cell(Options{Seed: 35}, waves)
		if !last.PostFaultOK || last.Violations > 0 {
			t.Fatalf("fault-storm experiment failed: %+v", last)
		}
	}
	if last.Compromised == 0 {
		t.Fatal("the heaviest storm should compromise something")
	}
}

func TestExperimentRA(t *testing.T) {
	rows, tracks, _ := raCell(Options{Seed: 47})
	if !tracks {
		t.Fatalf("latency should track R_A: %+v", rows)
	}
	if rows[0].RoutingRound < 0 || rows[1].RoutingRound < 0 {
		t.Fatalf("R_A never observed: %+v", rows)
	}
}

func TestMonitorsRunAndTrip(t *testing.T) {
	g := graph.Line(4)
	// The well-typed monitor passes on a healthy run.
	r := Run(Scenario{
		Name: "mon-ok", Graph: g, Daemon: Synchronous, Seed: 1,
		Workload: workload.SinglePair(0, 3, 2),
		Monitors: []Monitor{WellTypedMonitor()},
		MaxSteps: 100_000,
	})
	if !r.OK() || r.MonitorErr != nil {
		t.Fatalf("healthy run tripped a monitor: %v", r.MonitorErr)
	}
	// A monitor that always fails aborts the run and surfaces the error.
	calls := 0
	r = Run(Scenario{
		Name: "mon-trip", Graph: g, Daemon: Synchronous, Seed: 1,
		Workload: workload.SinglePair(0, 3, 1),
		Monitors: []Monitor{{Name: "tripwire", Check: func(g *graph.Graph, cfg []sm.State) error {
			calls++
			if calls > 2 {
				return errTrip
			}
			return nil
		}}},
		MaxSteps: 100_000,
	})
	if r.OK() || r.MonitorErr == nil {
		t.Fatalf("tripwire did not abort: %+v", r)
	}
	if !strings.Contains(r.MonitorErr.Error(), "tripwire") {
		t.Fatalf("monitor error unnamed: %v", r.MonitorErr)
	}
}

var errTrip = fmt.Errorf("tripped")

// TestFigure3GoldenTrace pins the exact rendered replay of Figure 3: any
// change to the script, the rules, the renderer, or the color assignment
// shows up as a diff against testdata/figure3.golden.
func TestFigure3GoldenTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/figure3.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := ExperimentF3()
	if !r.OK {
		t.Fatalf("replay failed: %v", r.Failures)
	}
	got := strings.TrimRight(r.Trace, "\n")
	if got != strings.TrimRight(string(want), "\n") {
		t.Fatalf("Figure 3 trace diverged from the golden file.\n--- got ---\n%s\n--- want ---\n%s",
			got, string(want))
	}
}

func TestExperimentMC(t *testing.T) {
	r := ExperimentMC()
	if !r.AllOK {
		t.Fatalf("model-check suite failed: %+v", r.Rows)
	}
	if !r.LiteralR5Found || len(r.Witness) != 2 {
		t.Fatalf("literal R5 witness wrong: found=%v witness=%v", r.LiteralR5Found, r.Witness)
	}
}

func TestRunCellRejectsUnknownCells(t *testing.T) {
	for _, spec := range []CellSpec{
		{Exp: "zz9"},
		{Exp: "p4", Variant: "n7"},
		{Exp: "p5"},
		{Exp: "f1", Variant: "extra"},
	} {
		if _, err := RunCell(spec, Options{Seed: 1}); err == nil {
			t.Errorf("RunCell(%s) accepted a cell outside the grid", spec.Key())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCell(CellSpec{Exp: "f1"}, Options{Seed: 1, Ctx: ctx}); err == nil {
		t.Error("RunCell ran under a cancelled context")
	}
}
