package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	"ssmfp/internal/sim"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// simSpec is a state-model workload: a sim.Scenario generated from a
// seed. A run executes a sequence of scenarios derived from its seed until
// the measuring time is spent and reports medians, so that one seed's
// schedule (the step count varies by ±7% between seeds) weighs less in the
// run's figures.
type simSpec struct {
	name     string
	rows     int
	cols     int
	corrupt  bool
	daemon   sim.DaemonKind
	shards   int
	messages int
}

// gridSync: every processor moves every step, so the incremental
// enabled-set cache is bypassed and the cost is the Θ(n²)-state guard
// scan, configuration copying and the sharded batch executor. The
// routing algorithm A stays idle (clean start) and no live layer runs.
var gridSync = simSpec{
	name: "sim-sync-grid400", rows: 20, cols: 20,
	daemon: sim.Synchronous, shards: 2, messages: 800,
}

// corruptCentral is the paper's headline case: a start from an arbitrary
// configuration. One move per step (≈45k steps) puts the cost in per-step
// overhead — incremental flush, daemon select, round bookkeeping — and
// A's stabilization runs, which gridSync never does.
var corruptCentral = simSpec{
	name: "sim-corrupt-central", rows: 7, cols: 7, corrupt: true,
	daemon: sim.CentralRandom, shards: 1, messages: 128,
}

// A sim run times up to setupProbes extra set-ups for setup_s, stopping
// early once they have taken setupProbeTime.
const (
	setupProbes    = 41
	setupProbeTime = 1500 * time.Millisecond
)

// scenario builds the inputs of repetition rep of a run with the given
// seed; repetition 0 uses the seed itself.
func (s simSpec) scenario(seed int64, rep int) sim.Scenario {
	seed += int64(rep) << 32
	g := graph.Grid(s.rows, s.cols)
	sc := sim.Scenario{
		Name:     s.name,
		Graph:    g,
		Daemon:   s.daemon,
		Seed:     seed,
		Shards:   s.shards,
		Workload: workload.RandomPairs(g, s.messages, rand.New(rand.NewSource(seed))),
	}
	if s.corrupt {
		c := core.DefaultCorrupt
		sc.Corrupt = &c
	}
	return sc
}

// simTiming is one untraced sim.Run: setup is the time from the call to
// the first Engine.Step (configuration, program, engine and checker
// construction), run the time from there until SP is met.
type simTiming struct {
	setup, run time.Duration
	cpu        time.Duration
	peakMB     float64 // peak resident memory during the call
	stolen     float64 // % of host CPU time stolen during the call, -1 if unknown
	res        sim.Result
}

// runOnce times one sim.Run. sim.Run reports status once before its first
// Engine.Step and once after the result is assembled; those two callbacks
// split the call into set-up and run. A monitor, which sim.Run probes
// before every step, appends the wall time of each iteration of the
// engine loop to steps.
func runOnce(sc sim.Scenario, steps *[]time.Duration) simTiming {
	var first, last, prev time.Time
	sc.StatusEvery = math.MaxInt
	sc.OnStatus = func(sim.Status) {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		last = now
	}
	sc.Monitors = []sim.Monitor{{Name: "step-clock", Check: func(*graph.Graph, []sm.State) error {
		now := time.Now()
		if !prev.IsZero() {
			*steps = append(*steps, now.Sub(prev))
		}
		prev = now
		return nil
	}}}
	reset := resetPeakRSS()
	steal0, total0 := cpuTicks()
	cpu0 := cpuTime()
	t0 := time.Now()
	res := sim.Run(sc)
	t := simTiming{setup: first.Sub(t0), run: last.Sub(first), cpu: cpuTime() - cpu0, res: res, stolen: -1}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		t.stolen = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	t.peakMB = peakRSSMB()
	if reset {
		t.peakMB = peakRSSSinceResetMB()
	}
	return t
}

// gate applies the correctness gate of one sim run, Specification SP: a
// failing run counts every one of its messages as failed.
func gate(rep *report, res sim.Result, messages int) bool {
	rep.attempted += messages
	if !res.OK() || res.Generated != messages {
		rep.failed += messages
		rep.fail("%s (generated %d of %d)", res.String(), res.Generated, messages)
		return false
	}
	return true
}

func (s simSpec) run(o runOpts) (*report, error) {
	rep := newReport()
	sc := s.scenario(o.seed, 0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	// Set-up takes milliseconds and one sample per repetition is too few
	// for a steady median: sim.Run capped at one step times the same
	// set-up path on its own.
	var setups []time.Duration
	var discard []time.Duration
	probeEnd := time.Now().Add(setupProbeTime)
	for i := 0; i < setupProbes && time.Now().Before(probeEnd); i++ {
		probe := sc
		probe.MaxSteps = 1
		setups = append(setups, runOnce(probe, &discard).setup)
	}
	// Step times of the passing repetitions, pooled; stepsOf[i] is where
	// those of passing repetition i end. The buffer is made once, large
	// enough for every repetition, and off the heap, so that it adds the
	// same to every repetition's peak_rss_mb.
	stepTimes, free, err := offHeap[time.Duration](1<<19, true)
	if err != nil {
		return nil, err
	}
	defer free()
	var stepsOf []int
	var passed, all []simTiming
	var took []float64
	// A repetition starts only while one of the typical length still ends
	// within the measuring time.
	for i := 0; i == 0 || time.Now().Add(time.Duration(median(took)*float64(time.Second))).Before(deadline); i++ {
		mark := len(stepTimes)
		t0 := time.Now()
		t := runOnce(s.scenario(o.seed, i), &stepTimes)
		took = append(took, time.Since(t0).Seconds())
		all = append(all, t)
		if gate(rep, t.res, s.messages) {
			passed = append(passed, t)
			stepsOf = append(stepsOf, len(stepTimes))
		} else {
			stepTimes = stepTimes[:mark]
		}
	}
	// A failing repetition is never reported as a valid timing; only when
	// every one failed do its numbers stand, under correct=false.
	if len(passed) > 0 {
		all = passed
	}
	var runs, peaks, stolen []float64
	var cpu time.Duration
	delivered := 0
	for _, t := range all {
		setups = append(setups, t.setup)
		runs = append(runs, t.run.Seconds())
		peaks = append(peaks, t.peakMB)
		stolen = append(stolen, t.stolen)
		cpu += t.cpu
		delivered += t.res.DeliveredValid
	}
	// Wall-clock figures leave out the repetitions during which the
	// hypervisor stole CPU, as the live workloads leave out such windows.
	runS, used := quietMedian(runs, stolen)
	pooled := stepTimes
	if used < len(runs) && len(passed) > 0 {
		pooled = nil
		for _, i := range quiet(stolen) {
			start := 0
			if i > 0 {
				start = stepsOf[i-1]
			}
			pooled = append(pooled, stepTimes[start:stepsOf[i]]...)
		}
	}
	rep.values["setup_s"] = median(seconds(setups))
	rep.values["run_s"] = runS
	rep.values["throughput_msg_s"] = float64(s.messages) / runS
	// The engine's unit of progress is the step: its latency is the wall
	// time of one iteration of sim.Run's loop, over every step of the
	// repetitions run_s uses.
	rep.values["latency_p50_ms"] = quantile(pooled, 0.50) / 1e6
	rep.values["latency_p99_ms"] = quantile(pooled, 0.99) / 1e6
	rep.values["cpu_us_per_msg"] = cpu.Seconds() * 1e6 / float64(max(delivered, 1))
	// Peak resident memory of one repetition (VmHWM is reset before each),
	// the median over repetitions.
	rep.values["peak_rss_mb"] = median(peaks)
	rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	r := all[0].res
	logf("%s: run_s of %d repetitions %.3f (%d used), peak MiB %.1f; steps=%d rounds=%d guard_evals=%d moves=%v",
		s.name, len(all), runs, used, peaks, r.Steps, r.Rounds, r.Stats.GuardEvals, r.MovesByRule)
	return rep, nil
}

// traced runs the scenario once through sim.Run as the reference, then
// once through the same public calls sim.Run makes, with a span around
// each and the daemon and every rule action wrapped. The traced assembly
// must reproduce the reference exactly — steps, rounds, guard
// evaluations, moves per rule and deliveries — which proves it executed
// the same schedule.
func (s simSpec) traced(o runOpts) (*report, error) {
	rep := newReport()
	sc := s.scenario(o.seed, 0)
	var discard []time.Duration
	ref := runOnce(sc, &discard)
	gate(rep, ref.res, s.messages)

	r := ref.res
	moves := 0
	for _, c := range r.MovesByRule {
		moves += c
	}
	t := newTracer(4*(r.Steps+1) + moves + s.messages + 8)
	settle()
	got, run, alloc := tracedRun(sc, t)
	gate(rep, got, s.messages)
	if diff := sameSchedule(r, got); diff != "" {
		rep.fail("traced run diverged from sim.Run: %s", diff)
	}
	if d := t.dropped.Load(); d > 0 {
		rep.fail("span buffer dropped %d spans", d)
	}

	st := got.Stats
	coreMoves := 0
	for rule, c := range got.MovesByRule {
		if rule != "A" {
			coreMoves += c
		}
	}
	steps := float64(max(got.Steps, 1))
	v := rep.values
	v["statemodel.steps"] = float64(got.Steps)
	v["statemodel.guard_evals"] = float64(st.GuardEvals)
	v["statemodel.guard_evals_per_step"] = float64(st.GuardEvals) / steps
	v["statemodel.procs_skipped_ratio"] = ratio(st.ProcsSkipped, st.ProcsSkipped+st.ProcsEvaluated)
	v["statemodel.parallel_moves_ratio"] = ratio(st.ParallelMoves, int64(moves))
	v["statemodel.step_self_s"] = t.selfSeconds(spanStep)
	v["statemodel.alloc_bytes_per_step"] = float64(alloc) / steps
	v["daemon.select_s"] = t.seconds(spanSelect)
	v["core.config_s"] = t.seconds(spanConfig)
	v["core.action_s"] = t.seconds(spanCore)
	v["core.moves"] = float64(coreMoves)
	v["routing.action_s"] = t.seconds(spanRouting)
	v["routing.moves"] = float64(got.MovesByRule["A"])
	v["routing.stabilized_round"] = float64(got.RoutingRounds)
	v["workload.inject_s"] = t.seconds(spanInject)
	v["trace.overhead_s"] = (run - ref.run).Seconds()
	path, err := t.write(o.traceDir, fmt.Sprintf("%s-seed%d", s.name, o.seed))
	if err != nil {
		return rep, fmt.Errorf("write spans: %w", err)
	}
	logf("%s: traced run %.3fs vs untraced %.3fs; spans in %s", s.name, run.Seconds(), ref.run.Seconds(), path)
	return rep, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sameSchedule names the first deterministic count on which two runs of
// one scenario differ, or returns "".
func sameSchedule(want, got sim.Result) string {
	type count struct {
		name string
		w, g any
	}
	for _, c := range []count{
		{"steps", want.Steps, got.Steps},
		{"rounds", want.Rounds, got.Rounds},
		{"guard evals", want.Stats.GuardEvals, got.Stats.GuardEvals},
		{"moves by rule", want.MovesByRule, got.MovesByRule},
		{"generated", want.Generated, got.Generated},
		{"valid deliveries", want.DeliveredValid, got.DeliveredValid},
		{"invalid deliveries", want.InvalidDelivered, got.InvalidDelivered},
		{"routing stabilization round", want.RoutingRounds, got.RoutingRounds},
	} {
		if !reflect.DeepEqual(c.w, c.g) {
			return fmt.Sprintf("%s: sim.Run %v, traced %v", c.name, c.w, c.g)
		}
	}
	return ""
}

// tracedRun is sim.Run's loop over the same public calls, without the
// monitors, status and observability sinks the benchmark does not use.
// It returns the result, the wall time of the loop and the bytes it
// allocated.
func tracedRun(sc sim.Scenario, t *tracer) (sim.Result, time.Duration, uint64) {
	g := sc.Graph
	rng := rand.New(rand.NewSource(sc.Seed))
	a := t.now()
	var cfg []sm.State
	if sc.Corrupt == nil {
		cfg = core.CleanConfig(g)
	} else {
		cfg = core.RandomConfig(g, rng, *sc.Corrupt)
	}
	t.record(spanConfig, -1, 0, a, t.now())

	a = t.now()
	var step atomic.Int32 // slot of the step span in progress: the parent of its actions
	step.Store(-1)
	prog := timedProgram(core.FullProgramWithPolicy(g, sc.Policy), t, &step)
	d := &timedDaemon{inner: sim.NewDaemon(sc.Daemon, sc.Seed, g.N()), t: t, step: &step}
	var eopts []sm.EngineOption
	if sc.Shards > 1 {
		eopts = append(eopts, sm.WithShards(sc.Shards, sc.Seed))
	}
	e := sm.NewEngine(g, prog, d, cfg, eopts...)
	chk := checker.New(g)
	chk.RecordInitial(cfg)
	chk.Attach(e)
	in := workload.NewInjector(sc.Workload, func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })
	t.record(spanEngine, -1, 0, a, t.now())

	res := sim.Result{Name: sc.Name, RoutingRounds: -1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall := time.Now()
	for e.Steps() < 10_000_000 {
		id := uint64(e.Steps())
		a = t.now()
		in.Tick(e)
		t.record(spanInject, -1, id, a, t.now())
		if res.RoutingRounds < 0 && !sc.NoRA {
			a = t.now()
			ok := routingCorrect(g, e)
			t.record(spanRouteProbe, -1, id, a, t.now())
			if ok {
				res.RoutingRounds = e.Rounds()
			}
		}
		slot := t.reserve()
		step.Store(slot)
		a = t.now()
		stepped := e.Step()
		t.fill(slot, span{kind: spanStep, parent: -1, id: id, start: a, end: t.now()})
		if !stepped {
			if in.Done() {
				res.Terminal = true
				break
			}
			a = t.now()
			in.SkipWait(e)
			t.record(spanInject, -1, id, a, t.now())
		}
	}
	run := time.Since(wall)
	runtime.ReadMemStats(&m1)

	res.Steps = e.Steps()
	res.Rounds = e.Rounds()
	if !res.Terminal {
		res.Terminal = e.Terminal()
	}
	res.Generated = chk.GeneratedCount()
	res.DeliveredValid = chk.DeliveredValid()
	res.InvalidDelivered = chk.InvalidDeliveredTotal()
	res.Violations = chk.Violations()
	res.Lost = chk.UndeliveredValid()
	res.MovesByRule = make(map[string]int)
	for name, c := range e.MoveCounts() {
		res.MovesByRule[sim.BaseRule(name)] += c
	}
	res.Stats = e.Stats()
	return res, run, m1.TotalAlloc - m0.TotalAlloc
}

// routingCorrect is the probe sim.Run makes until every routing table is
// canonical.
func routingCorrect(g *graph.Graph, e *sm.Engine) bool {
	for p := 0; p < g.N(); p++ {
		if !routing.Correct(g, graph.ProcessID(p), core.RoutingOf(e.PeekStateOf(graph.ProcessID(p)))) {
			return false
		}
	}
	return true
}

// timedProgram rebuilds p with every rule's action timed and attributed
// to R1–R6 (core) or A (routing). Guards stay untimed: there are 10⁸ of
// them per run and timing them would measure the clock, not the engine.
func timedProgram(p sm.Program, t *tracer, step *atomic.Int32) sm.Program {
	rules := p.Rules()
	out := make([]sm.Rule, len(rules))
	for i, r := range rules {
		kind := spanCore
		if sim.BaseRule(r.Name) == "A" {
			kind = spanRouting
		}
		act := r.Action
		r.Action = func(v *sm.View) {
			a := t.now()
			act(v)
			t.record(kind, step.Load(), uint64(v.Step()), a, t.now())
		}
		out[i] = r
	}
	return sm.NewProgram(out...)
}

// timedDaemon times Select.
type timedDaemon struct {
	inner sm.Daemon
	t     *tracer
	step  *atomic.Int32
}

func (d *timedDaemon) Name() string { return d.inner.Name() }

func (d *timedDaemon) Select(step int, enabled []sm.Choice) []sm.Selection {
	a := d.t.now()
	sels := d.inner.Select(step, enabled)
	d.t.record(spanSelect, d.step.Load(), uint64(step), a, d.t.now())
	return sels
}
