package sim

import (
	"fmt"

	"ssmfp/internal/metrics"
)

// CellMeasure collects the paper-facing quantities of one experiment cell
// in machine-readable form: step/round/guard-evaluation costs plus the
// delivery accounting behind Propositions 4-7. All fields are
// deterministic for a given (cell, seed) — wall-clock and allocation
// numbers live in the campaign report, not here.
type CellMeasure struct {
	Steps             int   `json:"steps,omitempty"`
	Rounds            int   `json:"rounds,omitempty"`
	GuardEvals        int64 `json:"guard_evals,omitempty"`
	Generated         int   `json:"generated,omitempty"`
	DeliveredValid    int   `json:"delivered_valid,omitempty"`
	DeliveredInvalid  int   `json:"delivered_invalid,omitempty"`
	MaxInvalidPerDest int   `json:"max_invalid_per_dest,omitempty"`
	// InvalidBound is the 2n reference of Proposition 4 (set by E-P4).
	InvalidBound int `json:"invalid_bound,omitempty"`
	// DelayRounds and MaxWaitingRounds are the Proposition 6 quantities
	// (set by E-P6); MaxLatencyRounds is the Proposition 5 quantity.
	DelayRounds      int `json:"delay_rounds,omitempty"`
	MaxWaitingRounds int `json:"max_waiting_rounds,omitempty"`
	MaxLatencyRounds int `json:"max_latency_rounds,omitempty"`
	// Extra carries experiment-specific scalars (amortized cost, overhead
	// ratio, caterpillar counts, ...). JSON maps marshal with sorted keys,
	// so reports containing Extra stay byte-comparable.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// measureOf lifts a scenario Result into the cell measurement schema.
func measureOf(r Result) CellMeasure {
	return CellMeasure{
		Steps:             r.Steps,
		Rounds:            r.Rounds,
		GuardEvals:        r.Stats.GuardEvals,
		Generated:         r.Generated,
		DeliveredValid:    r.DeliveredValid,
		DeliveredInvalid:  r.InvalidDelivered,
		MaxInvalidPerDest: r.MaxInvalidPerDst,
	}
}

// CellSpec names one cell of the experiment grid: an experiment ID
// (f1..ep) and, for sweep experiments, the canonical case variant. Heavy
// marks the cells a -quick campaign skips.
type CellSpec struct {
	Exp     string `json:"exp"`
	Variant string `json:"variant,omitempty"`
	Heavy   bool   `json:"heavy,omitempty"`
}

// Key renders the spec as "exp" or "exp/variant" — the identifier used in
// campaign reports, -filter expressions, and obs cell events.
func (s CellSpec) Key() string {
	if s.Variant == "" {
		return s.Exp
	}
	return s.Exp + "/" + s.Variant
}

// heavyCells marks the grid's expensive cells (hundreds of milliseconds
// and up at the default seed): they dominate campaign wall time, so
// -quick skips them and the scheduler starts them first.
var heavyCells = map[string]bool{
	"f4":            true, // 500k-step census with per-step classification
	"p4/n8":         true,
	"p4/n10":        true,
	"p5/line-9":     true,
	"p5/star-8":     true,
	"p7/d8":         true,
	"mc":            true, // exhaustive state-space exploration
	"ep/grid-20x20": true, // naive baseline is Θ(n²·rules) per step
	"ep/random-100": true,
	"ep/random-400": true,
}

// CellGrid enumerates the full experiment grid in canonical order (the
// order ssmfp-bench prints, f1 → ep). The variants are derived from the
// same canonical case lists the cells index, so the grid cannot drift
// from the cells.
func CellGrid() []CellSpec {
	var cells []CellSpec
	add := func(exp, variant string) {
		s := CellSpec{Exp: exp, Variant: variant}
		s.Heavy = heavyCells[s.Key()]
		cells = append(cells, s)
	}
	add("f1", "")
	add("f2", "")
	add("f3", "")
	add("f4", "")
	for _, n := range P4Sizes {
		add("p4", fmt.Sprintf("n%d", n))
	}
	for _, c := range p5Cases() {
		add("p5", c.name)
	}
	for _, c := range p6Cases() {
		add("p6", c.name)
	}
	for _, d := range P7Diameters {
		add("p7", fmt.Sprintf("d%d", d))
	}
	add("x1", "")
	for _, c := range x2Cases() {
		add("x2", c.name)
	}
	for _, c := range x3Cases() {
		add("x3", c.slug)
	}
	for _, c := range x4Cases() {
		add("x4", c.slug)
	}
	for _, p := range x5Policies() {
		add("x5", p.String())
	}
	for _, w := range X6Waves {
		add("x6", fmt.Sprintf("w%d", w))
	}
	add("ra", "")
	add("mc", "")
	for _, c := range epCases() {
		add("ep", c.slug)
	}
	return cells
}

// CellResult is one cell's outcome: the acceptance verdict, the table
// fragment (or Text for f3's rendered trace), and the measurements.
type CellResult struct {
	Spec    CellSpec
	OK      bool
	Table   *metrics.Table // nil for f3 (Text carries the trace)
	Text    string
	Measure CellMeasure
}

// RunCell executes one cell of the grid — the single entry point of every
// seeded experiment. Cells are independent: a cell's numbers do not depend
// on which other cells run, because sweep cells tie per-case seeds to
// canonical case indices. A context already cancelled in o.Ctx returns its
// error without running the cell.
func RunCell(spec CellSpec, o Options) (CellResult, error) {
	res := CellResult{Spec: spec}
	idx, err := variantIndex(spec)
	if err != nil {
		return res, err
	}
	if o.cancelled() {
		return res, o.Ctx.Err()
	}
	switch spec.Exp {
	case "f1":
		r := ExperimentF1()
		res.OK = r.Acyclic && r.AllTrees && r.Components == 5
		res.Table = r.Table
		res.Measure = CellMeasure{Extra: map[string]float64{"components": float64(r.Components)}}
	case "f2":
		r := ExperimentF2()
		res.OK = r.CleanAcyclic && r.CycleLen > 0
		res.Table = r.Table
		res.Measure = CellMeasure{Extra: map[string]float64{"cycle_len": float64(r.CycleLen)}}
	case "f3":
		r := ExperimentF3()
		res.OK = r.OK
		res.Text = fmt.Sprintf("== E-F3: Figure 3 execution replay ==\n%s\ndeliveries=%d (valid %d, invalid %d), m's color=%d, initial cycle=%v\n",
			r.Trace, r.Deliveries, r.ValidDelivered, r.InvalidDelivered, r.HelloColor, r.CycleInitially)
		res.Measure = CellMeasure{
			DeliveredValid:   r.ValidDelivered,
			DeliveredInvalid: r.InvalidDelivered,
			Extra:            map[string]float64{"hello_color": float64(r.HelloColor)},
		}
	case "f4":
		c, m := f4Cell(o)
		res.OK, res.Table, res.Measure = c.AllTypesHit && c.Consistent, f4Table(c), m
	case "p4":
		row, m := p4Cell(o, P4Sizes[idx])
		res.OK, res.Table, res.Measure = row.MaxPerDest <= row.Bound, p4Table(row), m
	case "p5":
		row, within, m := p5Cell(o, idx)
		res.OK, res.Table, res.Measure = within, p5Table(row), m
	case "p6":
		row, m := p6Cell(o, idx)
		res.OK, res.Table, res.Measure = true, p6Table(row), m
	case "p7":
		row, within, m := p7Cell(o, P7Diameters[idx])
		res.OK, res.Table, res.Measure = within, p7Table(row), m
	case "x1":
		rows, ok, m := x1Cell(o)
		res.OK, res.Table, res.Measure = ok, x1Table(rows), m
	case "x2":
		row, m := x2Cell(o, idx)
		res.OK, res.Table, res.Measure = row.Overhead < 8, x2Table(row), m
	case "x3":
		row, m := x3Cell(o, idx)
		res.OK, res.Table, res.Measure = row.ExactlyOnce, x3Table(row), m
	case "x4":
		row, m := x4Cell(o, idx)
		res.OK, res.Table, res.Measure = row.Drained && row.ExactlyOnce, x4Table(row), m
	case "x5":
		row, m := x5Cell(o, x5Policies()[idx])
		res.OK, res.Table, res.Measure = row.AllDelivered, x5Table(row), m
	case "x6":
		row, m := x6Cell(o, X6Waves[idx])
		res.OK, res.Table, res.Measure = row.PostFaultOK && row.Violations == 0, x6Table(row), m
	case "ra":
		rows, tracks, m := raCell(o)
		res.OK, res.Table, res.Measure = tracks, raTable(rows), m
	case "mc":
		r := ExperimentMC()
		res.OK = r.AllOK
		res.Table = r.Table
		states := 0
		for _, row := range r.Rows {
			states += row.States
		}
		res.Measure = CellMeasure{Extra: map[string]float64{
			"states_total":      float64(states + r.LiteralR5States),
			"literal_r5_states": float64(r.LiteralR5States),
		}}
	case "ep":
		row, m := epCell(o, idx)
		res.OK = row.Match && (spec.Variant != "grid-20x20" || row.Ratio >= 3)
		res.Table, res.Measure = epTable(row), m
	}
	return res, nil
}

// variantIndex resolves a spec to its position among its experiment's
// cells in the grid — the canonical case index the sweep cells take (0
// for single-cell experiments) — rejecting specs outside the grid.
func variantIndex(spec CellSpec) (int, error) {
	i := 0
	for _, s := range CellGrid() {
		if s.Exp != spec.Exp {
			continue
		}
		if s.Variant == spec.Variant {
			return i, nil
		}
		i++
	}
	return 0, fmt.Errorf("sim: unknown cell %q", spec.Key())
}
