package sim

import (
	"fmt"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/msgpass"
)

// X3Row is one configuration of experiment E-X3, which exercises the
// message-passing port (the paper's open problem, §4): the same
// exactly-once guarantee on real asynchronous channels, with corrupted
// initial state and lossy links.
type X3Row struct {
	Config      string
	Sent        int
	Delivered   int
	Duplicates  int
	WallTime    time.Duration
	ExactlyOnce bool
}

// x3Case is one regime of the message-passing experiment. The opts
// constructor keeps the legacy seed offsets (seed, seed+1, seed+2) so the
// regimes stay independent of which other cells run.
type x3Case struct {
	slug    string
	display string
	opts    func(seed int64) msgpass.Options
}

func x3Cases() []x3Case {
	return []x3Case{
		{"clean", "clean", func(s int64) msgpass.Options { return msgpass.Options{Seed: s} }},
		{"corrupt", "corrupted init", func(s int64) msgpass.Options { return msgpass.Options{Seed: s + 1, CorruptInit: true} }},
		{"corrupt-loss20", "corrupted + 20% loss", func(s int64) msgpass.Options {
			return msgpass.Options{Seed: s + 2, CorruptInit: true, LossRate: 0.2}
		}},
	}
}

// x3Cell runs one regime of E-X3 on a 3x3 grid. Wall time is inherently
// nondeterministic (real goroutines and channels); the deterministic part
// of the measure is the delivery accounting.
func x3Cell(o Options, idx int) (X3Row, CellMeasure) {
	c := x3Cases()[idx]
	g := graph.Grid(3, 3)
	nw := msgpass.New(g, c.opts(o.Seed))
	nw.Start()
	want := make(map[uint64]graph.ProcessID)
	for src := 0; src < g.N(); src++ {
		dst := graph.ProcessID((src + 4) % g.N())
		uid, _ := nw.Send(graph.ProcessID(src), fmt.Sprintf("x3-%s-%d", c.display, src), dst)
		want[uid] = dst
	}
	start := time.Now()
	// Wait for all valid deliveries (invalid planted junk also flows).
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if o.cancelled() {
			break
		}
		valid := 0
		for _, d := range nw.Deliveries() {
			if d.Msg.Valid {
				valid++
			}
		}
		if valid >= len(want) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	wall := time.Since(start)
	counts := make(map[uint64]int)
	for _, d := range nw.Deliveries() {
		if d.Msg.Valid {
			counts[d.Msg.UID]++
		}
	}
	nw.Stop()

	row := X3Row{Config: c.display, Sent: len(want), WallTime: wall.Round(time.Millisecond), ExactlyOnce: true}
	for uid := range want {
		if counts[uid] >= 1 {
			row.Delivered++
		}
		if counts[uid] > 1 {
			row.Duplicates += counts[uid] - 1
			row.ExactlyOnce = false
		}
	}
	if row.Delivered != row.Sent {
		row.ExactlyOnce = false
	}
	m := CellMeasure{
		Generated:      row.Sent,
		DeliveredValid: row.Delivered,
		Extra:          map[string]float64{"duplicates": float64(row.Duplicates)},
	}
	return row, m
}

// x3Table renders one E-X3 regime.
func x3Table(row X3Row) *metrics.Table {
	t := metrics.NewTable("E-X3: message-passing port (goroutines + channels)",
		"configuration", "sent", "delivered", "duplicates", "wall time", "exactly once")
	t.AddRow(row.Config, row.Sent, row.Delivered, row.Duplicates, row.WallTime.String(), row.ExactlyOnce)
	return t
}
