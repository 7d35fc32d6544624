package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanConfig     spanKind = iota // core.CleanConfig / core.RandomConfig
	spanEngine                     // statemodel.NewEngine (+ program, daemon, checker, injector)
	spanStep                       // Engine.Step
	spanSelect                     // Daemon.Select, child of a step
	spanCore                       // an R1–R6 action, child of a step
	spanRouting                    // an A action, child of a step
	spanInject                     // Injector.Tick / SkipWait
	spanRouteProbe                 // the routing-correctness probe sim.Run makes between steps
	spanSend                       // load.Network.Send
	spanLinkSend                   // transport.Link.Send
	spanDeliver                    // load.Hook.OnDeliver
	spanHoldStamp                  // load.AddHold called by the nodes
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.config", "statemodel.new_engine", "statemodel.step", "daemon.select",
	"core.action", "routing.action", "workload.inject", "sim.route_probe",
	"msgpass.send", "transport.link_send", "load.on_deliver", "load.hold_stamp",
}

// span is one timed call: its kind, the span that caused it (-1 for a
// root), the identifier shared by the spans of one request (step index on
// the engine, message UID on the live path), and its interval in
// nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	parent     int32
	id         uint64
	start, end int64
}

// tracer keeps spans in memory, in a buffer preallocated so that
// recording never allocates or locks (actions and link sends record from
// many goroutines at once). When the buffer is full further spans are
// dropped, but every span still feeds the per-kind totals.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	count   [numSpanKinds]atomic.Int64
	total   [numSpanKinds]atomic.Int64 // ns
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// now is a monotonic timestamp relative to the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve claims a slot for a span whose children are recorded before it
// ends; it returns -1 when the buffer is full.
func (t *tracer) reserve() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// fill completes a reserved slot (a no-op for -1) and feeds the totals.
func (t *tracer) fill(slot int32, s span) {
	t.count[s.kind].Add(1)
	t.total[s.kind].Add(s.end - s.start)
	if slot >= 0 {
		t.spans[slot] = s
	}
}

// record adds a finished span.
func (t *tracer) record(kind spanKind, parent int32, id uint64, start, end int64) {
	t.fill(t.reserve(), span{kind: kind, parent: parent, id: id, start: start, end: end})
}

// seconds is the summed duration of every span of a kind.
func (t *tracer) seconds(k spanKind) float64 { return float64(t.total[k].Load()) / 1e9 }

// meanNS is the mean duration of a kind's spans.
func (t *tracer) meanNS(k spanKind) float64 {
	n := t.count[k].Load()
	if n == 0 {
		return 0
	}
	return float64(t.total[k].Load()) / float64(n)
}

// recorded returns the spans kept in the buffer.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfSeconds sums, over every span of kind k, its duration minus the
// part of its interval its children cover. Children may overlap (the
// sharded engine runs actions on several workers), so coverage is the
// union of their intervals. It needs every span: callers size the buffer
// so that none is dropped and check dropped before trusting the result.
func (t *tracer) selfSeconds(k spanKind) float64 {
	spans := t.recorded()
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 && spans[s.parent].kind == k {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var self int64
	for i, s := range spans {
		if s.kind != k {
			continue
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, reach := int64(0), s.start
		for _, c := range kids {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self += s.end - s.start - covered
	}
	return float64(self) / 1e9
}

// write dumps the spans as CSV (kind,parent,id,start_ns,end_ns) under
// dir, with a header line naming the kinds and the totals.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# dropped=%d\n", t.dropped.Load())
	for k := spanKind(0); k < numSpanKinds; k++ {
		fmt.Fprintf(w, "# kind %d %s count=%d total_ns=%d\n", k, spanNames[k], t.count[k].Load(), t.total[k].Load())
	}
	fmt.Fprintln(w, "kind,parent,id,start_ns,end_ns")
	for _, s := range t.recorded() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.parent, s.id, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
