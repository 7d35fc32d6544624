// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, checks the program's outputs, and prints as
// its last line one JSON object: the correctness verdict, the number of
// messages attempted and failed, and every metric by name with its unit.
//
//	bash perfbench/run.sh --workload sim-sync-grid400 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, run_s,
// throughput, latency quantiles, CPU per message, peak RSS, ok_ratio).
// With --trace 1 the workload runs once untraced and once through
// wrappers that time every call into a layer's public functions, and the
// metrics are the per-layer ladder (README.md maps each one to the
// end-to-end metric it should move). The program itself is never
// modified: every layer is measured from outside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run prints: the numbers a user of the
// engine or of a live deployment sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"throughput_msg_s", "msg/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_msg", "us"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// Layer families: a traced run measures the layers its workload runs and
// reports the others as 0 (the layer did no work).
const (
	famSim = iota
	famLive
	famBoth
)

type layerDef struct {
	metricDef
	family int
}

// perLayer is what a traced run prints.
var perLayer = []layerDef{
	{metricDef{"statemodel.steps", "count"}, famSim},
	{metricDef{"statemodel.guard_evals", "count"}, famSim},
	{metricDef{"statemodel.guard_evals_per_step", "count"}, famSim},
	{metricDef{"statemodel.procs_skipped_ratio", "ratio"}, famSim},
	{metricDef{"statemodel.parallel_moves_ratio", "ratio"}, famSim},
	{metricDef{"statemodel.step_self_s", "s"}, famSim},
	{metricDef{"statemodel.alloc_bytes_per_step", "B"}, famSim},
	{metricDef{"daemon.select_s", "s"}, famSim},
	{metricDef{"core.config_s", "s"}, famSim},
	{metricDef{"core.action_s", "s"}, famSim},
	{metricDef{"core.moves", "count"}, famSim},
	{metricDef{"routing.action_s", "s"}, famSim},
	{metricDef{"routing.moves", "count"}, famSim},
	{metricDef{"routing.stabilized_round", "count"}, famSim},
	{metricDef{"workload.inject_s", "s"}, famSim},
	{metricDef{"msgpass.send_ns", "ns"}, famLive},
	{metricDef{"msgpass.offers_per_msg", "count"}, famLive},
	{metricDef{"msgpass.retransmits_per_msg", "count"}, famLive},
	{metricDef{"msgpass.cancels_per_msg", "count"}, famLive},
	{metricDef{"msgpass.park_events_per_msg", "count"}, famLive},
	{metricDef{"msgpass.hold_ms_mean", "ms"}, famLive},
	{metricDef{"msgpass.deliver_ms_mean", "ms"}, famLive},
	{metricDef{"msgpass.idle_cpu_pct", "%"}, famLive},
	{metricDef{"transport.frames_per_msg", "count"}, famLive},
	{metricDef{"transport.bytes_per_msg", "B"}, famLive},
	{metricDef{"transport.link_send_ns", "ns"}, famLive},
	{metricDef{"transport.dropped_full", "count"}, famLive},
	{metricDef{"transport.wire_ms_mean", "ms"}, famLive},
	{metricDef{"transport.codec_encode_ns", "ns"}, famLive},
	{metricDef{"transport.codec_decode_ns", "ns"}, famLive},
	{metricDef{"load.send_lag_p99_ms", "ms"}, famLive},
	{metricDef{"load.collector_ns_per_msg", "ns"}, famLive},
	{metricDef{"load.tag_codec_ns", "ns"}, famLive},
	{metricDef{"load.hold_stamp_ns", "ns"}, famLive},
	{metricDef{"trace.overhead_s", "s"}, famBoth},
}

// runOpts carries the command line to a workload.
type runOpts struct {
	seed     int64
	seconds  float64
	traceDir string // where a traced run writes its spans
}

// report is what a workload run hands back: the verdict, the message
// accounting, and metric values by name.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string // why the run failed its correctness gate
}

func newReport() *report { return &report{correct: true, values: make(map[string]float64)} }

// fail records a correctness violation.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadDef is one named workload: an untraced and a traced runner.
type workloadDef struct {
	name   string
	family int
	run    func(runOpts) (*report, error)
	trace  func(runOpts) (*report, error)
}

var workloads = []workloadDef{
	{gridSync.name, famSim, gridSync.run, gridSync.traced},
	{corruptCentral.name, famSim, corruptCentral.run, corruptCentral.traced},
	{chanOpen.name, famLive, chanOpen.run, chanOpen.traced},
	{tcpClosed.name, famLive, tcpClosed.run, tcpClosed.traced},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory a traced run writes its spans to")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <s≥1> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	traced := *traceFlag == 1

	fp := fingerprint()
	header, _ := json.Marshal(map[string]any{"workload": wl.name, "seed": *seed, "seconds": *seconds, "trace": traced, "host": fp})
	fmt.Println(string(header))

	opts := runOpts{seed: *seed, seconds: float64(*seconds), traceDir: *traceDir}
	runner := wl.run
	if traced {
		runner = wl.trace
	}
	steal0, total0 := cpuTicks()
	rep, err := runner(opts)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Stolen time slows every wall-clock figure without any change in
		// the program; a run that reports it can be read accordingly.
		logf("host: %.1f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness: %s\n", wl.name, n)
	}

	out := jsonResult{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]jsonMetric)}
	put := func(d metricDef, v float64, ok bool) {
		if !ok {
			panic(fmt.Sprintf("perfbench: workload %s did not measure %s", wl.name, d.name))
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if traced {
		for _, d := range perLayer {
			v, ok := rep.values[d.name]
			if d.family != famBoth && d.family != wl.family {
				v, ok = 0, true
			}
			put(d.metricDef, v, ok)
		}
	} else {
		for _, d := range endToEnd {
			v, ok := rep.values[d.name]
			put(d, v, ok)
		}
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no messages\n", wl.name)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
