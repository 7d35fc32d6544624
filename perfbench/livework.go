package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// liveSpec is a workload on the live message-passing port, driven
// in-process by load.Run with GOMAXPROCS at its default.
type liveSpec struct {
	name        string
	graph       func() *graph.Graph
	tcp         bool    // loopback TCP, one transport.TCP per node; else the channel transport
	driver      string  // load.DriverOpen or load.DriverClosed
	rate        float64 // open loop: offered msg/s (seeded Poisson)
	outstanding int     // closed loop: window per source
}

// chanOpen: independent senders load the node handler's R1 queue, parking
// and hop handshake at a rate well under the 32k–64k msg/s knee. No codec
// or socket runs, so wire-level changes should not move it.
var chanOpen = liveSpec{
	name: "live-chan-open", graph: func() *graph.Graph { return graph.Grid(4, 4) },
	driver: load.DriverOpen, rate: 16000,
}

// tcpClosed: callers that wait for each reply before the next call;
// every hop crosses the frame codec and a socket. A ring, not a grid: a
// 4×4 grid over TCP is 48 connections on two cores and measured the
// scheduler, not the program. One call outstanding per source, not four:
// with four the ring saturates both cores and switches between batching
// and non-batching phases every few seconds (17k–55k msg/s within one
// run), so CPU per message moved by 25% between runs of the same seed.
var tcpClosed = liveSpec{
	name: "live-tcp-closed", graph: func() *graph.Graph { return graph.Ring(6) },
	tcp: true, driver: load.DriverClosed, outstanding: 1,
}

const (
	setupReps     = 25                     // set-ups per run; setup_s is their median
	warmupMsgs    = 256                    // closed-loop warm-up messages, part of set-up
	closedChunk   = 8192                   // closed-loop messages per load.Run
	idleWindow    = 500 * time.Millisecond // idle probe before each measured phase
	latencyWindow = 250 * time.Millisecond // latency quantiles and CPU per message are medians over windows this long
	stealLimitPct = 5.0                    // latency windows with more host CPU stolen are left out
	drainTimeout  = 20 * time.Second
	chanDepth     = 64 // msgpass's default ChannelDepth, for the explicit channel transport a traced run wraps
	liveSpanCap   = 1 << 18
	captureCap    = 1 << 15 // frames and payload tags kept for the codec replay
	captureStride = 4       // keep every 4th frame and tag, so the sample spans the phase
)

// deployment is one running network with the benchmark's delivery hook.
type deployment struct {
	g     *graph.Graph
	nw    *msgpass.Network
	tr    transport.Transport // transport the benchmark owns; nil when the network owns it
	hook  load.Hook
	lat   latencies
	probe *liveProbe // nil on untraced deployments
}

// deploy builds and starts the network. With a probe, the transport, the
// delivery hook and the hold stamp are wrapped; the program is the same.
func (s liveSpec) deploy(seed int64, probe *liveProbe) (*deployment, error) {
	d := &deployment{g: s.graph(), probe: probe}
	if s.tcp {
		m, err := loopbackTCP(d.g, seed)
		if err != nil {
			return nil, err
		}
		d.tr = m
	} else if probe != nil {
		d.tr = transport.NewChan(d.g, chanDepth)
	}
	opts := msgpass.Options{
		Seed:      seed,
		OnDeliver: d.onDeliver,
		// As ssmfp-load sets them: nodes stamp R1-queue and park waits
		// into the payload tag, and the collector is the only consumer of
		// deliveries.
		HoldStamp:         load.AddHold,
		DiscardDeliveries: true,
	}
	if d.tr != nil {
		opts.Transport = d.tr
	}
	if probe != nil {
		opts.Transport = &timedTransport{Transport: d.tr, p: probe, links: make(map[[2]graph.ProcessID]*timedLink)}
		opts.HoldStamp = probe.holdStamp
	}
	d.nw = msgpass.New(d.g, opts)
	d.nw.Start()
	return d, nil
}

func (d *deployment) close() {
	d.nw.Stop()
	if d.tr != nil {
		d.tr.Close()
	}
}

// onDeliver chains the load collector's hook with the exact latency
// recorder (and, traced, a span around the collector).
func (d *deployment) onDeliver(dl msgpass.Delivery) {
	if t := d.probe.tracer(); t != nil {
		a := t.now()
		d.hook.OnDeliver(dl)
		t.record(spanDeliver, -1, dl.Msg.UID, a, t.now())
	} else {
		d.hook.OnDeliver(dl)
	}
	d.lat.observe(dl)
}

// loopbackTCP binds one 127.0.0.1:0 listener per node first, so every
// peer address is known before any node transport starts, and composes
// the node transports with transport.NewMulti.
func loopbackTCP(g *graph.Graph, seed int64) (*transport.Multi, error) {
	listeners := make(map[graph.ProcessID]net.Listener, g.N())
	peers := make(map[graph.ProcessID]string, g.N())
	per := make(map[graph.ProcessID]transport.Transport, g.N())
	fail := func(err error) (*transport.Multi, error) {
		for p, ln := range listeners {
			if tr, ok := per[p]; ok {
				tr.Close()
			} else {
				ln.Close()
			}
		}
		return nil, err
	}
	for _, p := range g.Processors() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("bind node %d: %w", p, err))
		}
		listeners[p] = ln
		peers[p] = ln.Addr().String()
	}
	for _, p := range g.Processors() {
		tr, err := transport.NewTCP(g, transport.TCPOptions{Local: p, Peers: peers, Listener: listeners[p], Seed: seed + int64(p)})
		if err != nil {
			return fail(fmt.Errorf("tcp node %d: %w", p, err))
		}
		per[p] = tr
	}
	return transport.NewMulti(per), nil
}

// latencies records every measured message's end-to-end latency, indexed
// by the plan sequence number its tag carries, from the tag's instant
// (the due instant in open loop, the Send call in closed loop) to the
// delivery. The first delivery of a sequence number wins; duplicates are
// the collector's to flag.
type latencies struct {
	cur atomic.Pointer[latencyStep]
}

type latencyStep struct {
	ns, at []atomic.Int64 // latency and tag instant, by sequence number
}

// sample is one message's latency and the instant its tag carries.
type sample struct {
	at int64 // Unix ns
	ms float64
}

func (l *latencies) observe(dl msgpass.Delivery) {
	r := l.cur.Load()
	if r == nil {
		return
	}
	seq, _, _, sched, ok := load.ParseTag(dl.Msg.Payload)
	if !ok || seq >= len(r.ns) {
		return
	}
	if r.ns[seq].CompareAndSwap(0, max(dl.Time.UnixNano()-sched, 1)) {
		r.at[seq].Store(sched)
	}
}

// arm starts recording a load step of n messages; collect stops it and
// appends what was recorded to dst.
func (l *latencies) arm(n int) {
	l.cur.Store(&latencyStep{ns: make([]atomic.Int64, n), at: make([]atomic.Int64, n)})
}

func (l *latencies) collect(dst []sample) []sample {
	r := l.cur.Swap(nil)
	for i := range r.ns {
		if v := r.ns[i].Load(); v > 0 {
			dst = append(dst, sample{at: r.at[i].Load(), ms: float64(v) / 1e6})
		}
	}
	return dst
}

// windowed is the median, over the phase's latencyWindow-long windows
// (by tag instant), of each window's exact q-quantile. A window is an
// independent look at the steady state, so a stall moves the window it
// falls in, not the reported figure. Windows with fewer than minWindow
// samples — the phase's ragged edges — are left out, and so are windows
// during which the hypervisor stole CPU (quietMedian; the steal is read
// from the host samples over the window and one window either side,
// where the backlog of a stall lingers). It returns the figure, and how
// many windows it used of how many were full.
func windowed(samples []sample, q float64, host []hostSample) (v float64, used, full int) {
	const minWindow = 1000
	if len(samples) == 0 {
		return 0, 0, 0
	}
	t0 := samples[0].at
	for _, s := range samples {
		t0 = min(t0, s.at)
	}
	w := int64(latencyWindow)
	byWindow := make(map[int64][]float64)
	for _, s := range samples {
		k := (s.at - t0) / w
		byWindow[k] = append(byWindow[k], s.ms)
	}
	var xs, stolen []float64
	for k, ms := range byWindow {
		if len(ms) < minWindow {
			continue
		}
		xs = append(xs, quantile(ms, q))
		start := t0 + k*w
		stolen = append(stolen, stolenOrUnknown(host, start-w, start+2*w))
	}
	if len(xs) > 0 {
		v, used = quietMedian(xs, stolen)
		return v, used, len(xs)
	}
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.ms
	}
	return quantile(all, q), 0, 0
}

// setUp is one set-up from nothing to ready: transports and listeners,
// Network.Start, and a warm-up drain. The warm-up passes the same
// exactly-once gate as measured traffic; its messages count as attempted.
func (s liveSpec) setUp(seed int64, probe *liveProbe, rep *report) (*deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := s.deploy(seed, probe)
	if err != nil {
		return nil, 0, err
	}
	step, err := load.Run(d.nw, d.g, &d.hook, load.Config{
		Driver: load.DriverClosed, Outstanding: 4, Messages: warmupMsgs,
		Seed: seed ^ 0x5741524d, DrainTimeout: drainTimeout,
	})
	took := time.Since(t0)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	rep.attempted += warmupMsgs
	if !step.ExactlyOnce || step.Delivered != warmupMsgs {
		rep.failed += warmupMsgs
		rep.fail("warm-up delivered %d of %d, exactly-once %v %v", step.Delivered, warmupMsgs, step.ExactlyOnce, step.Violations)
	}
	return d, took, nil
}

// idleCPUPct samples the process's CPU over a fixed idle window: what
// the deployment's timers cost with no traffic, in percent of one core.
func idleCPUPct() float64 {
	c0, w0 := cpuTime(), time.Now()
	time.Sleep(idleWindow)
	return 100 * float64(cpuTime()-c0) / float64(time.Since(w0))
}

// phase is the outcome of one measured phase.
type phase struct {
	chunks    int
	attempted int
	failed    int
	delivered int
	samples   []sample // exact per-message latencies, off the heap
	free      func()   // unmaps samples
	span      time.Duration
	cpu       time.Duration
	host      []hostSample // sampled every latencyWindow beside the phase
	steps     []load.StepReport
	notes     []string
}

// measure runs the measured phase through nw: one open-loop load step of
// rate × budget messages, or closed-loop steps of closedChunk messages
// until budget is spent. chunks > 0 instead fixes the number of steps
// (a traced phase replays the untraced phase's exact plan).
func (s liveSpec) measure(d *deployment, nw load.Network, seed int64, budget time.Duration, chunks int) (phase, error) {
	var ph phase
	n := closedChunk
	if s.driver == load.DriverOpen {
		n = int(s.rate * budget.Seconds())
		if chunks == 0 {
			chunks = 1
		}
	}
	// Room for far more samples than a run can record; pages become
	// resident as they fill, so memory grows with the deliveries and not
	// in the allocator's growth steps.
	var err error
	if ph.samples, ph.free, err = offHeap[sample](1<<23, false); err != nil {
		return ph, err
	}
	settle()
	stop := sampleHost(d.nw, &ph.host)
	c0, w0 := cpuTime(), time.Now()
	done := func(i int) bool {
		if chunks > 0 {
			return i >= chunks
		}
		return i > 0 && time.Since(w0) >= budget
	}
	for i := 0; !done(i); i++ {
		d.lat.arm(n)
		step, err := load.Run(nw, d.g, &d.hook, load.Config{
			Driver: s.driver, Rate: s.rate, Outstanding: s.outstanding,
			Messages: n, Seed: seed*1000 + int64(i), DrainTimeout: drainTimeout,
		})
		mark := len(ph.samples)
		ph.samples = d.lat.collect(ph.samples)
		got := len(ph.samples) - mark
		if err != nil {
			return ph, err
		}
		ph.chunks++
		ph.attempted += n
		ph.steps = append(ph.steps, step)
		// The exactly-once verdict with every message drained; a failing
		// step counts all of its messages as failed.
		if !step.ExactlyOnce || step.Sent != n || step.Delivered != n || got != n {
			ph.failed += n
			ph.notes = append(ph.notes, fmt.Sprintf("step %d: sent %d delivered %d of %d, %d latencies, exactly-once %v %v",
				i, step.Sent, step.Delivered, n, got, step.ExactlyOnce, step.Violations))
			ph.samples = ph.samples[:mark]
			continue
		}
		ph.delivered += step.Delivered
	}
	ph.span = time.Since(w0)
	ph.cpu = cpuTime() - c0
	stop()
	return ph, nil
}

// hostSample is one reading taken beside a measured phase.
type hostSample struct {
	at           int64 // Unix ns
	cpu          time.Duration
	delivered    int
	steal, total int64 // host CPU ticks
}

// sampleHost reads the process CPU time, the network's delivery count and
// the host's CPU ticks now, every latencyWindow, and when the returned
// stop is called.
func sampleHost(nw *msgpass.Network, out *[]hostSample) (stop func()) {
	read := func() hostSample {
		steal, total := cpuTicks()
		return hostSample{at: time.Now().UnixNano(), cpu: cpuTime(), delivered: nw.Delivered(), steal: steal, total: total}
	}
	*out = append(*out, read())
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(latencyWindow)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				*out = append(*out, read())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		*out = append(*out, read())
	}
}

// stolenPct is the share of host CPU time the hypervisor stole between
// the last sample at or before from and the first at or after to; ok is
// false when the samples do not cover the interval.
func stolenPct(host []hostSample, from, to int64) (pct float64, ok bool) {
	i, j := -1, -1
	for k, h := range host {
		if h.at <= from {
			i = k
		}
		if h.at >= to && j < 0 {
			j = k
		}
	}
	if i < 0 || j < 0 || host[j].total <= host[i].total {
		return 0, false
	}
	return 100 * float64(host[j].steal-host[i].steal) / float64(host[j].total-host[i].total), true
}

// stolenOrUnknown is stolenPct, or -1 when the samples do not cover the
// interval.
func stolenOrUnknown(host []hostSample, from, to int64) float64 {
	if pct, ok := stolenPct(host, from, to); ok {
		return pct
	}
	return -1
}

// perWindow reads, for each interval between two consecutive host
// samples that delivered anything, the delivery rate in msg/s, the
// process CPU per delivery in µs, and the share of host CPU stolen over
// the interval and one window either side.
func perWindow(host []hostSample) (rate, cpu, stolen []float64) {
	w := int64(latencyWindow)
	for i := 1; i < len(host); i++ {
		n := host[i].delivered - host[i-1].delivered
		dt := host[i].at - host[i-1].at
		if n <= 0 || dt <= 0 {
			continue
		}
		rate = append(rate, float64(n)*1e9/float64(dt))
		cpu = append(cpu, float64(host[i].cpu-host[i-1].cpu)/1e3/float64(n))
		stolen = append(stolen, stolenOrUnknown(host, host[i-1].at-w, host[i].at+w))
	}
	return rate, cpu, stolen
}

// release unmaps the phase's samples.
func (ph phase) release() {
	if ph.free != nil {
		ph.free()
	}
}

func (ph phase) gate(rep *report) {
	rep.attempted += ph.attempted
	rep.failed += ph.failed
	for _, n := range ph.notes {
		rep.fail("%s", n)
	}
}

func (s liveSpec) run(o runOpts) (*report, error) {
	rep := newReport()
	var setups []time.Duration
	var d *deployment
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		d, took, err = s.setUp(o.seed, nil, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer d.close()
	// The traced run reports this probe; here it keeps both modes' measured
	// phases starting from the same idle deployment.
	idle := idleCPUPct()
	ph, err := s.measure(d, d.nw, o.seed, time.Duration(o.seconds*float64(time.Second)), 0)
	defer ph.release()
	if err != nil {
		return nil, err
	}
	// Read before the figures below are computed, which allocate in
	// proportion to the samples.
	rep.values["peak_rss_mb"] = peakRSSMB()
	ph.gate(rep)
	delivered := float64(max(ph.delivered, 1))
	rep.values["setup_s"] = median(seconds(setups))
	rep.values["run_s"] = ph.span.Seconds()
	rep.values["throughput_msg_s"] = float64(ph.delivered) / ph.span.Seconds()
	rep.values["cpu_us_per_msg"] = ph.cpu.Seconds() * 1e6 / delivered
	// Per latencyWindow: the delivery rate, left out where CPU was stolen
	// like the latency windows, and the CPU per delivery, which needs no
	// such care because the kernel does not charge stolen time to the
	// process.
	if rate, cpu, stolen := perWindow(ph.host); len(rate) > 0 {
		rep.values["throughput_msg_s"], _ = quietMedian(rate, stolen)
		rep.values["cpu_us_per_msg"] = median(cpu)
	}
	p50, used, full := windowed(ph.samples, 0.50, ph.host)
	rep.values["latency_p50_ms"] = p50
	rep.values["latency_p99_ms"], _, _ = windowed(ph.samples, 0.99, ph.host)
	rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	all := make([]float64, len(ph.samples))
	for i, x := range ph.samples {
		all[i] = x.ms
	}
	rates := make([]int, len(ph.steps))
	for i, st := range ph.steps {
		rates[i] = int(st.AchievedRate)
	}
	logf("%s: idle CPU %.1f%%; %d delivered in %.3fs, msg/s by load step %v; latency from %d of %d windows (the rest had more CPU stolen, over %.0f%%); over all %d samples p50 %.3fms p99 %.3fms, CPU %.1fµs/msg",
		s.name, idle, ph.delivered, ph.span.Seconds(), rates, used, full, stealLimitPct, len(all), quantile(all, 0.5), quantile(all, 0.99), ph.cpu.Seconds()*1e6/delivered)
	return rep, nil
}

// traced measures half the budget untraced, then replays the same plan
// on a deployment built with every wrapper installed, reads the program's
// own counters around the traced phase, and replays the captured frames
// and payload tags through their codecs.
func (s liveSpec) traced(o runOpts) (*report, error) {
	rep := newReport()
	budget := time.Duration(o.seconds * float64(time.Second) / 2)

	d, _, err := s.setUp(o.seed, nil, rep)
	if err != nil {
		return nil, err
	}
	ref, err := s.measure(d, d.nw, o.seed, budget, 0)
	ref.release()
	d.close()
	if err != nil {
		return nil, err
	}
	ref.gate(rep)

	p := &liveProbe{}
	d, _, err = s.setUp(o.seed, p, rep)
	if err != nil {
		return nil, err
	}
	idle := idleCPUPct()
	t := newTracer(liveSpanCap)
	before := d.nw.Stats()
	retx0 := d.nw.Telemetry().SumValues(telemetry.SeriesRetransmits)
	p.t.Store(t)
	got, err := s.measure(d, &tracedNet{nw: d.nw, p: p}, o.seed, budget, ref.chunks)
	got.release()
	p.t.Store(nil)
	after := d.nw.Stats()
	retx := d.nw.Telemetry().SumValues(telemetry.SeriesRetransmits) - retx0
	d.close()
	if err != nil {
		return nil, err
	}
	got.gate(rep)

	per := float64(max(got.delivered, 1))
	var parks int64
	var hold, deliver, wire float64 // ns, weighted by deliveries
	for _, st := range got.steps {
		parks += st.Queues.ParkEvents
		if a := st.Attribution; a != nil {
			w := float64(st.Delivered)
			hold += a.Hold.MeanNS * w
			deliver += a.Deliver.MeanNS * w
			wire += a.Wire.MeanNS * w
		}
	}
	v := rep.values
	v["msgpass.send_ns"] = t.meanNS(spanSend)
	v["msgpass.offers_per_msg"] = float64(after.OffersSent-before.OffersSent) / per
	v["msgpass.retransmits_per_msg"] = float64(retx) / per
	v["msgpass.cancels_per_msg"] = float64(after.CancelsSent-before.CancelsSent) / per
	v["msgpass.park_events_per_msg"] = float64(parks) / per
	v["msgpass.hold_ms_mean"] = hold / per / 1e6
	v["msgpass.deliver_ms_mean"] = deliver / per / 1e6
	v["msgpass.idle_cpu_pct"] = idle
	v["transport.frames_per_msg"] = float64(t.count[spanLinkSend].Load()) / per
	v["transport.bytes_per_msg"] = float64(after.Wire.BytesSent-before.Wire.BytesSent) / per
	v["transport.link_send_ns"] = t.meanNS(spanLinkSend)
	v["transport.dropped_full"] = float64(after.Wire.DroppedFull - before.Wire.DroppedFull)
	v["transport.wire_ms_mean"] = wire / per / 1e6
	v["load.send_lag_p99_ms"] = quantile(p.lags, 0.99)
	v["load.collector_ns_per_msg"] = t.meanNS(spanDeliver)
	v["load.hold_stamp_ns"] = t.meanNS(spanHoldStamp)
	v["trace.overhead_s"] = (got.cpu - ref.cpu).Seconds()

	// The codec layers, replayed from what the traced phase carried. The
	// channel transport never encodes a frame, so its codec metrics stay 0.
	v["transport.codec_encode_ns"], v["transport.codec_decode_ns"] = 0, 0
	if s.tcp {
		enc, dec, err := replayFrames(p.frames)
		if err != nil {
			rep.fail("frame codec replay: %v", err)
		}
		v["transport.codec_encode_ns"], v["transport.codec_decode_ns"] = enc, dec
	}
	tagNS, err := replayTags(p.payloads)
	if err != nil {
		rep.fail("tag codec replay: %v", err)
	}
	v["load.tag_codec_ns"] = tagNS

	path, err := t.write(o.traceDir, fmt.Sprintf("%s-seed%d", s.name, o.seed))
	if err != nil {
		return rep, fmt.Errorf("write spans: %w", err)
	}
	logf("%s: frames by kind %v; traced CPU %.3fs vs untraced %.3fs; spans in %s",
		s.name, p.kindCounts(), got.cpu.Seconds(), ref.cpu.Seconds(), path)
	return rep, nil
}

// liveProbe collects what the wrappers of a traced deployment see. The
// wrappers record only while a tracer is installed, so warm-up traffic
// stays out of the numbers.
type liveProbe struct {
	t     atomic.Pointer[tracer]
	kinds [transport.KindCancelAck + 1]atomic.Int64
	seen  atomic.Int64 // frames sent, for the capture stride
	sends atomic.Int64 // tagged sends, for the capture stride

	mu       sync.Mutex
	lags     []float64 // ms the generator ran behind each tag's instant
	payloads []string
	frames   []transport.Frame
}

// tracer returns the installed tracer, nil on an untraced deployment or
// outside the traced phase.
func (p *liveProbe) tracer() *tracer {
	if p == nil {
		return nil
	}
	return p.t.Load()
}

func (p *liveProbe) kindCounts() map[string]int64 {
	out := make(map[string]int64)
	for k := range p.kinds {
		if n := p.kinds[k].Load(); n > 0 {
			out[transport.FrameKind(k).String()] = n
		}
	}
	return out
}

// frame counts a sent frame by kind and keeps a strided sample of the
// mix for the codec replay. DV slices may be reused by the sender, so
// the sample holds a copy.
func (p *liveProbe) frame(f transport.Frame) {
	if int(f.Kind) < len(p.kinds) {
		p.kinds[f.Kind].Add(1)
	}
	if p.seen.Add(1)%captureStride != 0 {
		return
	}
	f.DV = append([]int(nil), f.DV...)
	p.mu.Lock()
	if len(p.frames) < captureCap {
		p.frames = append(p.frames, f)
	}
	p.mu.Unlock()
}

// holdStamp times load.AddHold as the nodes call it.
func (p *liveProbe) holdStamp(payload string, waitNanos int64) (string, bool) {
	t := p.tracer()
	if t == nil {
		return load.AddHold(payload, waitNanos)
	}
	a := t.now()
	out, ok := load.AddHold(payload, waitNanos)
	t.record(spanHoldStamp, -1, 0, a, t.now())
	return out, ok
}

// tracedNet is the load.Network a traced phase drives: it times Send and
// how late it ran behind the tag's instant, and forwards QueueDepths and
// Telemetry so load.Run's queue and park counters still read the network.
type tracedNet struct {
	nw *msgpass.Network
	p  *liveProbe
}

func (n *tracedNet) Send(src graph.ProcessID, payload string, dst graph.ProcessID) (uint64, error) {
	t := n.p.tracer()
	if t == nil {
		return n.nw.Send(src, payload, dst)
	}
	a := t.now()
	uid, err := n.nw.Send(src, payload, dst)
	t.record(spanSend, -1, uid, a, t.now())
	if _, _, _, sched, ok := load.ParseTag(payload); ok {
		lag := float64(t.epoch.UnixNano()+a-sched) / 1e6
		keep := n.p.sends.Add(1)%captureStride == 0
		n.p.mu.Lock()
		n.p.lags = append(n.p.lags, lag)
		if keep && len(n.p.payloads) < captureCap {
			n.p.payloads = append(n.p.payloads, payload)
		}
		n.p.mu.Unlock()
	}
	return uid, err
}

func (n *tracedNet) QueueDepths() []msgpass.QueueDepth { return n.nw.QueueDepths() }

func (n *tracedNet) Telemetry() *telemetry.Registry { return n.nw.Telemetry() }

// timedTransport wraps every link so Link.Send is timed and its frames
// counted. Links are cached: the Transport contract returns the same
// Link for the same edge.
type timedTransport struct {
	transport.Transport
	p     *liveProbe
	mu    sync.Mutex
	links map[[2]graph.ProcessID]*timedLink
}

func (tt *timedTransport) Link(from, to graph.ProcessID) transport.Link {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	key := [2]graph.ProcessID{from, to}
	l, ok := tt.links[key]
	if !ok {
		l = &timedLink{Link: tt.Transport.Link(from, to), p: tt.p}
		tt.links[key] = l
	}
	return l
}

type timedLink struct {
	transport.Link
	p *liveProbe
}

func (l *timedLink) Send(f transport.Frame) bool {
	t := l.p.tracer()
	if t == nil {
		return l.Link.Send(f)
	}
	a := t.now()
	ok := l.Link.Send(f)
	t.record(spanLinkSend, -1, f.Offer.Msg.UID, a, t.now())
	l.p.frame(f)
	return ok
}
