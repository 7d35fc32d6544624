package main

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/metrics"
	"ssmfp/internal/secure"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// runSpawn forks -spawn single-node copies of this binary on loopback
// TCP, waits for every node's JSON report, and judges exactly-once
// delivery across the whole cluster. It is the multi-process analogue of
// the in-process UID oracle the simulator tests use.
func runSpawn(cfg config) error {
	g, err := loadTopology(cfg)
	if err != nil {
		return err
	}
	if g.N() != cfg.spawn && cfg.n != 0 && cfg.topoFile == "" {
		return fmt.Errorf("-spawn %d and -n %d disagree", cfg.spawn, cfg.n)
	}
	if _, _, err := chaosOpts(cfg); err != nil {
		return err // reject bad -partition here, not in N children
	}
	legacy := make(map[graph.ProcessID]bool)
	if cfg.legacyNodes != "" {
		for _, part := range strings.Split(cfg.legacyNodes, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || id < 0 || id >= g.N() {
				return fmt.Errorf("-legacy-nodes %q: bad node id %q", cfg.legacyNodes, part)
			}
			legacy[graph.ProcessID(id)] = true
		}
	}

	// Reserve one loopback port per node by binding and closing; the
	// window between close and the child's bind is small, and a stolen
	// port fails the child's listen loudly rather than silently.
	peers := make(map[graph.ProcessID]string, g.N())
	for _, p := range g.Processors() {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		peers[p] = l.Addr().String()
		l.Close()
	}

	dir, err := os.MkdirTemp("", "ssmfp-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	topoPath := filepath.Join(dir, "topology.txt")
	if err := os.WriteFile(topoPath, []byte(graph.Format(g)), 0o644); err != nil {
		return err
	}
	peersPath := filepath.Join(dir, "peers.txt")
	if err := os.WriteFile(peersPath, []byte(transport.FormatPeers(peers)), 0o644); err != nil {
		return err
	}

	// TLS mode: provision one trust domain for the whole cluster in the
	// temp dir and hand every child its own node credential. The live CA
	// stays in memory — the byzantine rogue needs it to mint observer and
	// alien-node certificates the cluster will trust.
	var (
		certs *certSet
		ca    *secure.CA
	)
	if cfg.requireTLS {
		if ca, certs, err = provisionCerts(filepath.Join(dir, "certs"), g.N()); err != nil {
			return err
		}
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}

	children := make([]*child, 0, g.N())
	defer func() {
		for _, c := range children {
			c.closeStdin()
		}
		for _, c := range children {
			c.reap(5 * time.Second)
		}
	}()

	for _, p := range g.Processors() {
		// Every child serves its debug mux so the judge can scrape
		// /metrics while the node idles on stdin; -http-base gives stable
		// ports, otherwise each child picks one and reports it.
		httpAddr := "127.0.0.1:0"
		if cfg.httpBase > 0 {
			httpAddr = fmt.Sprintf("127.0.0.1:%d", cfg.httpBase+int(p))
		}
		args := []string{
			"-id", strconv.Itoa(int(p)),
			"-topology-file", topoPath,
			"-peers", peersPath,
			"-messages", strconv.Itoa(cfg.messages),
			"-send-spread", cfg.spread.String(),
			"-rate", strconv.FormatFloat(cfg.rate, 'g', -1, 64),
			"-arrival", cfg.arrival,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-tick", cfg.tick.String(),
			"-timeout", cfg.timeout.String(),
			"-loss", strconv.FormatFloat(cfg.loss, 'g', -1, 64),
			"-dup", strconv.FormatFloat(cfg.dup, 'g', -1, 64),
			"-latency", cfg.latency.String(),
			"-jitter", cfg.jitter.String(),
			"-partition", cfg.partitions,
			"-http", httpAddr,
		}
		if cfg.telemetryOut != "" {
			args = append(args,
				"-telemetry-out", fmt.Sprintf("%s.node%d", cfg.telemetryOut, p),
				"-telemetry-every", cfg.telemetryEvery.String())
		}
		if legacy[p] {
			args = append(args, "-legacy-tags")
		}
		if certs != nil {
			args = append(args,
				"-require-tls",
				"-ca", certs.caCert(),
				"-cert", certs.nodeCert(p),
				"-key", certs.nodeKey(p))
		}
		c, err := startChild(self, p, args...)
		if err != nil {
			return err
		}
		children = append(children, c)
	}

	// Byzantine mode: while the cluster carries its paced workload, a
	// rogue process (this one, wearing bad certificates) strikes every
	// node's wire listener with the full attack surface — untrusted
	// handshakes, role-violating frames, forged senders, replays from a
	// non-member. The ledger records exactly what was injected; the books
	// are balanced against the cluster's rejection counters below.
	var ledger *secure.RogueCounts
	if cfg.byzantine {
		counts, err := strikeCluster(cfg, g, ca, peers)
		if err != nil {
			return fmt.Errorf("byzantine strike: %w", err)
		}
		ledger = &counts
	}

	// Children stop waiting after cfg.timeout and report whatever they
	// have; allow slack on top for process startup and JSON plumbing.
	deadline := time.Now().Add(cfg.timeout + 15*time.Second)
	reports := make([]report, 0, len(children))
	for _, c := range children {
		var r report
		if err := c.readFirst(&r, "report", deadline); err != nil {
			return err
		}
		reports = append(reports, r)
	}

	violations := judge(g, reports, workload(g, cfg.seed, cfg.messages))
	var merged metrics.LatencyHist
	delivered := 0
	for _, r := range reports {
		delivered += len(r.Delivered)
		if r.Hist != nil {
			merged.Merge(r.Hist)
		}
	}
	// The children are still alive (they idle on stdin until the deferred
	// close), so their /metrics endpoints are scrapeable right now — the
	// telemetry plane is judged like the delivery record.
	health, scrapeViolations := scrapeCluster(certs, reports, &merged, ledger)
	violations = append(violations, scrapeViolations...)

	summary := struct {
		Nodes      int      `json:"nodes"`
		Messages   int      `json:"messages"`
		Delivered  int      `json:"delivered"`
		Violations []string `json:"violations"`

		// Byzantine mode: the rogue's injection ledger, per category.
		Byzantine *secure.RogueCounts `json:"byzantine,omitempty"`

		// Rate mode: cluster-wide latency quantiles from the merged
		// per-node histogram shards — the shards are mergeable by
		// construction, so the cluster view is exact, not an average of
		// node quantiles.
		Latency *load.LatencySummary `json:"latency,omitempty"`

		// Health is the stabilization-health verdict over the union of
		// every node's /metrics scrape.
		Health *telemetry.HealthReport `json:"health,omitempty"`

		Reports []report `json:"reports"`
	}{Nodes: len(reports), Messages: cfg.messages, Delivered: delivered,
		Violations: violations, Byzantine: ledger, Health: health, Reports: reports}
	if merged.Count() > 0 {
		sum := load.SummarizeHist(&merged)
		summary.Latency = &sum
	}
	enc, _ := json.MarshalIndent(summary, "", "  ")
	fmt.Println(string(enc))
	if len(violations) > 0 {
		return fmt.Errorf("%d exactly-once violations", len(violations))
	}
	fmt.Fprintf(os.Stderr, "ssmfp-node: %d nodes, %d messages, exactly-once verified\n",
		len(reports), cfg.messages)
	if ledger != nil {
		fmt.Fprintf(os.Stderr, "ssmfp-node: byzantine books balanced — %d injected frames, every one rejected for the right reason\n",
			ledger.Total())
	}
	return nil
}

// strikeCluster waits until every node's wire listener answers a mutual-
// TLS probe, then drives the rogue's full attack surface against each
// one. The probe uses a fresh operator credential: its handshake
// *succeeds*, so it never pollutes the handshake-rejection counter the
// ledger audit later insists on balancing exactly.
func strikeCluster(cfg config, g *graph.Graph, ca *secure.CA, peers map[graph.ProcessID]string) (secure.RogueCounts, error) {
	probe, err := ca.Issue("spawn-probe", secure.RoleOperator)
	if err != nil {
		return secure.RogueCounts{}, err
	}
	conf := secure.ClientConfig(probe, ca.Pool())
	targets := make([]string, 0, g.N())
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range g.Processors() {
		addr := peers[p]
		for {
			conn, derr := tls.DialWithDialer(&net.Dialer{Timeout: time.Second}, "tcp", addr, conf)
			if derr == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				return secure.RogueCounts{}, fmt.Errorf("node %d never listened on %s: %v", p, addr, derr)
			}
			time.Sleep(50 * time.Millisecond)
		}
		targets = append(targets, addr)
	}
	// The rogue impersonates a real member (node 0) and also holds a
	// valid certificate for a processor the topology has never heard of.
	rogue, err := secure.NewRogue(ca, 0, graph.ProcessID(g.N()+9), targets)
	if err != nil {
		return secure.RogueCounts{}, err
	}
	return rogue.Strike(cfg.burst)
}

// scrapeCluster judges the telemetry plane the way judge judges the
// delivery record: every node's /metrics must answer and parse, carry the
// core series, and agree with the peaks the node put in its report; the
// union of all scrapes must pass the stabilization-health checks; and in
// rate mode the node-stamped latency-attribution components must fit
// inside the collector-measured end-to-end latency.
//
// With certs the children serve /metrics behind mutual TLS, so the judge
// scrapes as an operator. With a byzantine ledger the secure-rejection
// health flag is *expected* — every other flag stays a violation — and
// the cluster's per-reason rejection counters must balance the ledger
// exactly.
func scrapeCluster(certs *certSet, reports []report, merged *metrics.LatencyHist, ledger *secure.RogueCounts) (*telemetry.HealthReport, []string) {
	var violations []string
	badf := func(format string, a ...any) {
		violations = append(violations, fmt.Sprintf(format, a...))
	}
	client := &http.Client{Timeout: scrapeTimeout}
	scheme := "http://"
	if certs != nil {
		cred, err := secure.LoadCredential(certs.roleCert(secure.RoleOperator), certs.roleKey(secure.RoleOperator))
		if err != nil {
			badf("loading the operator scrape credential: %v", err)
			return nil, violations
		}
		pool, err := secure.LoadPool(certs.caCert())
		if err != nil {
			badf("loading the cluster CA: %v", err)
			return nil, violations
		}
		client = &http.Client{
			Timeout:   scrapeTimeout,
			Transport: &http.Transport{TLSClientConfig: secure.ClientConfig(cred, pool)},
		}
		scheme = "https://"
	}
	var all []telemetry.PromSample
	for _, r := range reports {
		// Report-internal consistency first — the peaks are event-driven,
		// so activity the report claims must have left a high-water mark.
		if n := len(r.Delivered); n > 0 && (r.PeakBufR < 1 || r.PeakBufE < 1) {
			badf("node %d delivered %d messages but reports buffer peaks R=%d E=%d",
				r.ID, n, r.PeakBufR, r.PeakBufE)
		}
		if len(r.Sent) > 0 && r.PeakPending < 1 {
			badf("node %d sent %d messages but reports pending peak 0", r.ID, len(r.Sent))
		}
		if r.ParkEvents > 0 && r.PeakParked < 1 {
			badf("node %d counted %d park events but reports parked peak 0", r.ID, r.ParkEvents)
		}

		if r.MetricsAddr == "" {
			badf("node %d reported no metrics address", r.ID)
			continue
		}
		resp, err := client.Get(scheme + r.MetricsAddr + "/metrics")
		if err != nil {
			badf("node %d: scraping /metrics: %v", r.ID, err)
			continue
		}
		samples, perr := telemetry.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			badf("node %d: /metrics answered HTTP %d", r.ID, resp.StatusCode)
			continue
		}
		if perr != nil {
			badf("node %d: /metrics is not parseable Prometheus text: %v", r.ID, perr)
			continue
		}
		for _, core := range telemetry.CoreSeries {
			if !telemetry.HasSeries(samples, core) {
				badf("node %d: /metrics missing core series %s", r.ID, core)
			}
		}
		all = append(all, samples...)
	}
	if len(all) == 0 {
		return nil, violations
	}
	health := telemetry.CheckHealth(all)
	if !health.Healthy {
		if ledger == nil {
			badf("cluster %s", health)
		} else {
			// Under attack the secure-rejection flag is the system working;
			// any other flag is still a violation.
			for _, f := range health.Flags {
				if !f.SecureFlag() {
					badf("cluster flag [%s=%g: %s]", f.Series, f.Value, f.Why)
				}
			}
		}
	}
	if ledger != nil {
		if ledger.Total() > 0 && !flaggedSecure(health) {
			badf("rogue injected %d frames but the cluster counted no secure rejections", ledger.Total())
		}
		violations = append(violations, auditLedger(client, scheme, reports, all, *ledger)...)
	}

	// Attribution: summed across the cluster, the stamped components
	// (queued + park + deliver) divided by the delivered-message count
	// must not exceed the measured end-to-end mean — the residual is wire
	// time, which is strictly nonnegative. Allow 25% plus scheduling
	// slack for the separate clock reads on either side of a hop.
	if merged.Count() > 0 {
		perMsg := telemetry.SumSeries(all, telemetry.SeriesLatencyComponent+"_sum") / float64(merged.Count())
		if e2e := merged.Mean(); perMsg > e2e*1.25+float64(2*time.Millisecond) {
			badf("latency attribution components sum to %.0fns per message, more than the e2e mean %.0fns",
				perMsg, e2e)
		}
	}
	return &health, violations
}

// judge checks the cross-process exactly-once property: every UID a node
// reports sent must appear exactly once, valid, in the report of the
// destination it was addressed to — and nowhere else.
func judge(g *graph.Graph, reports []report, plan []workloadEntry) []string {
	var violations []string
	badf := func(format string, a ...any) {
		violations = append(violations, fmt.Sprintf(format, a...))
	}

	// Tag-codec coherence: every node must speak the same payload-tag
	// version, and none may have seen a foreign-version tag — a cluster
	// mixing old and new binaries cannot measure latency honestly, so it
	// fails here even when every message arrived exactly once.
	tagVersion := 0
	for _, r := range reports {
		if r.TagMismatches > 0 {
			badf("node %d saw %d deliveries with a foreign tag version", r.ID, r.TagMismatches)
		}
		if r.TagVersion == 0 {
			continue
		}
		if tagVersion == 0 {
			tagVersion = r.TagVersion
		} else if r.TagVersion != tagVersion {
			badf("mixed tag codecs on the cluster: node %d speaks v%d, earlier nodes v%d",
				r.ID, r.TagVersion, tagVersion)
		}
	}

	expectDst := make(map[uint64]int) // uid -> destination
	for _, r := range reports {
		if want := countFor(plan, graph.ProcessID(r.ID)); len(r.Sent) != want.sent {
			badf("node %d sent %d messages, plan says %d", r.ID, len(r.Sent), want.sent)
		}
		for _, s := range r.Sent {
			if _, dup := expectDst[s.UID]; dup {
				badf("uid %d sent twice", s.UID)
			}
			expectDst[s.UID] = s.Dst
		}
	}
	seen := make(map[uint64]int) // uid -> deliveries observed
	for _, r := range reports {
		for _, d := range r.Delivered {
			if !d.Valid {
				badf("node %d delivered invalid uid %d", r.ID, d.UID)
				continue
			}
			dst, known := expectDst[d.UID]
			if !known {
				badf("node %d delivered unknown uid %d", r.ID, d.UID)
				continue
			}
			if dst != r.ID {
				badf("uid %d delivered at node %d, addressed to %d", d.UID, r.ID, dst)
			}
			seen[d.UID]++
		}
	}
	for uid, n := range seen {
		if n > 1 {
			badf("uid %d delivered %d times", uid, n)
		}
	}
	for uid, dst := range expectDst {
		if seen[uid] == 0 {
			badf("uid %d (for node %d) never delivered", uid, dst)
		}
	}
	return violations
}

func flaggedSecure(h telemetry.HealthReport) bool {
	for _, f := range h.Flags {
		if f.SecureFlag() {
			return true
		}
	}
	return false
}

// auditLedger balances the byzantine books: every frame the rogue
// injected must appear in exactly the right rejection counter, summed
// across the cluster. The victims count asynchronously to the rogue's
// writes, so the audit re-scrapes until no counter runs short of the
// ledger (bounded), then insists on exact equality — an overshoot means
// the trust domain rejected traffic the rogue never sent, which is just
// as much an accounting failure as a miss.
func auditLedger(client *http.Client, scheme string, reports []report, all []telemetry.PromSample, ledger secure.RogueCounts) []string {
	want := map[string]float64{
		secure.ReasonHandshake:  float64(ledger.Handshake),
		secure.ReasonRole:       float64(ledger.Role),
		secure.ReasonSender:     float64(ledger.Sender),
		secure.ReasonMembership: float64(ledger.Membership),
		secure.ReasonAdmin:      0, // nothing touched the admin plane
	}
	sums := func(samples []telemetry.PromSample) map[string]float64 {
		got := make(map[string]float64, len(want))
		for reason := range want {
			got[reason] = telemetry.SumSeriesLabel(samples, telemetry.SeriesSecureRejected, "reason", reason)
		}
		return got
	}
	got := sums(all)
	deadline := time.Now().Add(10 * time.Second)
	for {
		short := false
		for reason, w := range want {
			if got[reason] < w {
				short = true
			}
		}
		if !short || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
		if fresh, ok := scrapeSamples(client, scheme, reports); ok {
			got = sums(fresh)
		}
	}
	var violations []string
	for _, reason := range secure.Reasons {
		if got[reason] != want[reason] {
			violations = append(violations, fmt.Sprintf(
				"byzantine books don't balance: reason %q counted %g rejections, rogue ledger says %g",
				reason, got[reason], want[reason]))
		}
	}
	return violations
}

// scrapeSamples re-reads every node's /metrics for the audit's settle
// loop; ok is false when any endpoint failed (keep the previous view).
func scrapeSamples(client *http.Client, scheme string, reports []report) ([]telemetry.PromSample, bool) {
	var all []telemetry.PromSample
	for _, r := range reports {
		if r.MetricsAddr == "" {
			return nil, false
		}
		resp, err := client.Get(scheme + r.MetricsAddr + "/metrics")
		if err != nil {
			return nil, false
		}
		samples, perr := telemetry.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if perr != nil {
			return nil, false
		}
		all = append(all, samples...)
	}
	return all, true
}

type planShare struct{ sent, recv int }

func countFor(plan []workloadEntry, p graph.ProcessID) planShare {
	var s planShare
	for _, e := range plan {
		if e.Src == p {
			s.sent++
		}
		if e.Dst == p {
			s.recv++
		}
	}
	return s
}
