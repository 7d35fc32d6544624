package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/transport"
)

// runElastic is the churn judge: the -spawn launcher's elastic sibling.
// It forks a base ring of -serve nodes on loopback TCP, then drives the
// full membership lifecycle against them from an operator console while
// background injectors keep live traffic flowing:
//
//  1. join two fresh nodes (new slots, new wires, epoch broadcast),
//  2. gracefully cut one base link (two-phase: routing off, then wire),
//  3. drain one base member under the sustained load and watch its
//     process exit once the detach epoch lands,
//
// and finally verifies exactly-once delivery over everything injected
// across all of it, joining the live nodes' delivery ledgers with the
// drained node's ledger (cached before its process left). UID streams
// restart with a node's incarnation, so the ledger keys on
// (payload, uid) — every injection stream here uses a distinct payload.
func runElastic(cfg config) error {
	n := cfg.spawn
	if n == 0 {
		n = 4
	}
	if n < 4 {
		return fmt.Errorf("-elastic needs -spawn >= 4 (got %d)", n)
	}
	joinA := graph.ProcessID(n)     // joins on (A,0) and (A,2)
	joinB := graph.ProcessID(n + 1) // joins on (B,1) and (B,3)
	drainTarget := graph.ProcessID(n - 1)

	// One loopback wire port per slot, joiners included: the peers file
	// covers the whole slot space up front, so every child — present and
	// future — can dial every other. (The epochs redundantly carry the
	// same address book; a real deployment would rely on that instead.)
	wire := make(map[graph.ProcessID]string, n+2)
	for p := graph.ProcessID(0); int(p) < n+2; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		wire[p] = l.Addr().String()
		l.Close()
	}

	dir, err := os.MkdirTemp("", "ssmfp-elastic-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	peersPath := filepath.Join(dir, "peers.txt")
	if err := os.WriteFile(peersPath, []byte(transport.FormatPeers(wire)), 0o644); err != nil {
		return err
	}

	// Topology files: the base ring for the initial members, and one
	// successively larger graph per joiner — a joining process boots on
	// the post-join topology (it brings its own wires up; the epoch
	// brings everyone else's).
	base := graph.Ring(n)
	baseEdges := base.Edges()
	joinedA, err := buildTopo(n+1, append(append([][2]graph.ProcessID{}, baseEdges...),
		[2]graph.ProcessID{joinA, 0}, [2]graph.ProcessID{joinA, 2}))
	if err != nil {
		return err
	}
	joinedB, err := buildTopo(n+2, append(append([][2]graph.ProcessID{}, joinedA.Edges()...),
		[2]graph.ProcessID{joinB, 1}, [2]graph.ProcessID{joinB, 3}))
	if err != nil {
		return err
	}
	topoPaths := map[string]*graph.Graph{"base.txt": base, "join-a.txt": joinedA, "join-b.txt": joinedB}
	for name, g := range topoPaths {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(graph.Format(g)), 0o644); err != nil {
			return err
		}
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	children := make(map[graph.ProcessID]*serveChild)
	defer func() {
		for _, c := range children {
			c.release(5 * time.Second)
		}
	}()
	boot := func(id graph.ProcessID, topoName string) (*serveChild, error) {
		c, err := spawnServe(self, id, filepath.Join(dir, topoName), peersPath, cfg)
		if err != nil {
			return nil, err
		}
		children[id] = c
		return c, nil
	}

	// Base ring up, console over it.
	mgr := cluster.NewManager(graph.NewTopology(base))
	mgr.PollInterval = 25 * time.Millisecond
	for p := graph.ProcessID(0); int(p) < n; p++ {
		c, err := boot(p, "base.txt")
		if err != nil {
			return err
		}
		mgr.Attach(p, c.hc, wire[p])
	}
	for p := graph.ProcessID(0); int(p) < n; p++ {
		st, err := children[p].hc.Status()
		if err != nil {
			return fmt.Errorf("node %d never answered status: %w", p, err)
		}
		if len(st.Members) != n {
			return fmt.Errorf("node %d booted with %d members, want %d", p, len(st.Members), n)
		}
	}

	// Sustained background load between base members that stay put for
	// the whole scenario; it keeps flowing through every membership
	// change, including straight through the draining node (0↔2 transits
	// the n-1 side of the ring once (0,1) is cut).
	// The injectors run concurrently with the joins and the drain, which
	// write children, so they hold their sources' clients from here on.
	led := newLedger()
	sources := map[graph.ProcessID]*cluster.HTTPClient{0: children[0].hc, 2: children[2].hc}
	inject := func(src, dst graph.ProcessID, count int, payload string) ([]uint64, error) {
		rep, err := sources[src].Inject(src, dst, count, payload)
		if err != nil {
			return nil, err
		}
		return rep.UIDs, nil
	}
	stopLoad := load.Sustain(inject, []load.SustainedStream{
		{Src: 0, Dst: 2, Payload: "load-0-2"},
		{Src: 2, Dst: 0, Payload: "load-2-0"},
	}, led.add)

	violations := []string{}
	badf := func(format string, a ...any) { violations = append(violations, fmt.Sprintf(format, a...)) }

	// Join two nodes under load.
	for _, j := range []struct {
		id    graph.ProcessID
		topo  string
		peers []graph.ProcessID
	}{{joinA, "join-a.txt", []graph.ProcessID{0, 2}}, {joinB, "join-b.txt", []graph.ProcessID{1, 3}}} {
		c, err := boot(j.id, j.topo)
		if err != nil {
			return fmt.Errorf("joiner %d: %w", j.id, err)
		}
		if err := mgr.JoinNode(j.id, wire[j.id], c.hc, j.peers...); err != nil {
			return fmt.Errorf("join %d: %w", j.id, err)
		}
		out := fmt.Sprintf("join-%d-out", j.id)
		in := fmt.Sprintf("join-%d-in", j.id)
		rep, err := mgr.Inject(j.id, j.peers[1], 20, out)
		if err != nil {
			return fmt.Errorf("inject from joiner %d: %w", j.id, err)
		}
		led.add(out, rep.UIDs)
		rep, err = mgr.Inject(j.peers[0], j.id, 20, in)
		if err != nil {
			return fmt.Errorf("inject to joiner %d: %w", j.id, err)
		}
		led.add(in, rep.UIDs)
	}

	// Graceful link cut under load: (0,1) is safe to lose — the ring
	// minus it is a line, and the joiners add chords besides.
	if err := mgr.CutLink(0, 1); err != nil {
		return fmt.Errorf("cut (0,1): %w", err)
	}

	// Burst at the drain target, wait for the burst to land there, cache
	// its ledger — its process exits when the detach epoch arrives, so
	// the judge must hold its deliveries before asking for the drain.
	const burst = 30
	rep, err := mgr.Inject(0, drainTarget, burst, "drain-burst")
	if err != nil {
		return fmt.Errorf("drain burst: %w", err)
	}
	led.add("drain-burst", rep.UIDs)
	drainedLedger, err := awaitDeliveries(children[drainTarget].hc, "drain-burst", rep.Sent, cfg.timeout)
	if err != nil {
		return err
	}
	healed, err := mgr.Drain(drainTarget)
	if err != nil {
		return fmt.Errorf("drain %d: %w", drainTarget, err)
	}
	if c := children[drainTarget]; !c.reap(10 * time.Second) {
		badf("node %d did not exit after its detach epoch", drainTarget)
	}
	delete(children, drainTarget)

	// Load off; judge everything.
	stopLoad()
	sent := led.snapshot()

	seen, verr := collectDeliveries(children, drainedLedger, sent, cfg.timeout)
	if verr != nil {
		badf("%v", verr)
	}
	for key, cnt := range seen {
		if _, ours := sent[key]; !ours {
			badf("delivery of unknown message %s", key)
		} else if cnt > 1 {
			badf("message %s delivered %d times", key, cnt)
		}
	}
	missing := 0
	for key := range sent {
		if seen[key] == 0 {
			missing++
			if missing <= 10 {
				badf("message %s never delivered", key)
			}
		}
	}
	if missing > 10 {
		badf("... and %d more undelivered messages", missing-10)
	}

	// Final control-plane coherence: every surviving node at the console's
	// epoch, membership = base + 2 joiners - 1 drained, no status errors.
	cs := mgr.Status()
	for id, msg := range cs.Errors {
		badf("node %d status: %s", id, msg)
	}
	if want := n + 1; len(cs.Members) != want {
		badf("cluster has %d members, want %d", len(cs.Members), want)
	}
	for id, st := range cs.Nodes {
		if st.Epoch != cs.Epoch.Seq {
			badf("node %d at epoch %d, console at %d", id, st.Epoch, cs.Epoch.Seq)
		}
	}

	summary := struct {
		Nodes      int                  `json:"nodes"`
		Joined     []graph.ProcessID    `json:"joined"`
		Cut        [2]graph.ProcessID   `json:"cut"`
		Drained    graph.ProcessID      `json:"drained"`
		Healed     [][2]graph.ProcessID `json:"healed"`
		Epoch      uint64               `json:"epoch"`
		Sent       int                  `json:"sent"`
		Delivered  int                  `json:"delivered"`
		Violations []string             `json:"violations"`
	}{
		Nodes:   len(cs.Members),
		Joined:  []graph.ProcessID{joinA, joinB},
		Cut:     [2]graph.ProcessID{0, 1},
		Drained: drainTarget,
		Healed:  healed,
		Epoch:   cs.Epoch.Seq,
		Sent:    len(sent),
		Delivered: func() (d int) {
			for _, c := range seen {
				d += c
			}
			return
		}(),
		Violations: violations,
	}
	enc, _ := json.MarshalIndent(summary, "", "  ")
	fmt.Println(string(enc))
	if len(violations) > 0 {
		return fmt.Errorf("%d elastic-cluster violations", len(violations))
	}
	fmt.Fprintf(os.Stderr, "ssmfp-node: elastic churn (%d→%d→%d nodes, %d messages) exactly-once verified\n",
		n, n+2, n+1, len(sent))
	return nil
}

// buildTopo assembles and freezes a graph from a slot count and edge set.
func buildTopo(slots int, edges [][2]graph.ProcessID) (*graph.Graph, error) {
	topo, err := topoFrom(slots, edges)
	if err != nil {
		return nil, err
	}
	return topo.Build()
}

// ledger tracks every injected message by (payload, uid) — the key that
// stays unique across node incarnations.
type ledger struct {
	mu   sync.Mutex
	sent map[string]bool
}

func newLedger() *ledger { return &ledger{sent: make(map[string]bool)} }

func ledgerKey(payload string, uid uint64) string {
	return payload + "#" + strconv.FormatUint(uid, 10)
}

func (l *ledger) add(payload string, uids []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, uid := range uids {
		l.sent[ledgerKey(payload, uid)] = true
	}
}

func (l *ledger) snapshot() map[string]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]bool, len(l.sent))
	for k := range l.sent {
		out[k] = true
	}
	return out
}

// serveChild is one forked -serve node and the admin client pointed at
// the address it announced.
type serveChild struct {
	*child
	admin string
	hc    *cluster.HTTPClient
}

// spawnServe forks one -serve node and waits for its startup banner.
func spawnServe(self string, id graph.ProcessID, topoPath, peersPath string, cfg config) (*serveChild, error) {
	c, err := startChild(self, id,
		"-serve",
		"-id", strconv.Itoa(int(id)),
		"-topology-file", topoPath,
		"-peers", peersPath,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-tick", cfg.tick.String(),
		"-http", "127.0.0.1:0",
	)
	if err != nil {
		return nil, err
	}
	var b serveBanner
	if err := c.readFirst(&b, "startup banner", time.Now().Add(15*time.Second)); err != nil {
		c.release(2 * time.Second)
		return nil, err
	}
	admin := "http://" + b.AdminAddr
	return &serveChild{child: c, admin: admin, hc: cluster.NewHTTPClient(admin)}, nil
}

// awaitDeliveries polls one node's ledger until count messages of the
// given payload landed there, then returns the node's full ledger.
func awaitDeliveries(hc *cluster.HTTPClient, payload string, count int, timeout time.Duration) ([]cluster.DeliveryRec, error) {
	deadline := time.Now().Add(timeout)
	for {
		ds, err := hc.Deliveries()
		if err == nil {
			got := 0
			for _, d := range ds {
				if d.Payload == payload && d.Valid {
					got++
				}
			}
			if got >= count {
				return ds, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("burst %q never fully landed: %v", payload, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// collectDeliveries polls every live node's ledger (plus the cached
// ledger of the drained node) until every sent message is accounted for
// or the timeout passes, and returns per-message delivery counts.
func collectDeliveries(children map[graph.ProcessID]*serveChild, cached []cluster.DeliveryRec,
	sent map[string]bool, timeout time.Duration) (map[string]int, error) {
	ids := make([]graph.ProcessID, 0, len(children))
	for id := range children {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		seen := make(map[string]int, len(sent))
		tally := func(ds []cluster.DeliveryRec) {
			for _, d := range ds {
				if d.Valid {
					seen[ledgerKey(d.Payload, d.UID)]++
				}
			}
		}
		tally(cached)
		lastErr = nil
		for _, id := range ids {
			ds, err := children[id].hc.Deliveries()
			if err != nil {
				lastErr = fmt.Errorf("node %d ledger: %w", id, err)
				continue
			}
			tally(ds)
		}
		outstanding := 0
		for key := range sent {
			if seen[key] == 0 {
				outstanding++
			}
		}
		if outstanding == 0 && lastErr == nil {
			return seen, nil
		}
		if time.Now().After(deadline) {
			if lastErr != nil {
				return seen, lastErr
			}
			return seen, fmt.Errorf("%d messages still undelivered at timeout", outstanding)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
