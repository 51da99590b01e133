package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestObsFleetStitchedTraceAndFederation is the fleet-observability
// acceptance test (go test -race -run ObsFleet ./internal/cluster/): a
// three-node fleet steals a job, and afterwards (1) the leader's
// per-job trace is one stitched timeline carrying spans from at least
// two distinct node IDs under a deterministic trace ID, and (2)
// /metrics/fleet — asked via a follower, so the forwarding path is
// exercised too — reports merged counters exactly equal to the sum of
// the per-node registries it shipped alongside them.
func TestObsFleetStitchedTraceAndFederation(t *testing.T) {
	ctx := context.Background()
	nodes := fleet(t, []string{"node-a", "node-b", "node-c"}, func(id string, scfg *serve.Config, ccfg *Config) {
		scfg.Workers = 1
		ccfg.StealMax = 1
	})
	a, b, c := nodes["node-a"], nodes["node-b"], nodes["node-c"]
	info := uploadCompas(t, a.client, 200, 7)
	syncFleet(t, ctx, a, b, c)

	// Pin node-a's only worker inside the first job so the second stays
	// queued and stealable (the fault gates only the leader's local
	// runner, not a stolen run's RunRequest path).
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	faults.Set(faults.ServeJob, func(any) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })
	defer close(gate)

	if _, err := a.client.SubmitJob(ctx, serve.JobRequest{Kind: "train", DatasetID: info.ID, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	st2, err := a.client.SubmitJob(ctx, serve.JobRequest{Kind: "train", DatasetID: info.ID, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Tick leader and one follower until the stolen job completes; the
	// heartbeats keep node-b's promotion clock at zero.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.node.Tick(ctx)
		b.node.Tick(ctx)
		st, err := a.client.Job(ctx, st2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("stolen job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stolen job still %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The stitched trace: deterministic identity (leader node + job ID,
	// no entropy), local submission/handoff spans from node-a, and the
	// stealer's grafted subtree attributed to node-b and marked Remote.
	doc, err := a.client.Trace(ctx, st2.ID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if want := "node-a/" + st2.ID; doc.TraceID != want {
		t.Fatalf("trace ID = %q, want deterministic %q", doc.TraceID, want)
	}
	byNode := map[string]int{}
	var remote, stolenSpan bool
	for _, sp := range doc.Spans {
		byNode[sp.Node]++
		if sp.Remote {
			remote = true
		}
		if sp.Name == "cluster.run_stolen" && sp.Node == "node-b" {
			stolenSpan = true
		}
	}
	if len(byNode) < 2 || byNode["node-a"] == 0 || byNode["node-b"] == 0 {
		t.Fatalf("stitched trace spans by node = %v, want both node-a and node-b", byNode)
	}
	if !remote || !stolenSpan {
		t.Fatalf("trace missing grafted remote run_stolen span (remote=%v stolen=%v): %+v",
			remote, stolenSpan, doc.Spans)
	}

	// Federation through a follower: the request forwards to the
	// leader, which pulls every /cluster/obs and merges. The merged
	// counters must equal the sum of the per-node registries shipped in
	// the same response — exactly, since both come from one snapshot
	// round.
	fo, err := b.client.FleetObs(ctx)
	if err != nil {
		t.Fatalf("fleet obs via follower: %v", err)
	}
	if fo.Leader != "node-a" || len(fo.Nodes) != 3 {
		t.Fatalf("fleet view = leader %s, %d nodes; want node-a, 3", fo.Leader, len(fo.Nodes))
	}
	sums := map[string]int64{}
	for _, n := range fo.Nodes {
		if n.Err != "" {
			t.Fatalf("node %s unreachable in fleet view: %s", n.NodeID, n.Err)
		}
		for name, v := range n.Metrics.Counters {
			sums[name] += v
		}
	}
	if len(fo.Merged.Counters) != len(sums) {
		t.Fatalf("merged has %d counters, per-node sums have %d", len(fo.Merged.Counters), len(sums))
	}
	for name, want := range sums {
		if got := fo.Merged.Counters[name]; got != want {
			t.Fatalf("merged counter %s = %d, want per-node sum %d", name, got, want)
		}
	}
	if fo.Merged.Counters["serve.jobs_stolen"] != 1 || fo.Merged.Counters["cluster.steals"] != 1 {
		t.Fatalf("steal not visible in merged counters: %v", fo.Merged.Counters)
	}
	// Per-route latency histograms survive the merge under their route
	// labels — the series remedyctl status renders.
	if _, ok := fo.Merged.Histograms[`serve.http_duration_ms{route="POST /jobs"}`]; !ok {
		routes := make([]string, 0, len(fo.Merged.Histograms))
		for name := range fo.Merged.Histograms {
			routes = append(routes, name)
		}
		t.Fatalf("merged histograms missing POST /jobs route series: %v", routes)
	}

	close(entered)
}

// TestObsFleetEventsAndLag covers the cluster-health surfaces: the
// leader's /readyz reports per-follower replication lag, and
// /cluster/events records the steal life-cycle in a bounded ring.
func TestObsFleetEventsAndLag(t *testing.T) {
	ctx := context.Background()
	nodes := fleet(t, []string{"node-a", "node-b"}, func(id string, scfg *serve.Config, ccfg *Config) {
		scfg.Workers = 1
		ccfg.StealMax = 1
	})
	a, b := nodes["node-a"], nodes["node-b"]
	info := uploadCompas(t, a.client, 200, 7)
	syncFleet(t, ctx, a, b)

	resp, err := http.Get(a.http.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lag, ok := h.Lag["node-b"]
	if !ok || lag != 0 {
		t.Fatalf("leader /readyz lag = %v, want node-b at 0 after sync", h.Lag)
	}
	if g := a.srv.Metrics().Snapshot().Gauges[`cluster.replication_lag{peer="node-b"}`]; g != 0 {
		t.Fatalf("per-peer lag gauge = %v, want 0 after sync", g)
	}

	// Force a steal so the event log has a life-cycle to show.
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	faults.Set(faults.ServeJob, func(any) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })
	defer close(gate)
	if _, err := a.client.SubmitJob(ctx, serve.JobRequest{Kind: "train", DatasetID: info.ID, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	st2, err := a.client.SubmitJob(ctx, serve.JobRequest{Kind: "train", DatasetID: info.ID, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.node.Tick(ctx)
		b.node.Tick(ctx)
		if st, err := a.client.Job(ctx, st2.ID); err != nil {
			t.Fatal(err)
		} else if st.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stolen job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err = http.Get(a.http.URL + "/cluster/events")
	if err != nil {
		t.Fatal(err)
	}
	var ev struct {
		NodeID string           `json:"node_id"`
		Events []obs.EventEntry `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	kinds := map[string]int{}
	var lastSeq uint64
	for _, e := range ev.Events {
		kinds[e.Kind]++
		if e.Seq <= lastSeq {
			t.Fatalf("event seq not increasing: %+v", ev.Events)
		}
		lastSeq = e.Seq
	}
	if kinds["steal"] == 0 || kinds["steal-result"] == 0 {
		t.Fatalf("event log missing steal life-cycle: %v", kinds)
	}

	close(entered)
}
