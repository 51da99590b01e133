package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// netHarness is one receiver node: an httptest server counting the
// requests that actually arrived.
type netHarness struct {
	srv  *httptest.Server
	hits atomic.Int64
}

func newNetHarness(t *testing.T) *netHarness {
	t.Helper()
	h := &netHarness{}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		_, _ = w.Write(body)
	}))
	t.Cleanup(h.srv.Close)
	return h
}

func (h *netHarness) host(t *testing.T) string {
	t.Helper()
	u, err := url.Parse(h.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

func TestNetFaultsPassThroughWithoutRules(t *testing.T) {
	b := newNetHarness(t)
	nf := NewNetFaults(stats.NewRNG(1))
	client := nf.Client("node-a", map[string]string{b.host(t): "node-b"}, nil)

	resp, err := client.Post(b.srv.URL+"/x", "text/plain", strings.NewReader("ping"))
	if err != nil {
		t.Fatalf("fault-free request failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ping" || b.hits.Load() != 1 {
		t.Fatalf("got body %q hits %d, want ping/1", body, b.hits.Load())
	}
}

func TestNetFaultsPartitionAndHeal(t *testing.T) {
	b := newNetHarness(t)
	nf := NewNetFaults(stats.NewRNG(1))
	client := nf.Client("node-a", map[string]string{b.host(t): "node-b"}, nil)

	nf.Partition("node-a", "node-b")
	_, err := client.Get(b.srv.URL + "/x")
	if err == nil || !errors.Is(errors.Unwrap(urlErr(t, err)), ErrNetDropped) && !strings.Contains(err.Error(), ErrNetDropped.Error()) {
		t.Fatalf("partitioned request error = %v, want ErrNetDropped", err)
	}
	if b.hits.Load() != 0 {
		t.Fatalf("partitioned request reached the receiver (%d hits)", b.hits.Load())
	}
	if c := nf.CountsFor("node-a", "node-b"); c.Dropped != 1 {
		t.Fatalf("dropped count = %d, want 1", c.Dropped)
	}

	nf.Heal("node-a", "node-b")
	resp, err := client.Get(b.srv.URL + "/x")
	if err != nil {
		t.Fatalf("healed request failed: %v", err)
	}
	resp.Body.Close()
	if b.hits.Load() != 1 {
		t.Fatalf("healed request did not arrive (%d hits)", b.hits.Load())
	}
}

// urlErr unwraps the *url.Error the http client wraps transport errors
// in.
func urlErr(t *testing.T, err error) error {
	t.Helper()
	var ue *url.Error
	if errors.As(err, &ue) {
		return ue
	}
	return err
}

func TestNetFaultsPartitionOneWayIsAsymmetric(t *testing.T) {
	a, b := newNetHarness(t), newNetHarness(t)
	nf := NewNetFaults(stats.NewRNG(1))
	hosts := map[string]string{a.host(t): "node-a", b.host(t): "node-b"}
	fromA := nf.Client("node-a", hosts, nil)
	fromB := nf.Client("node-b", hosts, nil)

	nf.PartitionOneWay("node-a", "node-b")
	if _, err := fromA.Get(b.srv.URL + "/x"); err == nil {
		t.Fatal("a→b should be blackholed")
	}
	resp, err := fromB.Get(a.srv.URL + "/x")
	if err != nil {
		t.Fatalf("b→a should pass: %v", err)
	}
	resp.Body.Close()
	if a.hits.Load() != 1 || b.hits.Load() != 0 {
		t.Fatalf("hits a=%d b=%d, want 1/0", a.hits.Load(), b.hits.Load())
	}
}

func TestNetFaultsDropScheduleIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		b := newNetHarness(t)
		nf := NewNetFaults(stats.NewRNG(seed))
		nf.SetRule("node-a", "node-b", Rule{Drop: 0.5})
		client := nf.Client("node-a", map[string]string{b.host(t): "node-b"}, nil)
		var outcomes []bool
		for i := 0; i < 32; i++ {
			resp, err := client.Get(b.srv.URL + "/x")
			if err == nil {
				resp.Body.Close()
			}
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	first, second := run(7), run(7)
	delivered := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d: seed 7 gave different outcomes across runs", i)
		}
		if first[i] {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(first) {
		t.Fatalf("drop 0.5 delivered %d/%d; schedule is not mixing", delivered, len(first))
	}
}

func TestNetFaultsDuplicateDeliversTwice(t *testing.T) {
	b := newNetHarness(t)
	nf := NewNetFaults(stats.NewRNG(1))
	nf.SetRule("node-a", "node-b", Rule{Dup: 1})
	client := nf.Client("node-a", map[string]string{b.host(t): "node-b"}, nil)

	resp, err := client.Post(b.srv.URL+"/x", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatalf("duplicated request failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "payload" {
		t.Fatalf("kept response body = %q, want the echo", body)
	}
	if b.hits.Load() != 2 {
		t.Fatalf("receiver saw %d deliveries, want 2", b.hits.Load())
	}
	if c := nf.CountsFor("node-a", "node-b"); c.Duplicate != 1 {
		t.Fatalf("duplicate count = %d, want 1", c.Duplicate)
	}
}

func TestNetFaultsDelayDelivers(t *testing.T) {
	b := newNetHarness(t)
	nf := NewNetFaults(stats.NewRNG(1))
	nf.SetRule("node-a", "node-b", Rule{Delay: 1, DelayFor: time.Millisecond})
	client := nf.Client("node-a", map[string]string{b.host(t): "node-b"}, nil)

	resp, err := client.Get(b.srv.URL + "/x")
	if err != nil {
		t.Fatalf("delayed request failed: %v", err)
	}
	resp.Body.Close()
	if b.hits.Load() != 1 {
		t.Fatalf("delayed request did not arrive (%d hits)", b.hits.Load())
	}
	if c := nf.CountsFor("node-a", "node-b"); c.Delayed != 1 {
		t.Fatalf("delayed count = %d, want 1", c.Delayed)
	}
}

func TestNetFaultsUnmappedHostPassesThrough(t *testing.T) {
	b := newNetHarness(t)
	nf := NewNetFaults(stats.NewRNG(1))
	nf.Partition("node-a", "node-b") // irrelevant: b's host is not mapped
	client := nf.Client("node-a", map[string]string{}, nil)

	resp, err := client.Get(b.srv.URL + "/x")
	if err != nil {
		t.Fatalf("unmapped-host request failed: %v", err)
	}
	resp.Body.Close()
	if b.hits.Load() != 1 {
		t.Fatalf("unmapped-host request did not arrive (%d hits)", b.hits.Load())
	}
}
