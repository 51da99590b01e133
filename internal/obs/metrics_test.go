package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race (go test -race ./internal/obs/...) this also proves the increment path is
// synchronization-clean.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent checks the CAS-summed histogram under
// contention: counts must be exact and the sum must match.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram("lat", []float64{1, 10, 100})
			for i := 0; i < perWorker; i++ {
				h.Observe(5)
			}
		}()
	}
	wg.Wait()
	h := r.Histogram("lat", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	if h.Sum() != 5*workers*perWorker {
		t.Fatalf("sum = %v, want %v", h.Sum(), 5*workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100})
	for _, v := range []float64{1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []int64{3, 1, 1} // <=10: 1,5,10; <=100: 50; overflow: 1000
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(7)
	r.Gauge("b.gauge").Set(2.5)
	r.Histogram("c.hist", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["a.count"] != 7 || s.Gauges["b.gauge"] != 2.5 || s.Histograms["c.hist"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}

// TestNilRegistrySafe asserts the whole nil-receiver contract: every
// instrument obtained from a nil registry must be usable.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	if r.Counter("x").Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	r.Gauge("g").Set(1)
	if r.Gauge("g").Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	r.Histogram("h", []float64{1}).Observe(1)
	if n := r.Histogram("h", nil).Count(); n != 0 {
		t.Fatalf("nil histogram count = %d", n)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}
