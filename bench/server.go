package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"

	"repro/internal/durable"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The datasets the serving workloads upload are synthetic COMPAS.
const compasTarget = "two_year_recid"

var compasProtected = []string{"age", "race", "sex"}

// serveTenants share the server 3:1 by weight; arrivals split the same
// way.
var serveTenants = map[string]serve.TenantConfig{"team-a": {Weight: 3}, "team-b": {Weight: 1}}

// serveConfig is the server under test: one worker per CPU, default
// queue depth and response cache.
func serveConfig() serve.Config {
	return serve.Config{Workers: runtime.GOMAXPROCS(0), Tenants: serveTenants}
}

// compasCSV generates n rows of synthetic COMPAS as upload bytes.
func compasCSV(n int, seed int64) ([]byte, error) {
	var b bytes.Buffer
	if err := synth.CompasN(n, seed).WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// server is an in-process durable remedyd with journal fsync on, served
// over a loopback listener. Its HTTP client holds at most one
// connection per CPU.
type server struct {
	store  *durable.Store
	srv    *serve.Server
	hs     *http.Server
	served sync.WaitGroup
	url    string
	http   *http.Client
}

func startServer(ctx context.Context, dir string) (*server, error) {
	store, err := durable.Open(ctx, dir, true)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewDurable(ctx, serveConfig(), store)
	if err != nil {
		return nil, errors.Join(err, store.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(ctx), store.Close())
	}
	n := runtime.GOMAXPROCS(0)
	s := &server{
		store: store, srv: srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}},
	}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		// Serve returns http.ErrServerClosed once stop shuts it down.
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// client returns an API client stamping the given tenant.
func (s *server) client(tenant string) *serve.Client {
	c := serve.NewClient(s.url)
	c.HTTP = s.http
	c.Tenant = tenant
	return c
}

// stop shuts the listener, drains the engine and closes the journal.
// The data dir is left in place.
func (s *server) stop(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	s.served.Wait()
	s.http.CloseIdleConnections()
	return errors.Join(err, s.srv.Shutdown(ctx), s.store.Close())
}

// jobsDigest fingerprints GET /jobs: each job's identity, kind,
// dataset, state, error and attempts, in ID order. Timestamps and
// progress counters are left out; a restart does not keep them. The
// listing order is left out too: a live server lists jobs by ID, a
// recovered one by journal order, and concurrent submissions can reach
// the journal out of ID order.
func jobsDigest(h http.Handler) (string, int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	if rec.Code != http.StatusOK {
		return "", 0, fmt.Errorf("GET /jobs: status %d", rec.Code)
	}
	var jobs []serve.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &jobs); err != nil {
		return "", 0, fmt.Errorf("GET /jobs: %w", err)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	sum := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(sum, "%s|%s|%s|%s|%s|%d\n", j.ID, j.Kind, j.DatasetID, j.State, j.Error, j.Attempts)
	}
	return hexSum(sum), len(jobs), nil
}
