package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// routes builds the server's mux. All routing uses the standard
// library's method-and-wildcard patterns; there is no framework. Every
// route is registered through obs.InstrumentHandler, so each one gets
// a latency histogram, an in-flight gauge, and a status-class counter
// labeled by the pattern string (bounded cardinality: patterns, not
// URLs).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		mux.Handle(pattern, obs.InstrumentHandler(s.metrics, pattern, h))
	}
	handle("POST /datasets", http.HandlerFunc(s.handleDatasetUpload))
	handle("GET /datasets", http.HandlerFunc(s.handleDatasetList))
	handle("GET /datasets/{id}", http.HandlerFunc(s.handleDatasetGet))
	handle("DELETE /datasets/{id}", http.HandlerFunc(s.handleDatasetDelete))
	handle("POST /jobs", http.HandlerFunc(s.handleJobSubmit))
	handle("GET /jobs", http.HandlerFunc(s.handleJobList))
	handle("GET /jobs/{id}", http.HandlerFunc(s.handleJobGet))
	handle("DELETE /jobs/{id}", http.HandlerFunc(s.handleJobCancel))
	handle("GET /jobs/{id}/result", http.HandlerFunc(s.handleJobResult))
	handle("GET /jobs/{id}/trace", http.HandlerFunc(s.handleJobTrace))
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /livez", http.HandlerFunc(s.handleLivez))
	handle("GET /readyz", http.HandlerFunc(s.handleReadyz))
	handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	handle("GET /metrics/fleet", http.HandlerFunc(s.handleMetricsFleet))
	return mux
}

// infraPath reports whether the path is a probe/ops endpoint that must
// answer locally on every node: never gated on readiness, never
// forwarded to the leader.
func infraPath(p string) bool {
	return p == "/livez" || p == "/readyz" || p == "/healthz" || p == "/metrics"
}

// forwardedHeader marks a request a follower forwarded to its leader;
// a forwarded request is never forwarded again (loop prevention).
const forwardedHeader = "X-Remedy-Forwarded"

// Handler returns the server's HTTP handler with request accounting,
// the readiness gate, and — in a cluster — follower-to-leader
// forwarding wrapped around the routes.
func (s *Server) Handler() http.Handler {
	mux := s.routes()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:allow determinism request latency metric; the serving layer is wall-clock by nature
		s.metrics.Counter("serve.http_requests").Inc()
		defer func() {
			s.metrics.Histogram("serve.http_duration_ms", obs.DefaultDurationBucketsMS).
				Observe(float64(time.Since(start).Milliseconds()))
		}()
		// Continue an incoming cross-node trace: the headers carry the
		// trace identity, the forwarding header names the relaying hop.
		if tc, ok := obs.ExtractHTTP(r.Header); ok {
			tc.Via = r.Header.Get(forwardedHeader)
			r = r.WithContext(obs.WithTraceContext(r.Context(), tc))
		}
		if !infraPath(r.URL.Path) {
			// Forwarding comes before the readiness gate: a standby
			// follower is not ready to serve from its own engine, but the
			// fleet is — any node can take traffic as long as it knows the
			// leader.
			if s.forwardToLeader(w, r) {
				return
			}
			if ready, reason := s.Readiness(); !ready {
				// Not-ready wears the same clothes as backpressure: 503 with
				// a Retry-After, so the retrying Client backs off and tries
				// again instead of failing the request.
				s.metrics.Counter("serve.not_ready_rejected").Inc()
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "serve: not ready: " + reason})
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// forwardToLeader proxies API traffic hitting a follower to the
// current leader, so clients can point at any node. It reports whether
// it handled the request.
func (s *Server) forwardToLeader(w http.ResponseWriter, r *http.Request) bool {
	if s.cluster == nil {
		return false
	}
	role, _, _ := s.cluster.Role()
	if role == "leader" {
		return false
	}
	if r.Header.Get(forwardedHeader) != "" {
		// A forwarded request landing on a non-leader means the fleet's
		// view of the leader is stale mid-handoff; bounce, don't loop.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "serve: not the leader"})
		return true
	}
	leaderURL := s.cluster.LeaderURL()
	if leaderURL == "" {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "serve: leader unknown"})
		return true
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, leaderURL+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeError(w, err)
		return true
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, s.cfg.NodeID)
	if _, ok := obs.ExtractHTTP(r.Header); !ok {
		// This hop starts the trace: mint a deterministic ID from the
		// node's forward sequence (no entropy, no clock) so the
		// submission correlates on the leader and the forwarding node is
		// visible in the stitched timeline instead of being a silent hop.
		obs.InjectHTTP(req.Header, obs.TraceContext{
			TraceID: fmt.Sprintf("%s/fwd-%06d", s.cfg.NodeID, s.fwdSeq.Add(1)),
		})
	}
	hc := s.forward
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: "serve: forward to leader: " + err.Error()})
		return true
	}
	defer resp.Body.Close() //lint:allow errdiscard read-only close carries no information
	s.metrics.Counter("serve.requests_forwarded").Inc()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) //lint:allow errdiscard best-effort relay to a disconnecting client
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //lint:allow errdiscard best-effort write to a disconnecting client
}

// writeError maps the library's sentinel errors onto HTTP statuses:
// missing resources are 404, a full queue is 429 (backpressure, with a
// Retry-After hint for well-behaved clients), an over-budget upload is
// 413, a pinned-full registry is 507, shutdown is 503, conflicts are
// 409, a result lost to a restart is 410, and anything else from
// request handling is a 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrDatasetNotFound), errors.Is(err, ErrJobNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		status = http.StatusTooManyRequests
		// The Retry-After is derived, not constant: queue depth over
		// drain rate for a full queue, token-refill time for a throttled
		// tenant, both clamped to [1, 60]s by the engine.
		ra := "1"
		var rae *RetryAfterError
		if errors.As(err, &rae) && rae.Seconds > 0 {
			ra = strconv.Itoa(rae.Seconds)
		}
		w.Header().Set("Retry-After", ra)
	case errors.Is(err, dataset.ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrRegistryFull):
		status = http.StatusInsufficientStorage
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrDatasetBusy), errors.Is(err, ErrJobNotDone):
		status = http.StatusConflict
	case errors.Is(err, ErrResultGone):
		status = http.StatusGone
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// handleDatasetUpload is POST /datasets?target=...&protected=a,b[&name=...]
// with the CSV as the request body, streamed through the size caps.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	target := q.Get("target")
	if target == "" {
		writeError(w, errors.New("query parameter target is required"))
		return
	}
	var protected []string
	if p := q.Get("protected"); p != "" {
		protected = strings.Split(p, ",")
	}
	if len(protected) == 0 {
		writeError(w, errors.New("query parameter protected is required (comma-separated attribute names)"))
		return
	}
	info, err := s.registry.Put(r.Context(), r.Body, q.Get("name"), target, protected)
	if err != nil {
		writeError(w, err)
		return
	}
	s.metrics.Counter("serve.datasets_uploaded").Inc()
	s.metrics.Histogram("serve.upload_bytes", []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}).
		Observe(float64(info.Bytes))
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleDatasetList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	detail, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, detail)
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.registry.Delete(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJobSubmit is POST /jobs with a JobRequest body. The request
// is validated and the dataset reference acquired before the job is
// queued, so a queued job can always run; a full queue is an
// immediate 429.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, err)
		return
	}
	// The transport header wins over a tenant named in the body: the
	// header is what the retrying Client stamps and what a forwarding
	// follower relays verbatim.
	if t := r.Header.Get(TenantHeader); t != "" {
		req.Tenant = t
	}
	if _, err := validateRequest(req); err != nil {
		writeError(w, err)
		return
	}
	_, release, err := s.registry.Acquire(req.DatasetID)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := s.engine.Submit(r.Context(), req, release)
	if err != nil {
		// Submit released the dataset reference already.
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Cancel(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult is GET /jobs/{id}/result: the job's typed result
// payload once done, 409 while it is still queued or running, and the
// error detail for failed/cancelled jobs.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	j.mu.Lock()
	state, res, errMsg := j.rec.State, j.result, j.rec.Error
	j.mu.Unlock()
	switch state {
	case StateDone:
		if res == nil {
			// Recovered history: the journal proves the job finished, but
			// result payloads are not retained across restarts.
			writeError(w, fmt.Errorf("%w: %s", ErrResultGone, j.id))
			return
		}
		writeJSON(w, http.StatusOK, res)
	case StateFailed, StateCancelled:
		writeJSON(w, http.StatusOK, struct {
			State State  `json:"state"`
			Error string `json:"error"`
		}{state, errMsg})
	default:
		writeError(w, fmt.Errorf("%w: state %s", ErrJobNotDone, state))
	}
}

// handleJobTrace serves the job's span tree as JSON — the per-job
// equivalent of remedyctl -trace-out.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = j.tracer.WriteJSON(w) //lint:allow errdiscard best-effort write to a disconnecting client
}

// handleMetrics serves the server-level registry: indented JSON by
// default, the Prometheus text exposition with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.Snapshot().WriteProm(w) //lint:allow errdiscard best-effort write to a disconnecting client
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.WriteJSON(w) //lint:allow errdiscard best-effort write to a disconnecting client
}

// handleMetricsFleet serves the fleet-wide observability view. On a
// clustered leader the installed aggregator fans out to every node; a
// follower never answers this itself (the path is not an infraPath, so
// it forwards to the leader); a single node serves a fleet of one.
// ?format=prom serves the merged registry as text exposition.
func (s *Server) handleMetricsFleet(w http.ResponseWriter, r *http.Request) {
	var fo FleetObs
	if s.fleetObs != nil {
		var err error
		fo, err = s.fleetObs(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
	} else {
		local := s.LocalNodeObs()
		fo = FleetObs{
			Leader: local.NodeID,
			Term:   local.Term,
			Nodes:  []NodeObs{local},
			Merged: obs.MergeSnapshots(map[string]obs.Snapshot{local.NodeID: local.Metrics}),
		}
	}
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = fo.Merged.WriteProm(w) //lint:allow errdiscard best-effort write to a disconnecting client
		return
	}
	writeJSON(w, http.StatusOK, fo)
}

// health assembles the shared /healthz / /readyz body.
func (s *Server) health() Health {
	queued, running := s.engine.counts()
	ready, reason := s.Readiness()
	h := Health{
		Status:   "ok",
		Datasets: s.registry.Len(),
		Queued:   queued,
		Running:  running,
		Ready:    ready,
		Reason:   reason,
		NodeID:   s.cfg.NodeID,
	}
	if !ready {
		h.Status = "not ready"
	}
	if s.cluster != nil {
		h.Role, h.Term, h.Leader = s.cluster.Role()
		if fl, ok := s.cluster.(FleetLag); ok {
			h.Lag = fl.FollowerLag()
		}
	}
	h.Tenants = s.engine.queue.tenantHealth()
	if s.store != nil {
		st := s.store.Stats(obs.WithMetrics(context.Background(), s.metrics))
		h.Store = &st
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleLivez is pure liveness: if the process can answer, it is
// alive. Restart-worthy conditions (a wedged process) are exactly the
// ones that fail to produce this response.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"alive"})
}

// handleReadyz is the readiness probe: 200 when the node can serve,
// 503 with the reason (and a Retry-After hint) while it is replaying
// its journal, holds no cluster term, or has been deposed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	if !h.Ready {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}
