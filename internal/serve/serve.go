// Package serve hosts the controller stack as a long-running multi-tenant
// service: an HTTP daemon that owns many concurrent board sessions, each an
// incrementally driven core.StepRun advanced by explicit step requests
// instead of a one-shot batch run (DESIGN.md §11).
//
// The API surface (docs/API.md is the full reference, replay-tested against
// this implementation):
//
//	POST   /v1/sessions            create a session (admission-controlled)
//	GET    /v1/sessions            list sessions
//	GET    /v1/sessions/{id}       session status + live result
//	POST   /v1/sessions/{id}/step  advance up to N control intervals
//	POST   /v1/sessions/{id}/trip  force a supervisor trip (operator cause)
//	GET    /v1/sessions/{id}/trace stream the flight-recorder trace as JSONL
//	DELETE /v1/sessions/{id}       close the session, freeing its slot
//	GET    /v1/metrics             metrics-registry snapshot (JSON)
//	GET    /healthz                liveness + drain state
//	GET    /debug/vars, /debug/pprof/*  expvar and live-profiling surface
//
// Admission control guards the front door: a per-tenant token bucket
// (Config.TenantRate/TenantBurst) rejects over-rate tenants with 429, and a
// global concurrent-session cap (Config.MaxSessions, a pool.Slots) rejects
// over-capacity creates with 429 — accepted sessions are never affected by
// rejected ones. Graceful drain (Server.Drain, wired to SIGTERM in
// cmd/yukta-serve) walks every live session through the supervisory layer's
// staged fallback — an operator-forced trip plus a settling walk — instead
// of dropping it mid-run.
//
// Determinism survives hosting: a session created with fixed options and
// stepped to completion produces a JSONL trace byte-identical to the batch
// core.Run of the same options (TestServeTraceMatchesBatch), because both
// paths execute the identical per-interval body and the recorder's JSONL
// export excludes wall-clock latency by default.
package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"yukta/internal/core"
	"yukta/internal/obs"
	"yukta/internal/pool"
)

// Config tunes the daemon. The zero value of every field except Platform is
// usable (defaults noted per field); Platform must be set.
type Config struct {
	// Platform is the identified platform every hosted session builds its
	// controller stack from. Synthesis results are cached single-flight on
	// the platform, so concurrent sessions of the same scheme share one
	// design. Required.
	Platform *core.Platform

	// Schemes maps API scheme names to controller stacks. Nil means
	// DefaultSchemes(Platform).
	Schemes map[string]core.Scheme

	// MaxSessions caps concurrently open sessions across all tenants
	// (the global admission slot pool). 0 means 64.
	MaxSessions int

	// TenantRate is each tenant's session-creation token refill rate, in
	// sessions per second. 0 means 4; negative disables per-tenant rate
	// limiting.
	TenantRate float64

	// TenantBurst is each tenant's token-bucket capacity — the number of
	// creates a fresh tenant may issue back-to-back before the rate applies.
	// 0 means 8.
	TenantBurst int

	// DrainSteps is how many control intervals Drain walks each live session
	// after forcing its supervisor trip, so the board settles under the
	// fallback's conservative posture before shutdown. 0 means 20.
	DrainSteps int

	// DrainParallelism bounds the worker fan-out of the drain walk (the same
	// bounded pool the experiment harness uses). 0 means runtime.NumCPU().
	DrainParallelism int

	// MaxStepsPerRequest caps the interval count of one step request, so a
	// single request cannot hold a session's lock for an unbounded run.
	// 0 means 10000.
	MaxStepsPerRequest int

	// DataDir enables durability: each session appends its create request
	// and every mutating operation to an fsync'd write-ahead log under
	// DataDir/sessions/, and Recover rebuilds live sessions from those logs
	// by deterministic re-execution after a crash (docs/OPERATIONS.md,
	// "Durability"). Empty keeps the pre-durability behavior: session state
	// is in-memory only and a restart loses it.
	DataDir string

	// IdleTTL enables the idle-session reaper: ReapIdle closes sessions no
	// client has touched for this long, releasing their global slot (and
	// discarding their log) instead of leaking capacity until restart.
	// 0 (the default) disables reaping.
	IdleTTL time.Duration

	// Metrics receives the server's counters and gauges (and, threaded into
	// every run, the per-scheme step-latency histograms). Nil creates a
	// fresh registry; read it back via Registry.
	Metrics *obs.Registry

	// Log receives the daemon's structured events — one request line per
	// HTTP request (correlation ID, status, per-stage latencies) plus
	// lifecycle events (session create/close, trips, drain, reap, recovery).
	// Nil discards everything; the simulation hot path is untouched either
	// way.
	Log *slog.Logger

	// Now is the admission bucket's clock, injectable for tests. Nil means
	// time.Now. Simulation determinism never depends on it.
	Now func() time.Time
}

// Server is the yukta-serve daemon: session table, admission control, and
// the HTTP handler over both. Create one with New.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	slots   *pool.Slots
	buckets *buckets
	mux     *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // creation order, for deterministic listing and drain
	nextID   int
	draining bool

	// recovering fences the API while leftover session logs await replay:
	// every /v1 endpoint answers 503 recovering until Recover completes, so
	// clients can never observe (or mutate) a half-recovered session table.
	recovering bool
	// pending lists the session log paths New found in DataDir, consumed by
	// Recover.
	pending []string
}

// New validates the configuration, applies defaults, and returns a ready
// Server (not yet listening — pair Handler with an http.Server).
func New(cfg Config) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("serve: Config.Platform is required")
	}
	if cfg.Schemes == nil {
		cfg.Schemes = DefaultSchemes(cfg.Platform)
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 64
	}
	if cfg.TenantRate == 0 {
		cfg.TenantRate = 4
	}
	if cfg.TenantBurst == 0 {
		cfg.TenantBurst = 8
	}
	if cfg.DrainSteps == 0 {
		cfg.DrainSteps = 20
	}
	if cfg.DrainParallelism == 0 {
		cfg.DrainParallelism = runtime.NumCPU()
	}
	if cfg.MaxStepsPerRequest == 0 {
		cfg.MaxStepsPerRequest = 10000
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(nopLogHandler{})
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Metrics,
		log:      cfg.Log,
		slots:    pool.NewSlots(cfg.MaxSessions),
		buckets:  newBuckets(cfg.TenantRate, cfg.TenantBurst, cfg.Now),
		sessions: map[string]*session{},
	}
	if cfg.DataDir != "" {
		pending, err := scanSessionLogs(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if len(pending) > 0 {
			// Leftover logs mean a previous daemon died owning live
			// sessions. Fence the API until Recover replays them; the
			// operator decides (cmd/yukta-serve -recover) whether that
			// happens or the daemon refuses to start.
			s.pending = pending
			s.recovering = true
		}
	}
	s.routes()
	return s, nil
}

// DefaultSchemes returns the scheme catalog the daemon serves by API name —
// the same names the yukta-sim CLI accepts.
func DefaultSchemes(p *core.Platform) map[string]core.Scheme {
	hp, op := core.DefaultHWParams(), core.DefaultOSParams()
	return map[string]core.Scheme{
		"coordinated":      p.CoordinatedHeuristic(),
		"decoupled":        p.DecoupledHeuristic(),
		"yukta-hw":         p.YuktaHWSSVOSHeuristic(hp),
		"yukta-full":       p.YuktaFullSSV(hp, op),
		"yukta-supervised": p.SupervisedYuktaSSV(hp, op),
		"lqg-mono":         p.MonolithicLQG(),
		"lqg-decoupled":    p.DecoupledLQG(),
	}
}

// Registry returns the server's metrics registry (for expvar publication or
// direct inspection).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP handler: the /v1 API, /healthz, the
// Prometheus exposition at /metrics, and the pprof endpoints under
// /debug/pprof/ — all wrapped in the request-telemetry layer (correlation
// IDs, stage spans, one structured request log line per request).
func (s *Server) Handler() http.Handler { return s.telemetry(s.mux) }

// routes installs the endpoint table. Every /v1 handler sits behind the
// recovery fence: while leftover session logs await replay the daemon
// answers 503 recovering, so traffic can never observe a half-recovered
// session table (only /healthz answers, reporting the recovery).
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions", s.fenced(s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.fenced(s.handleList))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.fenced(s.handleGet))
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.fenced(s.handleStep))
	s.mux.HandleFunc("POST /v1/sessions/{id}/trip", s.fenced(s.handleTrip))
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.fenced(s.handleTrace))
	s.mux.HandleFunc("GET /v1/sessions/{id}/watch", s.fenced(s.handleWatch))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.fenced(s.handleDelete))
	s.mux.HandleFunc("GET /v1/metrics", s.fenced(s.handleMetrics))
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// errorBody is the uniform error envelope of every non-2xx API response.
type errorBody struct {
	// Error is a human-readable description of what was rejected and why.
	Error string `json:"error"`
	// Code is a stable machine-readable reason: "bad_request",
	// "unknown_session", "rate_limited", "capacity", "draining",
	// "not_supervised", "recovering", "stale_seq", "wal_error", "no_trace".
	Code string `json:"code"`
}

// fenced wraps a /v1 handler with the crash-recovery startup fence.
func (s *Server) fenced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		recovering := s.recovering
		s.mu.Unlock()
		if recovering {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "recovering",
				"daemon is replaying session logs; retry shortly")
			return
		}
		h(w, r)
	}
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// decodeBody decodes a request body into v and rejects any field v does
// not declare, so a misspelt field is a 400 naming it rather than a silent
// default. (WAL recovery decodes leniently: logs written by earlier
// versions must still replay.)
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// createBody is the create endpoint's wire form: a CreateRequest plus the
// retired engine field, which older clients still send and which is
// accepted and ignored.
type createBody struct {
	CreateRequest
	Engine json.RawMessage `json:"engine"`
}

// handleCreate is POST /v1/sessions: admission control, then session birth.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var body createBody
	if err := decodeBody(r, &body); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return
	}
	req := body.CreateRequest
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	span := spanFrom(r.Context())
	admit := time.Now()
	// Admission gate 1: the daemon is draining — no new work.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining", "daemon is draining; not accepting sessions")
		return
	}
	// Admission gate 2: per-tenant token bucket.
	if ok, retry := s.buckets.take(tenant); !ok {
		s.reg.Counter("serve_rejected_rate_total/" + tenant).Add(1)
		s.log.Info("session rejected", "tenant", tenant, "code", "rate_limited",
			"request_id", requestID(r.Context()))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds())+1))
		writeError(w, http.StatusTooManyRequests, "rate_limited",
			"tenant %q is over its session-creation rate; retry after %v", tenant, retry.Round(time.Millisecond))
		return
	}
	// Admission gate 3: global concurrent-session cap.
	if !s.slots.Acquire() {
		s.reg.Counter("serve_rejected_capacity_total").Add(1)
		s.log.Info("session rejected", "tenant", tenant, "code", "capacity",
			"request_id", requestID(r.Context()))
		writeError(w, http.StatusTooManyRequests, "capacity",
			"all %d session slots are in use; close or finish a session first", s.slots.Cap())
		return
	}
	span.Add("admission", time.Since(admit))
	sess, err := s.newSession(tenant, req)
	if err != nil {
		s.slots.Release()
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.reg.Counter("serve_sessions_created_total/" + tenant).Add(1)
	s.reg.Gauge("serve_sessions_live").Set(int64(s.slots.InUse()))
	s.log.Info("session created", "session", sess.id, "tenant", tenant,
		"scheme", sess.scheme, "app", sess.app, "request_id", requestID(r.Context()))
	writeJSON(w, http.StatusCreated, sess.info())
}

// handleList is GET /v1/sessions.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]SessionInfo, 0, len(s.order))
	for _, id := range s.order {
		if sess := s.sessions[id]; sess != nil {
			infos = append(infos, sess.info())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ListResponse{Sessions: infos})
}

// lookup resolves a session path ID, writing the 404 envelope when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "unknown_session", "no session %q", id)
		return nil
	}
	return sess
}

// handleGet is GET /v1/sessions/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		sess.touch(s.cfg.Now())
		writeJSON(w, http.StatusOK, sess.info())
	}
}

// handleStep is POST /v1/sessions/{id}/step.
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	var req StepRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		return
	}
	if req.Steps <= 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "steps must be positive, got %d", req.Steps)
		return
	}
	if req.Seq < 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "seq must be non-negative, got %d", req.Seq)
		return
	}
	n := req.Steps
	if n > s.cfg.MaxStepsPerRequest {
		n = s.cfg.MaxStepsPerRequest
	}
	resp, executed, cached, errCode := sess.step(r.Context(), n, req.Seq, s.cfg.Now())
	switch errCode {
	case "stale_seq":
		writeError(w, http.StatusConflict, "stale_seq",
			"seq %d is behind the session's last applied sequence number", req.Seq)
		return
	case "wal_error":
		s.reg.Counter("serve_wal_errors_total").Add(1)
		writeError(w, http.StatusInternalServerError, "wal_error",
			"session %s cannot append to its write-ahead log; the session is wedged", sess.id)
		return
	}
	if !cached {
		s.reg.Counter("serve_steps_total").Add(int64(executed))
		s.reg.Counter("serve_steps_total/" + sess.tenant).Add(int64(executed))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrip is POST /v1/sessions/{id}/trip.
func (s *Server) handleTrip(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	forced, walOK := sess.forceTrip(s.cfg.Now())
	if !walOK {
		s.reg.Counter("serve_wal_errors_total").Add(1)
		writeError(w, http.StatusInternalServerError, "wal_error",
			"session %s cannot append to its write-ahead log; the session is wedged", sess.id)
		return
	}
	if !forced {
		writeError(w, http.StatusConflict, "not_supervised",
			"session %s cannot trip: scheme is unsupervised or the run already finished", sess.id)
		return
	}
	s.reg.Counter("serve_trips_forced_total").Add(1)
	s.log.Info("trip forced", "session", sess.id, "tenant", sess.tenant,
		"request_id", requestID(r.Context()))
	writeJSON(w, http.StatusOK, TripResponse{Forced: true, SupState: sess.supState()})
}

// handleTrace is GET /v1/sessions/{id}/trace: the session's flight-recorder
// trace streamed as JSONL in the obs.Record schema (obs.ValidateJSONL
// accepts it; byte-identical to the batch run of the same options).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	sess.touch(s.cfg.Now())
	w.Header().Set("Content-Type", "application/x-ndjson")
	var err error
	spanFrom(r.Context()).Time("trace_encode", func() {
		err = sess.writeTrace(w)
	})
	if err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleDelete is DELETE /v1/sessions/{id}. The session's write-ahead log
// is removed with it: an explicit close discards state on purpose, so the
// next recovery has nothing to replay for it.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.unregister(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "unknown_session", "no session %q", id)
		return
	}
	sess.closeWatchers()
	if err := sess.removeLog(); err != nil {
		s.log.Warn("session log removal not durable", "session", id, "err", err)
	}
	s.slots.Release()
	s.reg.Counter("serve_sessions_closed_total").Add(1)
	s.reg.Gauge("serve_sessions_live").Set(int64(s.slots.InUse()))
	s.log.Info("session closed", "session", id, "tenant", sess.tenant,
		"request_id", requestID(r.Context()))
	writeJSON(w, http.StatusOK, CloseResponse{Closed: true, ID: id})
}

// handleMetrics is GET /v1/metrics: the registry snapshot (the same data the
// expvar publication exposes), with names sorted for stable output.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	// Emit in sorted order for humans; JSON objects are unordered, so build
	// the document by hand to keep the rendering deterministic.
	var b strings.Builder
	b.WriteString("{\n")
	for i, name := range names {
		val, err := json.Marshal(snap[name])
		if err != nil {
			continue
		}
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "  %q: %s", name, val)
	}
	b.WriteString("\n}\n")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(b.String()))
}

// handlePromMetrics is GET /metrics: the registry rendered in the
// Prometheus text exposition format. It is the same live registry the JSON
// snapshot (/v1/metrics) and the expvar publication read, rendered by
// obs.WritePrometheus — single source, so the views cannot drift (gated by
// the serve drift test). Like /healthz it answers behind the recovery fence:
// scraping must work while a recovery is in flight.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleHealthz is GET /healthz. It answers even behind the recovery fence
// — status "recovering" — so orchestrators and waiting clients can watch
// the replay finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	recovering := s.recovering
	n := len(s.sessions)
	s.mu.Unlock()
	status := "ok"
	if recovering {
		status = "recovering"
	}
	version, goVersion := BuildInfo()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   status,
		Sessions: n,
		Draining: draining,
		Version:  version,
		Go:       goVersion,
	})
}
