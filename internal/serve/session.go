package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// CreateRequest is the POST /v1/sessions body. Every field except Scheme and
// App is optional; zero values select the documented defaults. The tuple
// (Scheme, App, FaultClass, FaultIntensity, FaultSeed, IntervalMS, MaxTimeS)
// fully determines the session's simulation — two sessions created with
// equal tuples produce byte-identical traces, and both match the batch
// core.Run of the same options.
type CreateRequest struct {
	// Tenant is the caller's admission-control identity; each tenant has its
	// own token bucket and per-tenant counters. Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Scheme is the controller stack by API name (see DefaultSchemes):
	// coordinated, decoupled, yukta-hw, yukta-full, yukta-supervised,
	// lqg-mono, lqg-decoupled. Required.
	Scheme string `json:"scheme"`
	// App is the workload name (a benchmark application or a heterogeneous
	// mix: blmc, stga, blst, mcga). Required.
	App string `json:"app"`
	// FaultClass selects a fault-injection campaign class: noise, dropout,
	// actuator, thermal, phase, or all (fault.ClassNames). Empty means a
	// clean run.
	FaultClass string `json:"fault_class,omitempty"`
	// FaultIntensity scales the campaign (1.0 = the harness's harshest
	// default grid point). 0 with a FaultClass set means 1.0.
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	// FaultSeed is the campaign's base seed; per-session streams derive from
	// (seed, fault.RunKey(scheme, app)). 0 means 1.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// IntervalMS is the control interval in milliseconds. 0 means 500 (the
	// paper's §V-A interval).
	IntervalMS int `json:"interval_ms,omitempty"`
	// MaxTimeS bounds the simulated run time in seconds. 0 means 1200.
	MaxTimeS float64 `json:"max_time_s,omitempty"`
	// TraceCapacity is the flight-recorder ring capacity in control
	// intervals (the trace endpoint streams the retained window). 0 means
	// obs.DefaultCapacity; -1 disables tracing entirely.
	TraceCapacity int `json:"trace_capacity,omitempty"`
}

// SessionInfo is the session-status document (create response and GET
// session body).
type SessionInfo struct {
	// ID is the server-assigned session identifier ("s-1", "s-2", ...).
	ID string `json:"id"`
	// Tenant is the owning tenant.
	Tenant string `json:"tenant"`
	// Scheme echoes the API scheme name the session runs.
	Scheme string `json:"scheme"`
	// App echoes the workload name.
	App string `json:"app"`
	// Supervised reports whether the scheme carries the supervisory safety
	// layer (and therefore supports the trip endpoint and a staged drain).
	Supervised bool `json:"supervised"`
	// Steps is the number of control intervals executed so far.
	Steps int `json:"steps"`
	// MaxSteps is the step bound implied by max_time_s / interval_ms.
	MaxSteps int `json:"max_steps"`
	// Done reports run completion (workload finished or MaxSteps reached).
	Done bool `json:"done"`
	// Drained reports that the daemon's graceful drain walked this session
	// through the supervisor fallback.
	Drained bool `json:"drained"`
	// SupState is the supervisory state the next interval runs under
	// (nominal, suspect, fallback, recovering); empty for unsupervised
	// schemes.
	SupState string `json:"sup_state,omitempty"`
	// Result is the run's measurements so far (canonical once Done).
	Result ResultInfo `json:"result"`
}

// ResultInfo is the JSON shape of a session's core.RunResult.
type ResultInfo struct {
	// Completed reports whether the workload ran to completion.
	Completed bool `json:"completed"`
	// TimeS is the simulated completion time (delay D), in seconds.
	TimeS float64 `json:"time_s"`
	// EnergyJ is the consumed energy E, in joules.
	EnergyJ float64 `json:"energy_j"`
	// ExDJS is the E×D product, in J·s.
	ExDJS float64 `json:"exd_js"`
	// Emergencies counts firmware emergency-throttle events.
	Emergencies int `json:"emergencies"`
	// FaultsInjected sums the faults delivered across all classes.
	FaultsInjected int `json:"faults_injected"`
	// Trips counts confirmed supervisor trips (supervised schemes only).
	Trips int `json:"trips"`
	// Recoveries counts completed trip-to-nominal round trips.
	Recoveries int `json:"recoveries"`
	// FallbackSteps counts intervals the fallback held authority.
	FallbackSteps int `json:"fallback_steps"`
}

// ListResponse is the GET /v1/sessions body.
type ListResponse struct {
	// Sessions lists every open session in creation order.
	Sessions []SessionInfo `json:"sessions"`
}

// StepRequest is the POST /v1/sessions/{id}/step body.
type StepRequest struct {
	// Steps is how many control intervals to advance (capped by the server's
	// MaxStepsPerRequest; must be positive).
	Steps int `json:"steps"`
	// Seq is an optional client idempotency sequence number, strictly
	// increasing per session. A request retried with the sequence number the
	// server last applied returns the recorded outcome without advancing the
	// run again, so a client that lost a response (timeout, daemon crash) can
	// retry safely; a sequence number older than the last applied one is
	// rejected with 409 stale_seq. 0 (or omitted) disables idempotency for
	// the request.
	Seq int64 `json:"seq,omitempty"`
}

// StepResponse is the step endpoint's body.
type StepResponse struct {
	// Executed is how many intervals actually ran (less than requested at
	// completion or the per-request cap; 0 when the run was already done).
	Executed int `json:"executed"`
	// Steps is the session's total executed interval count.
	Steps int `json:"steps"`
	// Done reports run completion.
	Done bool `json:"done"`
	// SupState is the supervisory state after the advance (empty for
	// unsupervised schemes).
	SupState string `json:"sup_state,omitempty"`
}

// TripResponse is the trip endpoint's body.
type TripResponse struct {
	// Forced confirms the trip was armed: the next stepped interval runs
	// under the fallback with a bumpless transfer.
	Forced bool `json:"forced"`
	// SupState is the supervisory state at response time (the transfer
	// lands on the next step request).
	SupState string `json:"sup_state,omitempty"`
}

// CloseResponse is the DELETE /v1/sessions/{id} body.
type CloseResponse struct {
	// Closed confirms removal.
	Closed bool `json:"closed"`
	// ID echoes the closed session's identifier.
	ID string `json:"id"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok" while the daemon serves traffic, "recovering" while
	// leftover session logs are being replayed behind the startup fence.
	Status string `json:"status"`
	// Sessions is the number of open sessions.
	Sessions int `json:"sessions"`
	// Draining reports that graceful drain has begun (creates return 503).
	Draining bool `json:"draining"`
	// Version is the daemon's build identity (module version or VCS
	// revision; "devel" for an unstamped build). See BuildInfo.
	Version string `json:"version"`
	// Go is the Go toolchain version the daemon was built with.
	Go string `json:"go"`
}

// session is one hosted board run: a core.StepRun plus its recorder and
// (when the daemon runs durable) its write-ahead log, guarded by a
// per-session lock (the StepRun itself is single-owner state).
type session struct {
	id     string
	tenant string
	scheme string
	app    string

	mu      sync.Mutex
	run     *core.StepRun
	rec     *obs.Recorder
	drained bool

	// log is the session's write-ahead log; nil when the daemon runs without
	// a data dir (state is then in-memory only, the pre-durability behavior).
	log *wal
	// ops is the coalesced logical operation history (coalesceOps form),
	// maintained alongside the log so compaction never has to re-read disk.
	ops []walRecord
	// wedged is set when a log append fails, or a compaction's rename may
	// not be durable: the durability contract cannot be kept, so the
	// session refuses further mutations (500 wal_error).
	wedged bool
	// lastSeq and lastResp implement idempotent step sequencing: the highest
	// client sequence number applied and the outcome to replay for a retry.
	lastSeq  int64
	lastResp StepResponse
	// lastActive is the last time a client touched this session (any
	// session-scoped request), read by the idle-TTL reaper.
	lastActive time.Time
	// watchers holds the live /watch subscribers (watch.go); nil while
	// nobody watches, and the run's step hook is installed exactly while it
	// is non-empty.
	watchers map[*watcher]struct{}
}

// stepChunk bounds how many intervals run between context-cancellation
// checks while serving one step request, so a disconnected client stops
// consuming CPU within a bounded number of intervals.
const stepChunk = 128

// buildRun validates a create request against the scheme/workload/fault
// catalogs and constructs its StepRun plus optional recorder. It is the
// single construction path for both fresh creates and WAL recovery, so a
// replayed session is built by exactly the code that built the original.
func (s *Server) buildRun(req CreateRequest) (*core.StepRun, *obs.Recorder, error) {
	sch, ok := s.cfg.Schemes[req.Scheme]
	if !ok {
		return nil, nil, fmt.Errorf("unknown scheme %q", req.Scheme)
	}
	w, err := lookupWorkload(req.App)
	if err != nil {
		return nil, nil, err
	}
	opt := core.RunOptions{SkipSeries: true}
	if req.IntervalMS < 0 || req.MaxTimeS < 0 {
		return nil, nil, fmt.Errorf("interval_ms and max_time_s must be non-negative")
	}
	if req.IntervalMS > 0 {
		opt.Interval = time.Duration(req.IntervalMS) * time.Millisecond
	}
	if req.MaxTimeS > 0 {
		opt.MaxTime = time.Duration(req.MaxTimeS * float64(time.Second))
	}
	if req.FaultClass != "" {
		if !fault.ValidClass(req.FaultClass) {
			return nil, nil, fmt.Errorf("unknown fault_class %q (want one of %v)", req.FaultClass, fault.ClassNames())
		}
		intensity := req.FaultIntensity
		if intensity == 0 {
			intensity = 1.0
		}
		if intensity < 0 {
			return nil, nil, fmt.Errorf("fault_intensity must be non-negative")
		}
		seed := req.FaultSeed
		if seed == 0 {
			seed = 1
		}
		opt.Faults = fault.PresetClass(seed, intensity, req.FaultClass)
	} else if req.FaultIntensity != 0 || req.FaultSeed != 0 {
		return nil, nil, fmt.Errorf("fault_intensity/fault_seed require fault_class")
	}
	var rec *obs.Recorder
	if req.TraceCapacity >= 0 {
		rec = obs.NewRecorder(req.TraceCapacity)
		opt.Trace = rec
	}
	opt.Metrics = s.reg
	run, err := core.NewStepRun(s.cfg.Platform.Cfg, sch, w, opt)
	if err != nil {
		return nil, nil, err
	}
	return run, rec, nil
}

// newSession validates the request, builds the StepRun, registers the
// session, and — when the daemon runs durable — creates its write-ahead log
// and fsyncs the create record before returning, so an acknowledged create
// survives a crash.
func (s *Server) newSession(tenant string, req CreateRequest) (*session, error) {
	run, rec, err := s.buildRun(req)
	if err != nil {
		return nil, err
	}
	sess := &session{
		tenant:     tenant,
		scheme:     req.Scheme,
		app:        req.App,
		run:        run,
		rec:        rec,
		lastActive: s.cfg.Now(),
	}
	s.mu.Lock()
	s.nextID++
	sess.id = fmt.Sprintf("s-%d", s.nextID)
	s.sessions[sess.id] = sess
	s.order = append(s.order, sess.id)
	s.mu.Unlock()
	if s.cfg.DataDir != "" {
		createRec := walRecord{T: walOpCreate, Tenant: tenant, Req: &req}
		log, err := createWAL(sessionWALPath(s.cfg.DataDir, sess.id))
		if err == nil {
			err = log.append(createRec)
		}
		if err != nil {
			if log != nil {
				_ = log.remove() // the create has failed already
			}
			s.unregister(sess.id)
			return nil, fmt.Errorf("session log: %v", err)
		}
		sess.log = log
		sess.ops = []walRecord{createRec}
	}
	return sess, nil
}

// unregister removes a session from the table and creation order (the
// caller handles slot release and log cleanup).
func (s *Server) unregister(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil
	}
	delete(s.sessions, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return sess
}

// lookupWorkload resolves an app or heterogeneous-mix name.
func lookupWorkload(name string) (workload.Workload, error) {
	for _, m := range workload.HeterogeneousMixes() {
		if m.Name() == name {
			return m, nil
		}
	}
	return workload.Lookup(name)
}

// logOp durably appends one operation to the session's write-ahead log (a
// no-op without one), folds it into the coalesced history, and compacts the
// log once it has grown compactThreshold records past that history. A
// failed append wedges the session: its in-memory state has advanced past
// what the log captures, so acknowledging further mutations would break the
// recovery contract. Callers hold se.mu.
func (se *session) logOp(rec walRecord) {
	if se.wedged {
		// The log already lags the in-memory state; appending more records
		// would hide the gap and corrupt recovery.
		return
	}
	se.ops = coalesceOps(append(se.ops, rec))
	if se.log == nil {
		return
	}
	if err := se.log.append(rec); err != nil {
		se.wedged = true
		return
	}
	if se.log.appended >= len(se.ops)+compactThreshold {
		// A compaction that fails before its rename is not fatal: the
		// uncompacted log is still a complete, valid history. One whose
		// rename may not survive power loss wedges the session, since
		// later appends would go to a file recovery might not find.
		if err := se.log.compact(se.ops); errors.Is(err, errDirSync) {
			se.wedged = true
		}
	}
}

// touch resets the idle clock (any session-scoped client request).
func (se *session) touch(now time.Time) {
	se.mu.Lock()
	se.lastActive = now
	se.mu.Unlock()
}

// info snapshots the session's status document.
func (se *session) info() SessionInfo {
	se.mu.Lock()
	defer se.mu.Unlock()
	res := se.run.Result()
	info := SessionInfo{
		ID:         se.id,
		Tenant:     se.tenant,
		Scheme:     se.scheme,
		App:        se.app,
		Supervised: se.run.Supervised(),
		Steps:      se.run.Steps(),
		MaxSteps:   se.run.MaxSteps(),
		Done:       se.run.Done(),
		Drained:    se.drained,
		Result: ResultInfo{
			Completed:   res.Completed,
			TimeS:       res.TimeS,
			EnergyJ:     res.EnergyJ,
			ExDJS:       res.ExD,
			Emergencies: res.EmergencyEvents,
			FaultsInjected: res.Faults.DroppedReadings + res.Faults.StaleReadings +
				res.Faults.HeldCommands + res.Faults.SkewedCommands + res.Faults.ForcedThrottles,
		},
	}
	if st, ok := se.run.SupervisorState(); ok {
		info.SupState = st.String()
	}
	if sup := res.Supervisor; sup != nil {
		info.Result.Trips = sup.Trips
		info.Result.Recoveries = sup.Recoveries
		info.Result.FallbackSteps = sup.FallbackSteps
	}
	return info
}

// step advances the run by up to n intervals under the session lock,
// checking ctx between stepChunk-sized chunks so a cancelled request (client
// gone, server timeout) stops promptly instead of pinning the handler for
// the whole batch. Whatever executed — full, partial, or nothing — is
// durably logged before the call returns, so an acknowledged response never
// outruns the log.
//
// seq implements idempotent sequencing: a retry of the last applied
// sequence number returns the recorded outcome without re-executing
// (cached=true), and a stale number fails with errCode "stale_seq". A
// wedged session (log append failed) refuses with "wal_error". On success
// executed reports how many intervals this call ran, for metrics.
func (se *session) step(ctx context.Context, n int, seq int64, now time.Time) (resp StepResponse, executed int, cached bool, errCode string) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.lastActive = now
	if se.wedged {
		return resp, 0, false, "wal_error"
	}
	if seq > 0 && seq == se.lastSeq {
		return se.lastResp, 0, true, ""
	}
	if seq > 0 && seq < se.lastSeq {
		return resp, 0, false, "stale_seq"
	}
	span := spanFrom(ctx)
	execStart := time.Now()
	for executed < n && !se.run.Done() {
		chunk := stepChunk
		if rem := n - executed; rem < chunk {
			chunk = rem
		}
		executed += se.run.Step(chunk)
		if ctx.Err() != nil {
			break
		}
	}
	span.Add("step_exec", time.Since(execStart))
	if se.run.Done() {
		se.closeWatchersLocked()
	}
	if executed > 0 || seq > 0 {
		walStart := time.Now()
		se.logOp(walRecord{T: walOpStep, N: executed, Seq: seq})
		span.Add("wal_append", time.Since(walStart))
		if se.wedged {
			return resp, executed, false, "wal_error"
		}
	}
	resp = StepResponse{
		Executed: executed,
		Steps:    se.run.Steps(),
		Done:     se.run.Done(),
	}
	if st, ok := se.run.SupervisorState(); ok {
		resp.SupState = st.String()
	}
	if seq > 0 {
		se.lastSeq, se.lastResp = seq, resp
	}
	return resp, executed, false, ""
}

// steps returns the executed interval count.
func (se *session) steps() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.run.Steps()
}

// done reports run completion.
func (se *session) done() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.run.Done()
}

// supState names the supervisory state ("" for unsupervised schemes).
func (se *session) supState() string {
	se.mu.Lock()
	defer se.mu.Unlock()
	if st, ok := se.run.SupervisorState(); ok {
		return st.String()
	}
	return ""
}

// forceTrip arms an operator-forced supervisor trip and logs it. A wedged
// session refuses (walOK=false) so the trip cannot be acknowledged without
// being durable.
func (se *session) forceTrip(now time.Time) (forced, walOK bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.lastActive = now
	if se.wedged {
		return false, false
	}
	if !se.run.ForceTrip() {
		return false, true
	}
	se.logOp(walRecord{T: walOpTrip})
	return true, !se.wedged
}

// writeTrace streams the retained flight-recorder window as JSONL.
func (se *session) writeTrace(w io.Writer) error {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.rec == nil {
		return nil
	}
	return se.rec.WriteJSONL(w)
}

// drain walks the session through the supervisory staged fallback: force an
// operator trip (supervised schemes), then settle for up to drainSteps
// intervals so the fallback's conservative posture is in effect at shutdown.
// Finished sessions drain trivially. The trip, the settling intervals and
// the drain marker are all logged, so a daemon restarted after a drain
// recovers each session in its settled post-fallback state.
func (se *session) drain(drainSteps int) (tripped bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if !se.run.Done() && !se.wedged {
		tripped = se.run.ForceTrip()
		if tripped {
			se.logOp(walRecord{T: walOpTrip})
			if n := se.run.Step(drainSteps); n > 0 {
				se.logOp(walRecord{T: walOpStep, N: n})
			}
		}
	}
	se.drained = true
	se.logOp(walRecord{T: walOpDrain})
	se.closeWatchersLocked()
	return tripped
}

// removeLog closes and deletes the session's write-ahead log (explicit
// DELETE and the idle reaper discard state; shutdown leaves the logs for
// the next daemon's recovery). It returns the removal's error: a deleted
// session whose removal did not reach the disk may come back on recovery.
func (se *session) removeLog() error {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.log == nil {
		return nil
	}
	err := se.log.remove()
	se.log = nil
	return err
}
