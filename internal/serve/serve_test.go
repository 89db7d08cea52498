package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// Platform identification costs a few seconds, so every test shares one.
var (
	platOnce sync.Once
	plat     *core.Platform
	platErr  error
)

func testPlatform(t *testing.T) *core.Platform {
	t.Helper()
	platOnce.Do(func() {
		plat, platErr = core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
	})
	if platErr != nil {
		t.Fatal(platErr)
	}
	return plat
}

// newTestServer builds a Server with the shared platform plus any overrides
// and wraps it in an httptest server. Rate limiting is disabled unless the
// override turns it on, so unrelated tests never trip the bucket.
func newTestServer(t *testing.T, override func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Platform: testPlatform(t), TenantRate: -1}
	if override != nil {
		override(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues one JSON request and decodes the response body into out (when
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// create posts a session and fails the test on any non-201 status.
func create(t *testing.T, ts *httptest.Server, req CreateRequest) SessionInfo {
	t.Helper()
	var info SessionInfo
	if code := do(t, "POST", ts.URL+"/v1/sessions", req, &info); code != http.StatusCreated {
		t.Fatalf("create %+v: status %d", req, code)
	}
	return info
}

// stepToDone drives a session to completion over HTTP in the given chunk
// size and returns the final step response.
func stepToDone(t *testing.T, ts *httptest.Server, id string, chunk int) StepResponse {
	t.Helper()
	var sr StepResponse
	for i := 0; ; i++ {
		if code := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Steps: chunk}, &sr); code != http.StatusOK {
			t.Fatalf("step: status %d", code)
		}
		if sr.Done {
			return sr
		}
		if sr.Executed == 0 {
			t.Fatal("step made no progress on an unfinished session")
		}
		if i > 10000 {
			t.Fatal("session never finished")
		}
	}
}

// fetchTrace downloads a session's JSONL trace.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeTraceMatchesBatch is the tentpole's determinism gate: a session
// hosted by the daemon and stepped to completion over HTTP must stream a
// JSONL trace byte-identical to the batch core.Run of the same options, for
// a plain scheme and a supervised one, clean and under fault injection.
func TestServeTraceMatchesBatch(t *testing.T) {
	p := testPlatform(t)
	_, ts := newTestServer(t, nil)
	for _, scheme := range []string{"coordinated", "yukta-supervised"} {
		for _, class := range []string{"", "all"} {
			// Batch reference: identical options through core.Run.
			sch := DefaultSchemes(p)[scheme]
			w, err := workload.Lookup("gamess")
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(0)
			opt := core.RunOptions{
				MaxTime:    20 * time.Second,
				SkipSeries: true,
				Trace:      rec,
			}
			if class != "" {
				opt.Faults = fault.PresetClass(7, 1.0, class)
			}
			if _, err := core.Run(p.Cfg, sch, w, opt); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := rec.WriteJSONL(&want); err != nil {
				t.Fatal(err)
			}

			// Hosted run: same tuple through the HTTP API.
			req := CreateRequest{Scheme: scheme, App: "gamess", MaxTimeS: 20}
			if class != "" {
				req.FaultClass, req.FaultSeed, req.FaultIntensity = class, 7, 1.0
			}
			info := create(t, ts, req)
			stepToDone(t, ts, info.ID, 7)
			got := fetchTrace(t, ts, info.ID)

			if n, err := obs.ValidateJSONL(bytes.NewReader(got)); err != nil {
				t.Fatalf("%s/%s: served trace invalid after %d records: %v", scheme, class, n, err)
			}
			if !bytes.Equal(want.Bytes(), got) {
				t.Errorf("%s/%s: served trace differs from batch trace (%d vs %d bytes)",
					scheme, class, len(got), want.Len())
			}
			if code := do(t, "DELETE", ts.URL+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusOK {
				t.Fatalf("delete: status %d", code)
			}
		}
	}
}

// TestAdmissionRateLimit exercises the per-tenant token bucket: an over-rate
// tenant is rejected with 429 + Retry-After while other tenants and already
// accepted sessions are unaffected, and tokens refill with time.
func TestAdmissionRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, ts := newTestServer(t, func(c *Config) {
		c.TenantRate = 1
		c.TenantBurst = 2
		c.Now = clock
	})
	mk := func(tenant string) (int, *http.Response) {
		body, _ := json.Marshal(CreateRequest{Tenant: tenant, Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp
	}

	// Burst of 2 admitted, third rejected.
	var first SessionInfo
	if code := do(t, "POST", ts.URL+"/v1/sessions",
		CreateRequest{Tenant: "alpha", Scheme: "coordinated", App: "gamess", MaxTimeS: 5}, &first); code != http.StatusCreated {
		t.Fatalf("first create: status %d", code)
	}
	if code, _ := mk("alpha"); code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	code, resp := mk("alpha")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate create: status %d, want 429", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Another tenant is unaffected.
	if code, _ := mk("beta"); code != http.StatusCreated {
		t.Fatalf("other tenant: status %d", code)
	}
	// The accepted session still steps.
	var sr StepResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+first.ID+"/step", StepRequest{Steps: 3}, &sr); code != http.StatusOK || sr.Executed != 3 {
		t.Fatalf("accepted session step: status %d executed %d", code, sr.Executed)
	}

	// One second refills one token.
	now = now.Add(time.Second)
	if code, _ := mk("alpha"); code != http.StatusCreated {
		t.Fatalf("post-refill create: status %d", code)
	}

	snap := s.Registry().Snapshot()
	if got, _ := snap["serve_rejected_rate_total/alpha"].(int64); got != 1 {
		t.Fatalf("serve_rejected_rate_total/alpha = %v; want 1", snap["serve_rejected_rate_total/alpha"])
	}
}

// TestAdmissionCapacity exercises the global session-slot cap: creates
// beyond MaxSessions are rejected with 429/capacity until a slot frees.
func TestAdmissionCapacity(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxSessions = 2 })
	a := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
	create(t, ts, CreateRequest{Scheme: "decoupled", App: "gamess", MaxTimeS: 5})

	var eb struct {
		Code string `json:"code"`
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions",
		CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 5}, &eb); code != http.StatusTooManyRequests || eb.Code != "capacity" {
		t.Fatalf("over-capacity create: status %d code %q; want 429/capacity", code, eb.Code)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/"+a.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
}

// TestCreateValidation checks the 400 paths: unknown scheme, app, fault
// class, and fault knobs without a class.
func TestCreateValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, req := range []CreateRequest{
		{Scheme: "nope", App: "gamess"},
		{Scheme: "coordinated", App: "nope"},
		{Scheme: "coordinated", App: "gamess", FaultClass: "nope"},
		{Scheme: "coordinated", App: "gamess", FaultSeed: 3},
		{Scheme: "coordinated", App: "gamess", IntervalMS: -1},
	} {
		var eb struct {
			Code string `json:"code"`
		}
		if code := do(t, "POST", ts.URL+"/v1/sessions", req, &eb); code != http.StatusBadRequest || eb.Code != "bad_request" {
			t.Errorf("create %+v: status %d code %q; want 400/bad_request", req, code, eb.Code)
		}
	}
}

// TestMisspeltFieldsRejected pins strict request decoding: a create body
// with a misspelt field is a 400 bad_request naming the field and creates
// nothing, and a step body with one is a 400 that neither advances the run
// nor consumes its sequence number.
func TestMisspeltFieldsRejected(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var e errorBody
	code := do(t, "POST", ts.URL+"/v1/sessions",
		json.RawMessage(`{"scheme":"coordinated","app":"gamess","fault_clas":"all"}`), &e)
	if code != http.StatusBadRequest || e.Code != "bad_request" || !strings.Contains(e.Error, `"fault_clas"`) {
		t.Fatalf("misspelt create field: status %d, body %+v", code, e)
	}
	if n := s.slots.InUse(); n != 0 {
		t.Fatalf("rejected create holds %d session slots", n)
	}

	info := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 20})
	url := ts.URL + "/v1/sessions/" + info.ID + "/step"
	var sr StepResponse
	if code := do(t, "POST", url, StepRequest{Steps: 2, Seq: 1}, &sr); code != http.StatusOK || sr.Steps != 2 {
		t.Fatalf("step seq 1: status %d, %+v", code, sr)
	}
	e = errorBody{}
	code = do(t, "POST", url, json.RawMessage(`{"steps":3,"seq":2,"stpes":1}`), &e)
	if code != http.StatusBadRequest || e.Code != "bad_request" || !strings.Contains(e.Error, `"stpes"`) {
		t.Fatalf("misspelt step field: status %d, body %+v", code, e)
	}
	// Had the rejected request applied seq 2, this would replay its cached
	// outcome instead of running.
	if code := do(t, "POST", url, StepRequest{Steps: 1, Seq: 2}, &sr); code != http.StatusOK ||
		sr.Executed != 1 || sr.Steps != 3 {
		t.Fatalf("step seq 2 after the rejected request: status %d, %+v", code, sr)
	}
}

// TestRetiredEngineFieldIgnored pins what a client that still sends the
// retired "engine" create field gets: the JSON decoder ignores the field, so
// a POST body carrying "engine":"lockstep" and a recovered log whose create
// record carries "engine":"event" both run the one engine and stream the
// trace of the batch core.Run of the same options.
func TestRetiredEngineFieldIgnored(t *testing.T) {
	p := testPlatform(t)
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	opt := core.RunOptions{MaxTime: 20 * time.Second, SkipSeries: true, Trace: rec}
	if _, err := core.Run(p.Cfg, DefaultSchemes(p)["coordinated"], w, opt); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := rec.WriteJSONL(&batch); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(batch.Bytes())

	// A fresh create whose body names the retired lockstep engine.
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(
		`{"scheme":"coordinated","app":"gamess","max_time_s":20,"engine":"lockstep"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || derr != nil {
		t.Fatalf("create with engine field: status %d, decode %v", resp.StatusCode, derr)
	}
	stepToDone(t, ts, info.ID, 7)
	if got := sha256.Sum256(fetchTrace(t, ts, info.ID)); got != want {
		t.Errorf("POST with \"engine\":\"lockstep\": trace SHA-256 %x, batch %x", got, want)
	}

	// A log written before the field was retired: its create record
	// carries "engine":"event", followed by one logged step batch.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, payload := range []string{
		`{"t":"create","tenant":"old","req":{"scheme":"coordinated","app":"gamess","max_time_s":20,"engine":"event"}}`,
		`{"t":"step","n":5}`,
	} {
		log = fmt.Appendf(log, "%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	if err := os.WriteFile(sessionWALPath(dir, "s-1"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, tsR := newDurableServer(t, dir, nil)
	if rep := s.Recover(); rep.Recovered != 1 || rep.ReplayedSteps != 5 {
		t.Fatalf("recover report %+v; want 1 session at step 5", rep)
	}
	stepToDone(t, tsR, "s-1", 7)
	if got := sha256.Sum256(fetchTrace(t, tsR, "s-1")); got != want {
		t.Errorf("recovered log with \"engine\":\"event\": trace SHA-256 %x, batch %x", got, want)
	}
}

// TestTripEndpoint forces a supervisor trip over HTTP and checks the session
// lands in the fallback with the operator cause on the trace, while an
// unsupervised session refuses with 409.
func TestTripEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	sup := create(t, ts, CreateRequest{Scheme: "yukta-supervised", App: "gamess", MaxTimeS: 20})
	if !sup.Supervised {
		t.Fatal("yukta-supervised session not reported Supervised")
	}
	do(t, "POST", ts.URL+"/v1/sessions/"+sup.ID+"/step", StepRequest{Steps: 5}, nil)
	var tr TripResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+sup.ID+"/trip", nil, &tr); code != http.StatusOK || !tr.Forced {
		t.Fatalf("trip: status %d forced %v", code, tr.Forced)
	}
	var sr StepResponse
	do(t, "POST", ts.URL+"/v1/sessions/"+sup.ID+"/step", StepRequest{Steps: 1}, &sr)
	if sr.SupState != "fallback" {
		t.Fatalf("post-trip state = %q; want fallback", sr.SupState)
	}
	trace := fetchTrace(t, ts, sup.ID)
	if !strings.Contains(string(trace), `"sup_cause":"operator"`) {
		t.Fatal("trace does not carry the operator trip cause")
	}

	plain := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 20})
	var eb struct {
		Code string `json:"code"`
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+plain.ID+"/trip", nil, &eb); code != http.StatusConflict || eb.Code != "not_supervised" {
		t.Fatalf("unsupervised trip: status %d code %q; want 409/not_supervised", code, eb.Code)
	}
}

// TestDrainZeroDrop is the graceful-shutdown gate: Drain must walk every
// open session — live supervised ones through an operator trip into the
// fallback, live unsupervised and finished ones trivially — with zero drops,
// and refuse new sessions afterwards.
func TestDrainZeroDrop(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.DrainSteps = 5 })
	sup := create(t, ts, CreateRequest{Scheme: "yukta-supervised", App: "gamess", MaxTimeS: 60})
	plain := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 60})
	finished := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 2})
	do(t, "POST", ts.URL+"/v1/sessions/"+sup.ID+"/step", StepRequest{Steps: 5}, nil)
	do(t, "POST", ts.URL+"/v1/sessions/"+plain.ID+"/step", StepRequest{Steps: 5}, nil)
	stepToDone(t, ts, finished.ID, 100)

	rep := s.Drain(context.Background())
	if rep.Sessions != 3 || rep.Drained != 3 {
		t.Fatalf("drain report %+v; want all 3 sessions drained", rep)
	}
	if rep.Tripped != 1 || rep.Finished != 1 {
		t.Fatalf("drain report %+v; want exactly 1 tripped, 1 finished", rep)
	}

	// The supervised session settled under the fallback and its trace is
	// valid JSONL carrying the operator trip.
	var info SessionInfo
	do(t, "GET", ts.URL+"/v1/sessions/"+sup.ID, nil, &info)
	if info.SupState != "fallback" || !info.Drained {
		t.Fatalf("drained supervised session = %+v; want drained in fallback", info)
	}
	trace := fetchTrace(t, ts, sup.ID)
	if n, err := obs.ValidateJSONL(bytes.NewReader(trace)); err != nil {
		t.Fatalf("drained trace invalid after %d records: %v", n, err)
	}
	if !strings.Contains(string(trace), `"sup_cause":"operator"`) {
		t.Fatal("drained trace does not carry the operator trip")
	}

	// No new work after drain.
	var eb struct {
		Code string `json:"code"`
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions",
		CreateRequest{Scheme: "coordinated", App: "gamess"}, &eb); code != http.StatusServiceUnavailable || eb.Code != "draining" {
		t.Fatalf("post-drain create: status %d code %q; want 503/draining", code, eb.Code)
	}
	// Health reports the drain.
	var h HealthResponse
	do(t, "GET", ts.URL+"/healthz", nil, &h)
	if !h.Draining || h.Sessions != 3 {
		t.Fatalf("healthz = %+v; want draining with 3 sessions", h)
	}
}

// TestMetricsEndpoint checks /v1/metrics renders the registry as valid JSON
// with the serve counters present.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := create(t, ts, CreateRequest{Tenant: "metrics-t", Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
	do(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", StepRequest{Steps: 2}, nil)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics not valid JSON: %v\n%s", err, raw)
	}
	for _, name := range []string{
		"serve_sessions_created_total/metrics-t",
		"serve_steps_total",
		"serve_sessions_live",
	} {
		if _, ok := doc[name]; !ok {
			t.Errorf("metrics missing %q", name)
		}
	}
}

// TestListAndGet checks listing order and the unknown-session 404 envelope.
func TestListAndGet(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
	b := create(t, ts, CreateRequest{Scheme: "decoupled", App: "mcf", MaxTimeS: 5})
	var list ListResponse
	do(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 2 || list.Sessions[0].ID != a.ID || list.Sessions[1].ID != b.ID {
		t.Fatalf("list = %+v; want [%s %s] in creation order", list.Sessions, a.ID, b.ID)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if code := do(t, "GET", ts.URL+"/v1/sessions/s-999", nil, &eb); code != http.StatusNotFound || eb.Code != "unknown_session" {
		t.Fatalf("unknown session: status %d code %q", code, eb.Code)
	}
}
