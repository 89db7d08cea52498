// Package client is the hardened HTTP client for the yukta-serve API: the
// code path behind `yukta-sim -via` and the crash-recovery chaos harness.
// It layers three robustness mechanisms over plain JSON requests:
//
//   - Retries with exponential backoff and jitter for transport errors
//     (daemon briefly down, connection reset) and for the server's
//     retryable rejections — 429 rate_limited/capacity and 503 recovering —
//     honoring the Retry-After header when the server sets one. A 503
//     draining rejection fails fast: a draining daemon will not come back.
//   - Idempotent step sequencing: every step request carries a strictly
//     increasing per-session sequence number, so a retry of a request whose
//     response was lost (timeout, crash between execution and reply)
//     returns the recorded outcome instead of advancing the run twice.
//   - Crash-transparent session driving: StepToDone keeps stepping by
//     whatever the server reports, so a session that a daemon crash rolled
//     back to its last logged position is simply driven forward again —
//     determinism makes the final trace and scalars identical either way.
//
// Creates are deliberately not retried on transport errors: the client
// cannot know whether the server registered the session before the
// connection died, and a duplicate session would hold a slot forever.
package client

import (
	"bufio"
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"yukta/internal/serve"
)

// Config tunes a Client. Only Base is required; zero values select the
// documented defaults.
type Config struct {
	// Base is the daemon's base URL, e.g. "http://localhost:8871". Required.
	Base string

	// HTTPClient issues the requests. Nil means http.DefaultClient.
	HTTPClient *http.Client

	// MaxAttempts bounds the total tries per request (first attempt
	// included). 0 means 10.
	MaxAttempts int

	// BackoffBase is the first retry delay; each further retry doubles it.
	// 0 means 100ms.
	BackoffBase time.Duration

	// BackoffCap bounds the exponential growth. 0 means 5s. The server's
	// Retry-After, when longer than the computed backoff, wins.
	BackoffCap time.Duration

	// JitterSeed seeds the ±25% backoff jitter that decorrelates retry
	// storms across clients. 0 means 1 (deterministic, test-friendly);
	// real CLIs seed from wall clock.
	JitterSeed int64

	// Sleep waits between attempts, injectable for tests. Nil means
	// time.Sleep.
	Sleep func(time.Duration)

	// Logf, when non-nil, receives one line per retry ("step retry 2/10
	// in 200ms: ..."), so interactive callers can narrate the waiting.
	Logf func(format string, args ...any)
}

// Client is a retrying yukta-serve API client. All methods are safe for
// concurrent use; each Session is single-owner like the hosted run it
// drives.
type Client struct {
	cfg   Config
	httpc *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Client, applying the Config defaults.
func New(cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Client{
		cfg:   cfg,
		httpc: cfg.HTTPClient,
		rng:   rand.New(rand.NewSource(cfg.JitterSeed)),
	}
}

// StatusError is the error for a non-2xx response that was not retried (or
// exhausted its retries): the status code plus the server's error envelope.
type StatusError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable reason from the error envelope ("" when
	// the body was not an envelope).
	Code string
	// Body is the raw response body, for messages.
	Body string
}

// Error renders the status and envelope.
func (e *StatusError) Error() string {
	return fmt.Sprintf("status %d (%s): %s", e.StatusCode, e.Code, e.Body)
}

// backoff computes the jittered exponential delay before retry attempt
// (0-based): base·2^attempt capped at BackoffCap, scaled by a uniform
// ±25% jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 0; i < attempt && d < c.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	c.mu.Lock()
	factor := 0.75 + float64(0.5*c.rng.Float64())
	c.mu.Unlock()
	return time.Duration(float64(d) * factor)
}

// retryAfter parses the Retry-After header as delay seconds (0 when absent
// or malformed; HTTP-date form is not used by yukta-serve).
func retryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// envelopeCode extracts the machine-readable code from an error-envelope
// body ("" when the body is not one).
func envelopeCode(raw []byte) string {
	var eb struct {
		Code string `json:"code"`
	}
	_ = json.Unmarshal(raw, &eb)
	return eb.Code
}

// logf narrates a retry when the Config asked for it.
func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// requestIDHeader is the serve daemon's correlation-ID header. The client
// mints one ID per logical request and pins it across every retry attempt,
// so the daemon's request log shows one correlation ID per client intent —
// a retried step is traceable end to end.
const requestIDHeader = "X-Request-ID"

// mintRequestID generates a correlation ID for one logical request: 8
// random bytes, hex (the same shape the daemon mints for clients that send
// none).
func mintRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "rid-fallback"
	}
	return hex.EncodeToString(b[:])
}

// do issues one JSON request with the retry policy. retryTransport marks
// the request safe to re-send after a transport error (idempotent by
// nature or by sequence number); retryable server rejections (429, 503
// except draining) are always retried, waiting the longer of the computed
// backoff and the server's Retry-After. Every attempt of one do call
// carries the same freshly minted X-Request-ID.
func (c *Client) do(method, path string, body, out any, want int, retryTransport bool) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	rid := mintRequestID()
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, c.cfg.Base+path, rd)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(requestIDHeader, rid)

		var failErr error
		retryable := false
		serverWait := time.Duration(0)
		resp, err := c.httpc.Do(req)
		if err != nil {
			failErr, retryable = err, retryTransport
		} else {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				failErr, retryable = rerr, retryTransport
			} else if resp.StatusCode == want {
				if out != nil {
					return json.Unmarshal(raw, out)
				}
				return nil
			} else {
				code := envelopeCode(raw)
				failErr = &StatusError{StatusCode: resp.StatusCode, Code: code, Body: string(bytes.TrimSpace(raw))}
				if resp.StatusCode == http.StatusTooManyRequests ||
					(resp.StatusCode == http.StatusServiceUnavailable && code != "draining") {
					retryable = true
					serverWait = retryAfter(resp)
				}
			}
		}
		if !retryable || attempt+1 >= c.cfg.MaxAttempts {
			return failErr
		}
		d := c.backoff(attempt)
		if serverWait > d {
			d = serverWait
		}
		c.logf("%s %s: retry %d/%d in %v: %v", method, path, attempt+1, c.cfg.MaxAttempts, d.Round(time.Millisecond), failErr)
		c.cfg.Sleep(d)
	}
}

// Session drives one hosted session. It owns the idempotency sequence
// counter, so all stepping of a session must go through one Session value.
type Session struct {
	c *Client
	// ID is the server-assigned session identifier.
	ID string
	// seq is the last step sequence number issued.
	seq int64
}

// CreateSession creates a hosted session and returns its driver plus the
// created status document. Rate/capacity rejections and the recovery fence
// are retried with backoff; transport errors are not (see the package
// comment).
func (c *Client) CreateSession(req serve.CreateRequest) (*Session, serve.SessionInfo, error) {
	var info serve.SessionInfo
	if err := c.do("POST", "/v1/sessions", req, &info, http.StatusCreated, false); err != nil {
		return nil, info, err
	}
	return &Session{c: c, ID: info.ID}, info, nil
}

// Attach returns a driver for an existing session ID (trace collection,
// tests). The sequence counter starts fresh, which is safe: server-side
// sequences only require monotonicity per retried request, not continuity
// across clients — but two concurrent drivers of one session are not.
func (c *Client) Attach(id string) *Session {
	return &Session{c: c, ID: id}
}

// Step advances the session by up to steps intervals, retrying safely on
// transport errors: every request carries the next sequence number, so a
// retry of a lost response returns the recorded outcome instead of
// re-executing.
func (s *Session) Step(steps int) (serve.StepResponse, error) {
	s.seq++
	var out serve.StepResponse
	err := s.c.do("POST", "/v1/sessions/"+s.ID+"/step",
		serve.StepRequest{Steps: steps, Seq: s.seq}, &out, http.StatusOK, true)
	return out, err
}

// StepToDone drives the session to completion in chunk-sized step requests,
// returning the total number of intervals the server reports executed. A
// daemon crash mid-drive is transparent: the rolled-back session is simply
// stepped forward again after recovery, and determinism makes the completed
// run identical to an uninterrupted one.
func (s *Session) StepToDone(chunk int) (int, error) {
	last := -1
	for stall := 0; ; {
		resp, err := s.Step(chunk)
		if err != nil {
			return resp.Steps, err
		}
		if resp.Done {
			return resp.Steps, nil
		}
		// Progress guard: recovery may legally roll the position back, but a
		// session that stops advancing across attempts is stuck.
		if resp.Steps <= last {
			if stall++; stall > 3 {
				return resp.Steps, fmt.Errorf("session %s stopped advancing at step %d", s.ID, resp.Steps)
			}
		} else {
			stall = 0
		}
		last = resp.Steps
	}
}

// Info fetches the session-status document.
func (s *Session) Info() (serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := s.c.do("GET", "/v1/sessions/"+s.ID, nil, &info, http.StatusOK, true)
	return info, err
}

// Trip forces an operator supervisor trip.
func (s *Session) Trip() (serve.TripResponse, error) {
	var out serve.TripResponse
	err := s.c.do("POST", "/v1/sessions/"+s.ID+"/trip", nil, &out, http.StatusOK, false)
	return out, err
}

// WriteTrace streams the session's JSONL trace into w, retrying transport
// errors and retryable rejections like any idempotent read.
func (s *Session) WriteTrace(w io.Writer) error {
	rid := mintRequestID()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("GET", s.c.cfg.Base+"/v1/sessions/"+s.ID+"/trace", nil)
		if err != nil {
			return err
		}
		req.Header.Set(requestIDHeader, rid)
		resp, err := s.c.httpc.Do(req)
		var failErr error
		retryable := false
		serverWait := time.Duration(0)
		if err != nil {
			failErr, retryable = err, true
		} else if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			code := envelopeCode(raw)
			failErr = &StatusError{StatusCode: resp.StatusCode, Code: code, Body: string(bytes.TrimSpace(raw))}
			if resp.StatusCode == http.StatusTooManyRequests ||
				(resp.StatusCode == http.StatusServiceUnavailable && code != "draining") {
				retryable = true
				serverWait = retryAfter(resp)
			}
		} else {
			_, cErr := io.Copy(w, resp.Body)
			resp.Body.Close()
			// A stream torn mid-copy cannot be retried blindly: w already
			// holds a partial trace. Surface it to the caller.
			return cErr
		}
		if !retryable || attempt+1 >= s.c.cfg.MaxAttempts {
			return failErr
		}
		d := s.c.backoff(attempt)
		if serverWait > d {
			d = serverWait
		}
		s.c.logf("GET trace: retry %d/%d in %v: %v", attempt+1, s.c.cfg.MaxAttempts, d.Round(time.Millisecond), failErr)
		s.c.cfg.Sleep(d)
	}
}

// WatchOption configures Session.Watch.
type WatchOption func(*watchOpts)

// watchOpts is the resolved Watch configuration.
type watchOpts struct {
	connected chan<- struct{}
}

// WatchConnected arranges for ch to be closed once the stream is
// established — the daemon has registered the watcher, so records produced
// by step requests issued after the close cannot be missed. Without it, a
// Watch raced against stepping from another goroutine may attach after
// early intervals (or after the whole run) have executed.
func WatchConnected(ch chan<- struct{}) WatchOption {
	return func(o *watchOpts) { o.connected = ch }
}

// Watch opens the session's live event stream (GET
// /v1/sessions/{id}/watch, a text/event-stream of per-interval flight
// records) and calls fn with each record's JSON payload until the server
// sends its done sentinel, the stream breaks, ctx is cancelled, or fn
// returns an error. Each payload line is byte-identical to the
// corresponding trace JSONL line; the bytes passed to fn are only valid for
// the duration of the call. Watch does not retry: a live stream that broke
// has already missed intervals, and the caller decides whether to re-attach.
func (s *Session) Watch(ctx context.Context, fn func(record []byte) error, opts ...WatchOption) error {
	var wo watchOpts
	for _, o := range opts {
		o(&wo)
	}
	req, err := http.NewRequestWithContext(ctx, "GET",
		s.c.cfg.Base+"/v1/sessions/"+s.ID+"/watch", nil)
	if err != nil {
		return err
	}
	req.Header.Set(requestIDHeader, mintRequestID())
	resp, err := s.c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return &StatusError{StatusCode: resp.StatusCode, Code: envelopeCode(raw),
			Body: string(bytes.TrimSpace(raw))}
	}
	if wo.connected != nil {
		close(wo.connected)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	done := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Event separator.
		case strings.HasPrefix(line, "event: done"):
			done = true
		case strings.HasPrefix(line, "data: "):
			if done {
				return nil // the sentinel's payload carries no record
			}
			if err := fn([]byte(strings.TrimPrefix(line, "data: "))); err != nil {
				return err
			}
		}
	}
	if done {
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("watch stream for session %s ended without the done sentinel", s.ID)
}

// Delete closes the session, freeing its server slot. A 404 is treated as
// success: the session is gone either way (an earlier delete whose response
// was lost, or the idle reaper got there first).
func (s *Session) Delete() error {
	err := s.c.do("DELETE", "/v1/sessions/"+s.ID, nil, nil, http.StatusOK, true)
	var se *StatusError
	if errors.As(err, &se) && se.StatusCode == http.StatusNotFound {
		return nil
	}
	return err
}
