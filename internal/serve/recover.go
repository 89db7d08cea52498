package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"yukta/internal/obs"
)

// Crash recovery rebuilds the session table from the per-session
// write-ahead logs (wal.go). Because a hosted run is a deterministic
// function of its create tuple and the order of its mutating operations,
// recovery is re-execution, not state restoration: each log's create
// request is rebuilt through the normal construction path and its
// step/trip history is replayed through core.StepRun.ReplayTo. The
// recovered session is therefore indistinguishable — byte-identical trace,
// identical scalars and supervisory state — from one that never crashed
// (the kill-at-any-step gates in recover_test.go and
// cmd/yukta-serve/chaos_test.go).

// RecoverReport accounts for one recovery pass: every leftover log lands in
// exactly one of Recovered or Abandoned; Truncated counts logs whose
// damaged tail was cut back to the last valid record before a successful
// replay.
type RecoverReport struct {
	// Scanned is how many leftover session logs the data dir held.
	Scanned int
	// Recovered is how many sessions were rebuilt live.
	Recovered int
	// Truncated is how many logs had a torn or corrupted tail truncated to
	// the last valid record (the session recovers at the rolled-back
	// position; only unacknowledged operations can be lost).
	Truncated int
	// Abandoned is how many logs could not be replayed (unreadable, no valid
	// create record, replay divergence, or no free session slot); their
	// files are set aside with an .abandoned suffix for inspection.
	Abandoned int
	// ReplayedSteps is the total number of control intervals re-executed.
	ReplayedSteps int
}

// String renders the report in the daemon's log format.
func (r RecoverReport) String() string {
	return fmt.Sprintf("recovered %d/%d sessions (%d steps replayed, %d truncated tails, %d abandoned)",
		r.Recovered, r.Scanned, r.ReplayedSteps, r.Truncated, r.Abandoned)
}

// NeedsRecovery reports whether New found leftover session logs in the data
// dir. While true, every /v1 endpoint is fenced behind 503 recovering; the
// operator either calls Recover (cmd/yukta-serve -recover) or refuses to
// start.
func (s *Server) NeedsRecovery() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering
}

// Recover replays every leftover session log found at startup and then
// drops the API fence. Sessions are recovered in creation (ID) order, so
// listing order survives the crash. Recover is idempotent: with nothing
// pending it only clears the fence. Metrics:
// serve_recovered_sessions_total, serve_recover_truncated_total,
// serve_recover_abandoned_total, and the serve_recover_replay_seconds
// histogram of per-session replay latency.
func (s *Server) Recover() RecoverReport {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	rep := RecoverReport{Scanned: len(pending)}
	for _, path := range pending {
		s.recoverOne(path, &rep)
	}
	s.mu.Lock()
	s.recovering = false
	s.mu.Unlock()
	s.reg.Gauge("serve_sessions_live").Set(int64(s.slots.InUse()))
	return rep
}

// scanSessionLogs lists the session logs under dataDir/sessions in session
// ID order, creating the directory tree on first use.
func scanSessionLogs(dataDir string) ([]string, error) {
	dir := filepath.Join(dataDir, "sessions")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning data dir: %w", err)
	}
	var paths []string
	for _, ent := range ents {
		if !ent.Type().IsRegular() || !strings.HasSuffix(ent.Name(), ".wal") {
			continue
		}
		paths = append(paths, filepath.Join(dir, ent.Name()))
	}
	sort.Slice(paths, func(i, j int) bool {
		return sessionIDNum(paths[i]) < sessionIDNum(paths[j])
	})
	return paths, nil
}

// sessionIDNum extracts the numeric part of a session log path ("s-12.wal"
// → 12; malformed names sort first and fail recovery's create check).
func sessionIDNum(path string) int {
	name := strings.TrimSuffix(filepath.Base(path), ".wal")
	n, _ := strconv.Atoi(strings.TrimPrefix(name, "s-"))
	return n
}

// recoverOne replays a single session log, registering the rebuilt session
// on success and setting the log aside as .abandoned on any failure.
func (s *Server) recoverOne(path string, rep *RecoverReport) {
	start := time.Now()
	id := strings.TrimSuffix(filepath.Base(path), ".wal")
	abandon := func(reason string) {
		_ = os.Rename(path, path+".abandoned")
		syncDir(filepath.Dir(path))
		rep.Abandoned++
		s.reg.Counter("serve_recover_abandoned_total").Add(1)
		s.log.Warn("session log abandoned", "session", id, "reason", reason,
			"path", path+".abandoned")
	}

	recs, validLen, err := readWAL(path)
	if err != nil || len(recs) == 0 || recs[0].T != walOpCreate || recs[0].Req == nil {
		abandon("unreadable log or missing create record")
		return
	}
	if fi, err := os.Stat(path); err != nil {
		abandon("cannot stat log")
		return
	} else if validLen < fi.Size() {
		if err := truncateWAL(path, validLen); err != nil {
			abandon("damaged tail could not be truncated")
			return
		}
		rep.Truncated++
		s.reg.Counter("serve_recover_truncated_total").Add(1)
		s.log.Warn("session log truncated", "session", id,
			"valid_bytes", validLen, "lost_bytes", fi.Size()-validLen)
	}

	run, rec, err := s.buildRun(*recs[0].Req)
	if err != nil {
		abandon(fmt.Sprintf("create request no longer valid: %v", err))
		return
	}
	sess := &session{
		id:         id,
		tenant:     recs[0].Tenant,
		scheme:     recs[0].Req.Scheme,
		app:        recs[0].Req.App,
		run:        run,
		rec:        rec,
		lastActive: s.cfg.Now(),
	}
	// Deterministic re-execution of the logged operation history.
	pos, replayed := 0, 0
	var lastStep walRecord
	for _, r := range recs[1:] {
		switch r.T {
		case walOpStep:
			pos += r.N
			if err := run.ReplayTo(pos); err != nil {
				abandon(fmt.Sprintf("replay diverged: %v", err))
				return
			}
			replayed += r.N
			lastStep = r
		case walOpTrip:
			if !run.ForceTrip() {
				abandon("logged trip could not be re-applied")
				return
			}
		case walOpDrain:
			sess.drained = true
		default:
			abandon(fmt.Sprintf("unknown op kind %q", r.T))
			return
		}
	}
	if lastStep.Seq != 0 {
		// Restore idempotency: a client retrying the last acknowledged
		// sequence number must get its recorded outcome, not a re-execution.
		sess.lastSeq = lastStep.Seq
		sess.lastResp = StepResponse{
			Executed: lastStep.N,
			Steps:    run.Steps(),
			Done:     run.Done(),
		}
		if st, ok := run.SupervisorState(); ok {
			sess.lastResp.SupState = st.String()
		}
	}
	if !s.slots.Acquire() {
		// The operator restarted with a lower -max-sessions than the crash
		// left live; the overflow is preserved on disk, not resurrected.
		abandon("no free session slot")
		return
	}
	log, err := openWAL(path, len(recs))
	if err != nil {
		s.slots.Release()
		abandon("log could not be reopened for appending")
		return
	}
	sess.log = log
	sess.ops = coalesceOps(recs)
	if log.appended >= len(sess.ops)+compactThreshold {
		// As in logOp: only a rename that may not survive power loss wedges.
		if err := log.compact(sess.ops); errors.Is(err, errDirSync) {
			sess.wedged = true
		}
	}

	s.mu.Lock()
	s.sessions[id] = sess
	s.order = append(s.order, id)
	if n := sessionIDNum(path); n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()

	rep.Recovered++
	rep.ReplayedSteps += replayed
	elapsed := time.Since(start)
	s.reg.Counter("serve_recovered_sessions_total").Add(1)
	s.reg.Histogram("serve_recover_replay_seconds", obs.SecondsBuckets()).
		Observe(elapsed.Seconds())
	// Replay is also a request stage (it delays the first post-restart
	// requests), so it lands in the per-stage histogram family too.
	s.reg.Histogram("serve_stage_us/replay", obs.StageBucketsUS()).
		Observe(float64(elapsed.Microseconds()))
	s.log.Info("session recovered", "session", id, "tenant", sess.tenant,
		"scheme", sess.scheme, "app", sess.app, "steps_replayed", replayed,
		"dur_us", elapsed.Microseconds())
}
