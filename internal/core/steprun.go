package core

import (
	"fmt"

	"yukta/internal/board"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
)

// StepRun is an incrementally driven run: the same setup, interval body and
// epilogue as the batch Run, but advanced by explicit Step calls instead of
// running to completion. It is the session primitive the yukta-serve daemon
// hosts — a long-running service owns many StepRuns and advances each on
// request.
//
// Determinism survives hosting: a StepRun advanced in arbitrary chunk sizes
// executes exactly the soloRun.advance interval sequence the batch Run
// executes, so its RunResult scalars and attached obs.Recorder trace are
// byte-identical to Run with the same options (gated by
// TestStepRunMatchesBatch and the serve package's determinism test).
//
// A StepRun is not safe for concurrent use; like a controller session, it
// belongs to one owner (the serve layer serializes access per session).
type StepRun struct {
	r    *soloRun
	next int
	// hook, when set, observes each interval Step executes (see SetStepHook).
	hook func(step int)
}

// NewStepRun builds an incrementally driven run from the same inputs as Run.
func NewStepRun(cfg board.Config, sch Scheme, w workload.Workload, opt RunOptions) (*StepRun, error) {
	r, err := newSoloRun(cfg, sch, w, opt)
	if err != nil {
		return nil, err
	}
	return &StepRun{r: r}, nil
}

// Step advances the run by up to n control intervals, stopping early at
// workload completion or the MaxTime step bound, and returns how many
// intervals actually executed (0 when the run is already finished, or when
// n <= 0).
func (s *StepRun) Step(n int) int {
	done := 0
	for ; done < n && s.next < s.r.maxSteps && !s.r.w.Done(); done++ {
		s.r.advance(s.next)
		s.next++
		if s.hook != nil {
			s.hook(s.next - 1)
		}
	}
	return done
}

// SetStepHook installs fn to be called after every interval Step executes,
// with the index of the interval that just ran — the serve layer's live
// session streaming rides it. Pass nil to remove. The hook observes only: it
// runs after the interval body and the flight-recorder append, so it cannot
// perturb the simulation, and the deterministic-replay path (ReplayTo) never
// invokes it. When no hook is set the cost is one nil check per interval.
func (s *StepRun) SetStepHook(fn func(step int)) { s.hook = fn }

// ReplayTo advances the run to exactly step n, the recovery primitive of
// the serve layer's write-ahead log: because the interval sequence is
// deterministic, re-executing to a logged position reconstructs the exact
// pre-crash state (trace bytes, scalars, supervisory machine). Unlike Step
// it treats falling short as an error — if the run finishes before reaching
// n, the log and the execution disagree (corrupt log, changed catalog) and
// the caller must abandon the replay rather than serve a diverged session.
// A target behind the current position is likewise an error: a StepRun
// cannot rewind.
func (s *StepRun) ReplayTo(n int) error {
	if n < s.next {
		return fmt.Errorf("core: replay target %d is behind the run's current step %d", n, s.next)
	}
	for s.next < n {
		if s.Done() {
			return fmt.Errorf("core: replay diverged: run finished at step %d before reaching logged step %d", s.next, n)
		}
		s.r.advance(s.next)
		s.next++
	}
	return nil
}

// Steps returns the number of control intervals executed so far.
func (s *StepRun) Steps() int { return s.next }

// MaxSteps returns the step bound implied by RunOptions.MaxTime and the
// control interval.
func (s *StepRun) MaxSteps() int { return s.r.maxSteps }

// Done reports whether the run is finished: the workload completed or the
// MaxTime step bound was reached.
func (s *StepRun) Done() bool { return s.r.w.Done() || s.next >= s.r.maxSteps }

// Supervised reports whether the run's scheme carries the supervisory safety
// layer (and therefore supports ForceTrip).
func (s *StepRun) Supervised() bool {
	_, ok := s.r.sess.(tripForcer)
	return ok
}

// ForceTrip arms an operator-forced supervisor trip: the next interval runs
// under the fallback with a bumpless transfer, exactly as a detector-
// confirmed trip would (supervisor.CauseOperator). It reports false when the
// scheme is unsupervised or the run is already finished. The serve layer's
// graceful drain and its POST /v1/sessions/{id}/trip endpoint both ride this
// path.
func (s *StepRun) ForceTrip() bool {
	tf, ok := s.r.sess.(tripForcer)
	if !ok || s.Done() {
		return false
	}
	tf.forceTrip()
	return true
}

// SupervisorState returns the supervisory state the next interval would run
// under, and true, for supervised schemes; the zero State and false
// otherwise.
func (s *StepRun) SupervisorState() (supervisor.State, bool) {
	sp, ok := s.r.sess.(stateProber)
	if !ok {
		return 0, false
	}
	return sp.supervisorState(), true
}

// Result finalizes and returns the run's measurements so far. It may be
// called at any point — the serve layer reports it live while a session is
// still being stepped — but the canonical read is after Done; only a Done
// run folds into the attached metrics registry (once).
func (s *StepRun) Result() *RunResult {
	res := s.r.finalize()
	if s.Done() {
		s.r.countOnce()
	}
	return res
}
