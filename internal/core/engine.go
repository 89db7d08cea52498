package core

import (
	"fmt"
	"time"

	"yukta/internal/board"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// Engine names a fleet simulation core. There is one: the discrete-event
// engine, EngineEvent. The type and its constant remain only so that
// FleetOptions.Engine keeps compiling for existing callers.
type Engine string

// EngineEvent is the shared-clock discrete-event engine (runEvent). Board
// wakes and budget reallocations are timed events on a deterministic heap
// (internal/sched): a finished board falls out of the clock entirely, and a
// live board batches every control interval up to its next interaction
// point — the reallocation barrier where its power cap can change — into a
// single wake.
const EngineEvent Engine = "event"

// Event kinds of the event engine, in execution order within one instant:
// coordinator work (budget reallocation) strictly precedes the board wakes it
// influences, and board wakes at the same instant order by board index. This
// ordering reproduces the interval structure "reallocate, then step every
// board" of the lockstep oracle the engine is tested against.
const (
	evRealloc int8 = iota
	evWake
)

// boardRun is one board's per-interval state: its workload, board, controller
// session, fault injector and observation taps. A solo run, a hosted StepRun
// and every fleet member each hold one and advance it through the same step,
// so a board consumes its fault RNG stream and records its trace identically
// whichever caller drives it.
type boardRun struct {
	w        workload.Workload
	b        *board.Board
	sess     Session
	inj      *fault.Injector
	interval time.Duration

	// Observation taps, nil when unobserved: the step-latency histogram, the
	// per-interval trace and the session's health and flight probes (set
	// only when traced).
	lat   *obs.Histogram
	trace *obs.Recorder
	hp    healthProbe
	fp    flightProber

	prevFaults fault.Stats
	sens       board.Sensors
}

// newBoardRun instantiates the scheme and builds a fresh board running w.
// When faults is enabled, runKey selects the board's fault stream: its
// injector taps the board's sensor and actuator paths and its phase
// disturbance wraps the workload. trace and metrics may be nil; a board
// without them takes no time.Now calls and no extra allocations per step.
func newBoardRun(cfg board.Config, sch Scheme, w workload.Workload, runKey string,
	faults fault.Plan, interval time.Duration, trace *obs.Recorder, metrics *obs.Registry) (boardRun, error) {

	sess, err := sch.New()
	if err != nil {
		return boardRun{}, fmt.Errorf("core: building scheme %q: %w", sch.Name, err)
	}
	r := boardRun{sess: sess, interval: interval, trace: trace}
	if faults.Enabled() {
		r.inj = faults.NewInjector(runKey)
		w = faults.Disturb(w, runKey)
	}
	w.Reset()
	r.w = w
	r.b = board.New(cfg)
	if r.inj != nil {
		r.b.AttachSensorTap(r.inj)
		r.b.AttachActuatorTap(r.inj)
	}
	if trace != nil {
		r.hp, _ = sess.(healthProbe)
		r.fp, _ = sess.(flightProber)
	}
	if metrics != nil {
		r.lat = metrics.Histogram("step_latency_us/"+sch.Name, obs.LatencyBucketsUS())
	}
	return r, nil
}

// step executes control interval i: advance the fault injector, run the
// board physics, invoke the controller stack, and feed the observation
// taps. It is the single definition of "one control interval".
func (r *boardRun) step(i int) {
	if r.inj != nil {
		r.inj.Advance(r.b)
	}
	r.sens = r.b.Run(r.w, r.interval)
	var t0 time.Time
	observe := r.lat != nil || r.trace != nil
	if observe {
		t0 = time.Now()
	}
	r.sess.Step(r.sens, r.b, r.w.Profile().Threads)
	if observe {
		latNS := time.Since(t0).Nanoseconds()
		if r.lat != nil {
			r.lat.Observe(float64(latNS) / 1e3)
		}
		if r.trace != nil {
			recordInterval(r.trace, i, r.sens, r.b, r.inj, &r.prevFaults, r.hp, r.fp, latNS)
		}
	}
}

// soloRun is the state of one single-board run, shared by the batch Run and
// the incrementally driven StepRun.
type soloRun struct {
	boardRun
	opt      *RunOptions
	res      *RunResult
	maxSteps int

	// counted latches countOnce so a run folds into the metrics registry at
	// most once, however many times its result is finalized.
	counted bool
}

// advance executes control interval i and appends its samples to the
// result's series.
func (r *soloRun) advance(i int) {
	r.step(i)
	if !r.opt.SkipSeries {
		r.res.BigPower.Add(r.sens.TimeS, r.sens.BigPowerW)
		r.res.LittlePower.Add(r.sens.TimeS, r.sens.LittlePowerW)
		r.res.Perf.Add(r.sens.TimeS, r.sens.BIPS)
		r.res.Temp.Add(r.sens.TimeS, r.sens.TempC)
		r.res.BigFreq.Add(r.sens.TimeS, r.b.EffectiveBigFreq())
	}
}
