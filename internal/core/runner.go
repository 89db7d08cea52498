package core

import (
	"time"

	"yukta/internal/board"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/series"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
)

// RunResult records one workload execution under one scheme.
type RunResult struct {
	App    string
	Scheme string

	// TimeS is the completion time (delay D) in seconds; EnergyJ the energy
	// E in joules; ExD their product in J·s.
	TimeS   float64
	EnergyJ float64
	ExD     float64

	Completed       bool
	EmergencyEvents int

	// IntervalS is the control interval the run executed at, in seconds
	// (converts the supervisor's step counts to time).
	IntervalS float64

	// Faults counts the faults actually injected when the run executed under
	// a fault plan (zero for clean runs).
	Faults fault.Stats

	// Supervisor holds the supervisory-layer accounting when the scheme was
	// wrapped by SupervisedScheme (nil otherwise).
	Supervisor *supervisor.Stats

	// Traces of the signals plotted in the paper's time-series figures.
	// All five are nil when the run was executed with
	// RunOptions.SkipSeries — scalar-only sweeps opt out of the buffers
	// they would otherwise discard.
	BigPower    *series.Series // Figure 10 / 17
	LittlePower *series.Series
	Perf        *series.Series // Figure 11 / 15(a)
	Temp        *series.Series
	BigFreq     *series.Series
}

// RunOptions bounds a run.
type RunOptions struct {
	// MaxTime aborts runs that fail to complete (a misbehaving controller
	// must not hang an experiment). Default 1200 s.
	MaxTime time.Duration
	// Interval is the control interval. Default 500 ms (§V-A).
	Interval time.Duration
	// Faults, when enabled, injects the plan's fault sequence into the run:
	// the board's sensor and actuator paths are tapped, forced TMU events are
	// scheduled, and the workload is wrapped with the plan's phase
	// disturbance. The injected sequence is fully determined by
	// (Faults.Seed, scheme name, app name), so identical runs see identical
	// faults at any experiment parallelism.
	Faults fault.Plan
	// SkipSeries skips allocating and filling the five series.Series trace
	// buffers in RunResult. Scalar-only sweeps (degradation tables, bar
	// figures) set it so thousands of runs do not each retain a full
	// time-series trace they never read.
	SkipSeries bool
	// Trace, when non-nil, receives one obs.Record per control interval:
	// the sensor vector the controller saw, the commanded vs applied
	// actuation, the supervisory state and detector pressures, the faults
	// injected that interval, and the controller step latency. A Recorder
	// belongs to exactly one run. Nil (the default) keeps the control loop
	// free of any observation cost.
	Trace *obs.Recorder
	// Metrics, when non-nil, aggregates this run into the registry: a
	// per-scheme step-latency histogram plus run/fault/trip/fallback
	// counters. Unlike Trace, one Registry is shared across every run of an
	// experiment session (it is concurrency-safe).
	Metrics *obs.Registry
}

// Run executes the workload to completion (or MaxTime) under the scheme on a
// fresh board and returns the measured result.
func Run(cfg board.Config, sch Scheme, w workload.Workload, opt RunOptions) (*RunResult, error) {
	r, err := newSoloRun(cfg, sch, w, opt)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.maxSteps && !r.w.Done(); i++ {
		r.advance(i)
	}
	res := r.finalize()
	r.countOnce()
	return res, nil
}

// newSoloRun performs the shared run setup — option defaults, the board (newBoardRun, keyed by scheme and app), the result
// series — for both the batch Run path and the incrementally driven StepRun
// path. The two paths execute the identical soloRun.advance interval
// afterwards, which is what makes a hosted session's trace byte-identical to
// the batch run of the same options.
func newSoloRun(cfg board.Config, sch Scheme, w workload.Workload, opt RunOptions) (*soloRun, error) {
	if opt.MaxTime <= 0 {
		opt.MaxTime = 1200 * time.Second
	}
	if opt.Interval <= 0 {
		opt.Interval = 500 * time.Millisecond
	}
	br, err := newBoardRun(cfg, sch, w, fault.RunKey(sch.faultKey(), w.Name()),
		opt.Faults, opt.Interval, opt.Trace, opt.Metrics)
	if err != nil {
		return nil, err
	}
	res := &RunResult{App: br.w.Name(), Scheme: sch.Name}
	if !opt.SkipSeries {
		res.BigPower = series.New("big_power_w")
		res.LittlePower = series.New("little_power_w")
		res.Perf = series.New("bips")
		res.Temp = series.New("temp_c")
		res.BigFreq = series.New("big_freq_ghz")
	}
	return &soloRun{boardRun: br, opt: &opt, res: res, maxSteps: int(opt.MaxTime / opt.Interval)}, nil
}

// finalize distills the run's current state into its RunResult. It is the
// shared epilogue of Run and StepRun.Result and is safe to call mid-run (the
// serve layer reports live results); folding into the metrics registry is
// countOnce's job, so repeated finalize calls never double-count.
func (r *soloRun) finalize() *RunResult {
	res, b, w := r.res, r.b, r.w
	res.Completed = w.Done()
	res.TimeS = b.TimeS()
	res.EnergyJ = b.EnergyJ()
	res.ExD = res.EnergyJ * res.TimeS
	res.EmergencyEvents = r.sens.EmergencyEvents
	res.IntervalS = r.opt.Interval.Seconds()
	if r.inj != nil {
		res.Faults = r.inj.Stats()
	}
	if sr, ok := r.sess.(SupervisorReporter); ok {
		st := sr.SupervisorStats()
		res.Supervisor = &st
	}
	return res
}

// countOnce folds the finished run into the metrics registry, at most once.
func (r *soloRun) countOnce() {
	if r.opt.Metrics != nil && !r.counted {
		r.counted = true
		countRun(r.opt.Metrics, r.res)
	}
}

// recordInterval distills one control interval into an obs.Record and
// appends it to the recorder. prevFaults latches the injector's cumulative
// stats so the record carries per-interval deltas (their sums over a run
// reproduce fault.Stats exactly).
func recordInterval(tr *obs.Recorder, step int, s board.Sensors, b *board.Board,
	inj *fault.Injector, prevFaults *fault.Stats, hp healthProbe, fp flightProber, latNS int64) {

	act := b.ActuatorState()
	rec := obs.Record{
		Step:             step,
		TimeS:            s.TimeS,
		BigPowerW:        s.BigPowerW,
		LittlePowerW:     s.LittlePowerW,
		TempC:            s.TempC,
		BIPS:             s.BIPS,
		BIPSBig:          s.BIPSBig,
		BIPSLittle:       s.BIPSLittle,
		Throttled:        s.Throttled,
		ThermalThrottled: s.ThermalThrottled,
		PowerCapW:        s.PowerCapW,
		BudgetThrottled:  s.BudgetThrottled,
		CmdBigCores:      act.BigCores,
		CmdLittleCores:   act.LittleCores,
		CmdBigGHz:        act.BigFreqGHz,
		CmdLittleGHz:     act.LittleFreqGHz,
		EffBigGHz:        act.EffBigFreqGHz,
		EffLittleGHz:     act.EffLittleFreqGHz,
		ThreadsBig:       act.ThreadsBig,
		LatencyNS:        latNS,
	}
	if inj != nil {
		cur := inj.Stats()
		rec.FaultDropped = cur.DroppedReadings - prevFaults.DroppedReadings
		rec.FaultStale = cur.StaleReadings - prevFaults.StaleReadings
		rec.FaultHeld = cur.HeldCommands - prevFaults.HeldCommands
		rec.FaultSkewed = cur.SkewedCommands - prevFaults.SkewedCommands
		rec.FaultForced = cur.ForcedThrottles - prevFaults.ForcedThrottles
		*prevFaults = cur
	}
	if hp != nil {
		h := hp.controllerHealth()
		rec.CtlGuardbandStreak = h.GuardbandStreak
		rec.CtlHeldSteps = h.HeldSteps
		rec.CtlRailed = h.Railed
		rec.CtlNonFinite = h.NonFinite
	}
	if fp != nil {
		p := fp.flightProbe()
		rec.SupState = p.State.String()
		rec.SupTripped = p.Tripped
		if p.Tripped {
			rec.SupCause = p.Cause.String()
		}
		rec.SupReengage = p.Reengage
		rec.SupBlockRaise = p.BlockRaise
		rec.DetSuspect = p.SuspectStreak
		rec.DetRail = p.RailStreak
		rec.DetChatter = p.ChatterCount
		rec.DetDropout = p.DropoutCount
		rec.DetMismatch = p.MismatchCount
		rec.DetThrottle = p.ThrottleCount
		rec.DetCostRatio = p.CostRatio
	}
	tr.Add(rec)
}

// countRun folds one completed run into the metrics registry.
func countRun(m *obs.Registry, res *RunResult) {
	m.Counter("runs_total").Add(1)
	if !res.Completed {
		m.Counter("runs_incomplete_total").Add(1)
	}
	f := res.Faults
	if n := f.DroppedReadings + f.StaleReadings + f.HeldCommands +
		f.SkewedCommands + f.ForcedThrottles; n > 0 {
		m.Counter("faults_injected_total").Add(int64(n))
		m.Counter("faults_dropped_total").Add(int64(f.DroppedReadings))
		m.Counter("faults_stale_total").Add(int64(f.StaleReadings))
		m.Counter("faults_held_total").Add(int64(f.HeldCommands))
		m.Counter("faults_skewed_total").Add(int64(f.SkewedCommands))
		m.Counter("faults_forced_total").Add(int64(f.ForcedThrottles))
	}
	if sup := res.Supervisor; sup != nil {
		m.Counter("supervised_runs_total").Add(1)
		m.Counter("supervisor_trips_total").Add(int64(sup.Trips))
		m.Counter("supervisor_fallback_steps_total").Add(int64(sup.FallbackSteps))
		m.Counter("supervisor_recoveries_total").Add(int64(sup.Recoveries))
		m.Counter("supervisor_frozen_steps_total").Add(int64(sup.FrozenSteps))
		m.Counter("supervisor_distrust_steps_total").Add(int64(sup.DistrustSteps))
	}
}

// FixedTargetSession drives the SSV layers with constant output targets
// instead of optimizers — the §VI-E1 experiment ("we set fixed targets for
// each of the outputs") and the §VI-E3 power-tracking experiment.
type FixedTargetSession struct {
	HW        Session
	OS        Session // optional
	hwTargets []float64
}

// Step implements Session.
func (f *FixedTargetSession) Step(s board.Sensors, b *board.Board, threads int) {
	f.HW.Step(s, b, threads)
	if f.OS != nil {
		f.OS.Step(s, b, threads)
	}
}

// NewFixedHWSession builds an SSV hardware session that tracks the given
// fixed targets [Perf, Power_big, Power_little, Temp].
func (p *Platform) NewFixedHWSession(hp HWParams, targets []float64) (Session, error) {
	ctl, err := p.SynthesizeHWSSV(hp)
	if err != nil {
		return nil, err
	}
	rt, err := p.NewHWRuntime(ctl)
	if err != nil {
		return nil, err
	}
	if err := rt.SetTargets(targets); err != nil {
		return nil, err
	}
	return &fixedHWSession{rt: rt}, nil
}

type fixedHWSession struct {
	rt interface {
		Step(meas, ext, applied []float64) ([]float64, error)
	}

	// Per-step scratch buffers.
	meas    [4]float64
	ext     [3]float64
	applied [4]float64
}

func (f *fixedHWSession) Step(s board.Sensors, b *board.Board, threads int) {
	p := b.Placement()
	f.meas = [4]float64{s.BIPS, s.BigPowerW, s.LittlePowerW, s.TempC}
	f.ext = [3]float64{float64(p.ThreadsBig), p.ThreadsPerBigCore, p.ThreadsPerLittleCore}
	f.applied = [4]float64{float64(b.BigCores()), float64(b.LittleCores()),
		b.EffectiveBigFreq(), b.EffectiveLittleFreq()}
	if u, err := f.rt.Step(f.meas[:], f.ext[:], f.applied[:]); err == nil {
		applyHW(b, u)
	}
}

// NewFixedOSSession builds an SSV software session tracking fixed targets
// [Perf_little, Perf_big, ΔSC].
func (p *Platform) NewFixedOSSession(op OSParams, targets []float64) (Session, error) {
	ctl, err := p.SynthesizeOSSSV(op)
	if err != nil {
		return nil, err
	}
	rt, err := p.NewOSRuntime(ctl)
	if err != nil {
		return nil, err
	}
	if err := rt.SetTargets(targets); err != nil {
		return nil, err
	}
	return &fixedOSSession{rt: rt}, nil
}

type fixedOSSession struct {
	rt interface {
		Step(meas, ext, applied []float64) ([]float64, error)
	}

	// Per-step scratch buffers.
	meas    [3]float64
	ext     [4]float64
	applied [3]float64
}

func (f *fixedOSSession) Step(s board.Sensors, b *board.Board, threads int) {
	f.meas = [3]float64{s.BIPSLittle, s.BIPSBig, deltaSpareCompute(b, threads)}
	f.ext = [4]float64{float64(b.BigCores()), float64(b.LittleCores()), b.BigFreq(), b.LittleFreq()}
	pl := b.Placement()
	f.applied = [3]float64{float64(pl.ThreadsBig), pl.ThreadsPerBigCore, pl.ThreadsPerLittleCore}
	if u, err := f.rt.Step(f.meas[:], f.ext[:], f.applied[:]); err == nil {
		applyOS(b, u, threads)
	}
}
