package core

import (
	"math"

	"yukta/internal/board"
	"yukta/internal/heuristic"
	"yukta/internal/supervisor"
)

// NameSupervisedSSV names the supervised full-SSV scheme: YuktaFullSSV
// wrapped by the supervisory safety layer with the coordinated heuristic as
// its fallback.
const NameSupervisedSSV = "Yukta: supervised SSV"

// reseedable is implemented by primary sessions that can re-seed their
// controller state from the plant's current operating point (bumpless
// re-engagement after a fallback episode).
type reseedable interface {
	reseed(s board.Sensors, b *board.Board)
}

// healthProbe is implemented by primary sessions that expose their
// controller runtimes' health snapshots to the supervisory layer.
type healthProbe interface {
	controllerHealth() supervisor.Health
}

// searchFreezer is implemented by primary sessions whose E×D target search
// can be paused — the supervisor freezes it while the sensor view carries no
// fresh data, so the hill climb does not learn from fabricated costs.
type searchFreezer interface {
	setSearchFrozen(bool)
}

// freqLimiter is implemented by primary sessions whose frequency commands can
// be capped in the command path (the supervisory no-raise authority clamp).
// +Inf lifts the cap.
type freqLimiter interface {
	setFreqCeiling(bigGHz, littleGHz float64)
}

// flightProber is implemented by sessions that expose a supervisory
// flight-recorder probe; the runner uses it to fill the sup_*/det_* fields
// of each interval's obs.Record.
type flightProber interface {
	flightProbe() supervisor.Probe
}

// tripForcer is implemented by supervised sessions whose trip can be forced
// by an operator (StepRun.ForceTrip → the serve layer's trip endpoint and
// graceful drain): the next interval runs under the fallback with the same
// bumpless transfer a detector-confirmed trip performs.
type tripForcer interface {
	forceTrip()
}

// stateProber is implemented by supervised sessions; it exposes the
// supervisory state the next interval runs under (StepRun.SupervisorState).
type stateProber interface {
	supervisorState() supervisor.State
}

// SupervisorReporter is implemented by supervised sessions; the runner uses
// it to surface the supervisory accounting in RunResult.
type SupervisorReporter interface {
	// SupervisorStats returns the session's supervisory accounting so far.
	SupervisorStats() supervisor.Stats
}

// supervisedSession wraps a primary session with the supervisory state
// machine and a coordinated-heuristic fallback at the same layer split.
type supervisedSession struct {
	primary Session
	fbHW    *heuristic.CoordinatedHW
	fbOS    *heuristic.CoordinatedOS
	fb      *heurSession
	mon     *supervisor.Monitor
	base    float64

	// lastGood is the per-field hold-last-good sensor latch behind the
	// fallback path: the heuristic has no non-finite handling of its own, so
	// it always sees a sanitized view.
	lastGood board.Sensors

	// prevBigW/prevLitW hold the previous interval's raw power readings for
	// stale detection (bit-for-bit repeats mean a latched sensor register).
	prevBigW, prevLitW float64
	havePrevPower      bool

	// lastMism is the board's cumulative actuator-mismatch count after the
	// previous step, for detecting this step's write-verification failures.
	lastMism int

	// lastRan is the supervisory state the latest interval ran under and
	// lastAct the action it produced — the flight recorder's view of this
	// interval (the monitor itself already reports the NEXT interval's
	// state after Observe).
	lastRan supervisor.State
	lastAct supervisor.Action

	// blockRaise carries the monitor's no-raise clamp verdict from the
	// previous interval into this one (distrusted evidence is only knowable
	// once the interval that produced it has completed); ceilBig/ceilLit are
	// the armed clamp's frequency ceilings (NaN while disarmed).
	blockRaise       bool
	ceilBig, ceilLit float64

	// pendingForce arms an operator-forced trip (forceTrip): the next Step
	// performs the transfer before the interval runs, so the interval
	// executes under the fallback and its record carries the trip.
	pendingForce bool
}

// stalePower reports whether both raw power readings repeat the previous
// interval's bit-for-bit, and advances the latch.
func (v *supervisedSession) stalePower(s board.Sensors) bool {
	stale := v.havePrevPower && s.BigPowerW == v.prevBigW && s.LittlePowerW == v.prevLitW
	if !math.IsNaN(s.BigPowerW) && !math.IsNaN(s.LittlePowerW) {
		v.prevBigW, v.prevLitW = s.BigPowerW, s.LittlePowerW
		v.havePrevPower = true
	}
	return stale
}

// Step implements Session: route the interval to whichever authority the
// monitor granted it to, then feed the observed interval back.
func (v *supervisedSession) Step(s board.Sensors, b *board.Board, threads int) {
	san, finite := v.sanitize(s)
	cfg := v.mon.Config()
	forced := false
	if v.pendingForce {
		v.pendingForce = false
		if v.mon.State() != supervisor.Fallback {
			// Operator-forced trip: transfer authority before this interval
			// runs, with the same bumpless hand-off a detector-confirmed trip
			// performs, so the interval executes under the fallback.
			v.mon.ForceTrip(supervisor.CauseOperator)
			v.bumplessTransfer(b, cfg)
			forced = true
		}
	}
	smp := supervisor.Sample{
		SensorsFinite:    finite,
		PowerStale:       v.stalePower(s),
		Throttled:        s.Throttled,
		ThermalThrottled: s.ThermalThrottled,
		TempC:            s.TempC,
		CostProxy:        exdProxy(s, v.base),
	}
	if f, ok := v.primary.(searchFreezer); ok {
		// The search is frozen when this interval's cost sample is not the
		// primary's to learn from: the sensor view carries no fresh data, so
		// held or stale power readings would fabricate the cost.
		f.setSearchFrozen(cfg.FreezeSearchOnDropout && smp.NoFreshData())
	}
	preEffBig, preEffLit := b.EffectiveBigFreq(), b.EffectiveLittleFreq()
	state := v.mon.State()
	if fl, ok := v.primary.(freqLimiter); ok {
		// No-raise authority clamp: while evidence is distrusted the primary
		// may shed frequency but not add it. The ceiling arms at the lower of
		// the requested and EFFECTIVE operating points — a firmware cap the
		// controller is racing against becomes the level it settles at — and
		// afterwards follows only the controller's own downward moves, so a
		// deep transient firmware cap does not drag the ceiling to the floor
		// of the range. It is lifted the interval after distrust expires.
		if v.blockRaise && state != supervisor.Fallback {
			if math.IsNaN(v.ceilBig) {
				v.ceilBig = math.Min(b.BigFreq(), preEffBig)
				v.ceilLit = math.Min(b.LittleFreq(), preEffLit)
			} else {
				v.ceilBig = math.Min(v.ceilBig, b.BigFreq())
				v.ceilLit = math.Min(v.ceilLit, b.LittleFreq())
			}
			fl.setFreqCeiling(v.ceilBig, v.ceilLit)
		} else if !math.IsNaN(v.ceilBig) {
			v.ceilBig, v.ceilLit = math.NaN(), math.NaN()
			fl.setFreqCeiling(math.Inf(1), math.Inf(1))
		}
	}
	switch state {
	case supervisor.Fallback:
		v.fb.Step(san, b, threads)
	case supervisor.Recovering:
		// Staged re-engagement, mirroring the TMU's one-step-per-period
		// un-throttle: the primary runs with raw sensors (its runtimes carry
		// their own hold-last-good degradation), but its authority over the
		// hardware actuators is clamped to one level per interval around the
		// pre-step operating point. Placement is deliberately not clamped —
		// the coordinated OS scheduler's migration rate limit already moves
		// one thread per interval.
		pre := snapshotActuators(b)
		v.primary.Step(s, b, threads)
		stageClamp(b, pre)
	default:
		v.primary.Step(s, b, threads)
	}
	smp.Commands = [4]float64{float64(b.BigCores()), float64(b.LittleCores()),
		b.BigFreq(), b.LittleFreq()}
	if mism := b.ActuatorMismatches(); mism != v.lastMism {
		smp.CommandMismatch = true
		v.lastMism = mism
	}
	if state != supervisor.Fallback {
		if hp, ok := v.primary.(healthProbe); ok {
			smp.Health = hp.controllerHealth()
		}
	}
	act := v.mon.Observe(smp)
	v.lastRan, v.lastAct = state, act
	if forced {
		// The forced trip happened before this interval ran; surface it on
		// this interval's flight record so summing sup_tripped over a run
		// still reproduces supervisor.Stats.Trips exactly.
		v.lastAct.Tripped = true
		v.lastAct.Cause = supervisor.CauseOperator
	}
	v.blockRaise = act.BlockRaise
	if act.Tripped {
		v.bumplessTransfer(b, cfg)
	}
	if act.Reengage {
		if r, ok := v.primary.(reseedable); ok {
			r.reseed(san, b)
		}
	}
}

// bumplessTransfer seeds the fallback from the operating point in effect
// right now — the hand-off performed on every transfer of authority, whether
// detector-confirmed or operator-forced. The heuristic's HW layer is
// relative by construction (it moves frequency from the board's current
// value), so the frequency path needs no state hand-off — but its
// conservative ceiling is pinned a mild derate below the frequencies in
// effect (post-throttle), and the OS scheduler's rate-limited placement
// state is seeded from the split in effect. The derate is the safety
// posture: the trip-time point is whatever the sick controller last
// commanded, and the fallback should shed its aggression, not preserve it.
func (v *supervisedSession) bumplessTransfer(b *board.Board, cfg supervisor.Config) {
	bcfg := b.Config()
	derate := float64(cfg.FallbackDerateSteps)
	ceil := func(eff, step, min float64) float64 {
		return math.Max(eff-float64(derate*step), min)
	}
	v.fbHW.SeedCeiling(
		ceil(b.EffectiveBigFreq(), bcfg.Big.FreqStepGHz, bcfg.Big.FreqMinGHz),
		ceil(b.EffectiveLittleFreq(), bcfg.Little.FreqStepGHz, bcfg.Little.FreqMinGHz))
	v.fbOS.SeedPlacement(b.Placement().ThreadsBig)
}

// forceTrip implements tripForcer: arm an operator-forced trip for the next
// interval.
func (v *supervisedSession) forceTrip() { v.pendingForce = true }

// supervisorState implements stateProber.
func (v *supervisedSession) supervisorState() supervisor.State { return v.mon.State() }

// SupervisorStats implements SupervisorReporter.
func (v *supervisedSession) SupervisorStats() supervisor.Stats { return v.mon.Stats() }

// flightProbe implements flightProber: the monitor's live detector
// pressures, overlaid with the state the latest interval actually ran under
// and the one-shot transfer flags its observation produced.
func (v *supervisedSession) flightProbe() supervisor.Probe {
	p := v.mon.Probe()
	p.State = v.lastRan
	p.Tripped = v.lastAct.Tripped
	p.Cause = v.lastAct.Cause
	p.Reengage = v.lastAct.Reengage
	p.BlockRaise = v.lastAct.BlockRaise
	return p
}

// sanitize replaces non-finite sensor fields with the last finite value seen
// (or a neutral default before any), and reports whether the raw view was
// fully finite.
func (v *supervisedSession) sanitize(s board.Sensors) (board.Sensors, bool) {
	finite := true
	fix := func(val, last *float64) {
		if math.IsNaN(*val) || math.IsInf(*val, 0) {
			*val = *last
			finite = false
			return
		}
		*last = *val
	}
	fix(&s.BigPowerW, &v.lastGood.BigPowerW)
	fix(&s.LittlePowerW, &v.lastGood.LittlePowerW)
	fix(&s.TempC, &v.lastGood.TempC)
	fix(&s.BIPS, &v.lastGood.BIPS)
	fix(&s.BIPSBig, &v.lastGood.BIPSBig)
	fix(&s.BIPSLittle, &v.lastGood.BIPSLittle)
	return s, finite
}

// actSnapshot is the requested hardware actuator state at the start of a
// recovering interval.
type actSnapshot struct {
	bigC, litC int
	bigF, litF float64
}

// snapshotActuators reads the requested hardware operating point.
func snapshotActuators(b *board.Board) actSnapshot {
	return actSnapshot{bigC: b.BigCores(), litC: b.LittleCores(),
		bigF: b.BigFreq(), litF: b.LittleFreq()}
}

// stageClamp bounds the post-step hardware actuator state to one core and
// one frequency step per cluster around the pre-step operating point.
func stageClamp(b *board.Board, pre actSnapshot) {
	if d := b.BigCores() - pre.bigC; d > 1 {
		b.SetBigCores(pre.bigC + 1)
	} else if d < -1 {
		b.SetBigCores(pre.bigC - 1)
	}
	if d := b.LittleCores() - pre.litC; d > 1 {
		b.SetLittleCores(pre.litC + 1)
	} else if d < -1 {
		b.SetLittleCores(pre.litC - 1)
	}
	cfg := b.Config()
	clampFreq := func(cur, pre, step float64, set func(float64)) {
		if d := cur - pre; d > step+1e-9 {
			set(pre + step)
		} else if d < -step-1e-9 {
			set(pre - step)
		}
	}
	clampFreq(b.BigFreq(), pre.bigF, cfg.Big.FreqStepGHz, b.SetBigFreq)
	clampFreq(b.LittleFreq(), pre.litF, cfg.Little.FreqStepGHz, b.SetLittleFreq)
}

// SupervisedScheme wraps primary with the supervisory safety layer: the
// monitor built from cfg decides each interval whether the primary or the
// coordinated-heuristic fallback has authority, performing bumpless
// transfer on trip and staged re-engagement after quarantine (DESIGN.md §7).
//
// The wrapper inherits the primary's fault-stream identity (Scheme.FaultKey),
// so a supervised run and its bare-primary counterpart face the same injected
// fault realization — the supervised-vs-unsupervised tables are paired
// comparisons, not draws from two different fault sequences.
func (p *Platform) SupervisedScheme(name string, primary Scheme, cfg supervisor.Config) Scheme {
	return Scheme{Name: name, FaultKey: primary.faultKey(), New: func() (Session, error) {
		inner, err := primary.New()
		if err != nil {
			return nil, err
		}
		fbHW := &heuristic.CoordinatedHW{Lim: p.Lim, Conservative: true}
		fbOS := &heuristic.CoordinatedOS{}
		return &supervisedSession{
			primary: inner,
			fbHW:    fbHW,
			fbOS:    fbOS,
			fb:      &heurSession{hw: fbHW, os: fbOS},
			mon:     supervisor.New(cfg),
			base:    p.Cfg.BasePowerW,
			ceilBig: math.NaN(),
			ceilLit: math.NaN(),
			// Neutral pre-first-sample defaults for the sanitizer: mid-range
			// values no fallback decision reacts violently to.
			lastGood: board.Sensors{BigPowerW: 2, LittlePowerW: 0.2, TempC: 60,
				BIPS: 4, BIPSBig: 3, BIPSLittle: 1},
		}, nil
	}}
}

// SupervisedYuktaSSV is the shipped supervised scheme: the full SSV stack
// under the default supervisor configuration.
func (p *Platform) SupervisedYuktaSSV(hp HWParams, op OSParams) Scheme {
	return p.SupervisedScheme(NameSupervisedSSV, p.YuktaFullSSV(hp, op), supervisor.DefaultConfig())
}
