package board

import "math"

// tmu models the Exynos firmware emergency heuristics (paper §V-A and
// [57][58][59]): when a cluster's power or the hot-spot temperature stays
// beyond a preset threshold for an extended period, the firmware caps the
// cluster frequency, stepping it down until the violation clears; after the
// signal stays below the threshold (with hysteresis) for a release delay,
// the cap is raised back one step at a time. This behaviour — not under the
// controllers' authority — is what makes the Decoupled heuristic scheme
// oscillate in Figure 10(b).
type tmu struct {
	// The Config durations the state machine runs on, in seconds.
	hold, release, stepPeriod float64

	bigCap, littleCap float64 // current frequency caps (GHz)

	overBigS, overLittleS, overTempS    float64 // sustained violation timers
	underBigS, underLittleS, underTempS float64 // sustained safe timers
	sinceStepS                          float64
	forcedS                             float64 // remaining forced-violation time

	engagedBig, engagedLittle, engagedTemp bool
	events                                 int
}

func newTMU(cfg Config) tmu {
	return tmu{
		hold:       cfg.EmergencyHold.Seconds(),
		release:    cfg.EmergencyReleaseDelay.Seconds(),
		stepPeriod: cfg.EmergencyStepPeriod.Seconds(),
		bigCap:     cfg.Big.FreqMaxGHz,
		littleCap:  cfg.Little.FreqMaxGHz,
	}
}

// act is the firmware's step-period action, run by Board.integrate when
// sinceStepS reaches stepPeriod: it restarts the period and moves the caps
// the sustained violation and safe timers call for. The timers themselves
// advance every substep in integrate.
func (t *tmu) act(b *Board, bigW, littleW float64) {
	cfg := &b.cfg
	t.sinceStepS = 0
	hystBig := cfg.BigPowerEmergencyW * (1 - cfg.EmergencyHysteresisPct)
	hystLittle := cfg.LittlePowerEmergencyW * (1 - cfg.EmergencyHysteresisPct)
	hystTemp := cfg.TempEmergencyC - 2

	// While a sustained violation persists, the firmware steps the cap down
	// two levels per step period; after the signal has stayed below the
	// release threshold for the release delay, it raises the cap one level
	// per period. The asymmetry (fast attack, slow release) is what makes a
	// governor that races back to maximum oscillate in large sweeps
	// (Fig. 10(b)) while leaving well-behaved controllers alone.
	// Big-cluster power emergency.
	switch {
	case t.overBigS >= t.hold:
		if !t.engagedBig {
			t.engagedBig = true
			t.events++
		}
		t.bigCap = math.Max(cfg.Big.FreqMinGHz,
			math.Min(t.bigCap, b.EffectiveBigFreq())-2*cfg.Big.FreqStepGHz)
	case t.engagedBig && t.underBigS >= t.release && bigW < hystBig:
		t.bigCap += cfg.Big.FreqStepGHz
		if t.bigCap >= cfg.Big.FreqMaxGHz {
			t.bigCap = cfg.Big.FreqMaxGHz
			t.engagedBig = false
		}
	}

	// Little-cluster power emergency.
	switch {
	case t.overLittleS >= t.hold:
		if !t.engagedLittle {
			t.engagedLittle = true
			t.events++
		}
		t.littleCap = math.Max(cfg.Little.FreqMinGHz,
			math.Min(t.littleCap, b.EffectiveLittleFreq())-2*cfg.Little.FreqStepGHz)
	case t.engagedLittle && t.underLittleS >= t.release && littleW < hystLittle:
		t.littleCap += cfg.Little.FreqStepGHz
		if t.littleCap >= cfg.Little.FreqMaxGHz {
			t.littleCap = cfg.Little.FreqMaxGHz
			t.engagedLittle = false
		}
	}

	// Thermal emergency: caps the big cluster hard (the A15s dominate the
	// hot spot on the XU3).
	switch {
	case t.overTempS >= t.hold:
		if !t.engagedTemp {
			t.engagedTemp = true
			t.events++
		}
		t.bigCap = math.Max(cfg.Big.FreqMinGHz,
			math.Min(t.bigCap, b.EffectiveBigFreq())-float64(3*cfg.Big.FreqStepGHz))
	case t.engagedTemp && t.underTempS >= t.release && b.tempC < hystTemp:
		t.bigCap += cfg.Big.FreqStepGHz
		if t.bigCap >= cfg.Big.FreqMaxGHz {
			t.bigCap = cfg.Big.FreqMaxGHz
			t.engagedTemp = false
		}
	}
}
