package board

import (
	"math"
	"time"
)

// budget models an externally imposed board-level power cap, the actuation
// surface the fleet coordination layer drives. It mirrors the RAPL-style
// capping firmware of server parts: when total board power sustains above
// the cap, the governor steps a frequency ceiling on the big cluster down
// (two DVFS levels per step period, the TMU's fast-attack idiom); once power
// has stayed under the cap with hysteresis for a release delay, the ceiling
// is raised back one level at a time. The governor owns its own ceiling —
// the effective big-cluster frequency is the minimum of the controller's
// command, the TMU cap and the budget ceiling — so fleet capping composes
// with, and never fights, the firmware emergency heuristics.
type budget struct {
	// The resolved dynamics knobs: durations in seconds, hysteresis as a
	// fraction of the cap.
	hold, stepPeriod, releaseDelay, hysteresis float64

	capW   float64 // 0 = uncapped
	capGHz float64 // current big-cluster ceiling (GHz)

	overS, underS float64 // sustained violation / safe timers
	sinceStepS    float64

	engaged bool
	events  int
}

// newBudget resolves the budget knobs, falling back to the firmware
// emergency parameters for any that are unset, so a hand-built Config with a
// power cap still gets sane dynamics.
func newBudget(cfg Config) budget {
	hyst := cfg.BudgetHysteresisPct
	if hyst <= 0 {
		hyst = cfg.EmergencyHysteresisPct
	}
	return budget{
		hold:         seconds(cfg.BudgetHold, cfg.EmergencyHold),
		stepPeriod:   seconds(cfg.BudgetStepPeriod, cfg.EmergencyStepPeriod),
		releaseDelay: seconds(cfg.BudgetReleaseDelay, cfg.EmergencyReleaseDelay),
		hysteresis:   hyst,
		capGHz:       cfg.Big.FreqMaxGHz,
	}
}

// seconds returns d in seconds, or fallback when d is unset.
func seconds(d, fallback time.Duration) float64 {
	if d > 0 {
		return d.Seconds()
	}
	return fallback.Seconds()
}

// setCap installs a new power cap in watts. A non-positive or NaN cap
// disables the governor and releases the ceiling to maxGHz immediately (the
// board is its own master again); raising or lowering an active cap keeps the ceiling where it is
// and lets the normal attack/release dynamics walk it to the new operating
// point, so a fleet reallocation never snaps a board's frequency.
func (g *budget) setCap(w, maxGHz float64) {
	if !(w > 0) {
		g.capW = 0
		g.capGHz = maxGHz
		g.overS, g.underS, g.sinceStepS = 0, 0, 0
		g.engaged = false
		return
	}
	g.capW = w
}

// act is the governor's step-period action, run by Board.integrate when
// sinceStepS reaches stepPeriod on a capped board: it restarts the period
// and moves the ceiling given the instantaneous total board power (big +
// little + base). The timers advance every substep in integrate.
func (g *budget) act(b *Board, totalW float64) {
	g.sinceStepS = 0
	big := &b.cfg.Big
	switch {
	case g.overS >= g.hold:
		if !g.engaged {
			g.engaged = true
			g.events++
		}
		g.capGHz = math.Max(big.FreqMinGHz,
			math.Min(g.capGHz, b.EffectiveBigFreq())-2*big.FreqStepGHz)
	case g.engaged && g.underS >= g.releaseDelay && totalW < g.capW*(1-g.hysteresis):
		g.capGHz += big.FreqStepGHz
		if g.capGHz >= big.FreqMaxGHz {
			g.capGHz = big.FreqMaxGHz
			g.engaged = false
		}
	}
}

// SetPowerCapW imposes a board-level power budget in watts on the total
// board draw (big + little + base). The budget governor enforces it by
// stepping a frequency ceiling on the big cluster (see EffectiveBigFreq); a
// non-positive or NaN value removes the cap and releases the ceiling. This is the
// only actuator the fleet coordination layer touches — each board's own
// two-layer controller stack keeps full authority underneath the cap,
// exactly as the paper's OS layer constrains its HW layer.
func (b *Board) SetPowerCapW(w float64) { b.budget.setCap(w, b.cfg.Big.FreqMaxGHz) }

// PowerCapW returns the current board power budget in watts (0 = uncapped).
func (b *Board) PowerCapW() float64 { return b.budget.capW }

// BudgetThrottled reports whether the budget governor is currently holding
// the big-cluster frequency ceiling below maximum to enforce the power cap.
func (b *Board) BudgetThrottled() bool { return b.budget.engaged }

// BudgetEvents counts budget-governor engagements so far (rising edges of
// BudgetThrottled).
func (b *Board) BudgetEvents() int { return b.budget.events }
