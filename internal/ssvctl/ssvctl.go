// Package ssvctl is the runtime form of a synthesized SSV controller: the
// small state machine of the paper's Section VI-D,
//
//	x(T+1) = A x(T) + B Δy(T)
//	u(T)   = C x(T) + D Δy(T)
//
// wrapped with the signal conditioning a real deployment needs — scaling
// between physical and normalized units, quantization of each input to its
// allowed discrete levels, saturation with anti-windup on the controller's
// integrator states, and the runtime guardband monitor that detects when the
// modeled uncertainty is exhausted (paper §II-B).
package ssvctl

import (
	"fmt"
	"math"

	"yukta/internal/mat"
	"yukta/internal/robust"
	"yukta/internal/sysid"
)

// dwellSteps is the anti-chatter window: a level change cannot be reversed
// for this many control intervals.
const dwellSteps = 3

// Runtime executes a synthesized SSV controller against physical signals.
type Runtime struct {
	ctl *robust.Controller

	outScale []sysid.Scaling // physical ranges of the controlled outputs
	extScale []sysid.Scaling // physical ranges of the external signals
	inScale  []sysid.Scaling // physical ranges of the control inputs
	levels   [][]float64     // allowed physical values per control input
	slew     []int           // per-channel max level movement per step

	state    []float64   // controller state x
	targets  []float64   // normalized output targets
	intInv   *mat.Matrix // pseudo-inverse of the integrator output block
	lastU    []float64   // previous quantized command (hysteresis state)
	prevU    []float64   // level before the most recent change, per channel
	changeAt []int       // step index of the most recent level change
	step     int
	lastRaw  []float64 // previous raw (pre-quantization) physical command
	haveU    bool

	// Guardband monitoring.
	exceedStreak int
	exceeded     bool

	// heldSteps counts intervals skipped because the sensor path delivered
	// non-finite readings (graceful degradation under fault injection).
	heldSteps int

	opsPerStep int
	bytesState int

	// Per-step scratch buffers: Step runs every 500 ms control interval of
	// every simulated run, so the hot loop reuses these instead of
	// allocating (steady-state Step is allocation-free).
	dy, u, du      []float64
	ax, bdy, nextX []float64
	phys, diff     []float64
	corr           []float64
}

// Config wires a synthesized controller to its physical signals.
type Config struct {
	// Controller is the synthesized SSV controller to run.
	Controller *robust.Controller
	// OutputScales, ExternalScales and InputScales give the physical range
	// of each signal in the order the model was identified.
	OutputScales   []sysid.Scaling
	ExternalScales []sysid.Scaling // physical range of each external input
	InputScales    []sysid.Scaling // physical range of each control input
	// InputLevels lists the allowed physical values of each control input
	// (saturation and quantization, paper §II-B).
	InputLevels [][]float64
	// SlewLevels optionally bounds how many levels each input may move per
	// control interval (0 = unlimited). Real actuators are slew-limited —
	// cpufreq ramps through intermediate operating points and hotplug
	// brings cores up one at a time — and the bound also caps the power
	// transient a single controller move can cause.
	SlewLevels []int
}

// New validates the wiring and returns a runtime with zero initial state and
// mid-range targets.
func New(cfg Config) (*Runtime, error) {
	c := cfg.Controller
	if c == nil {
		return nil, fmt.Errorf("ssvctl: nil controller")
	}
	if len(cfg.OutputScales) != c.NumOut {
		return nil, fmt.Errorf("ssvctl: %d output scales for %d outputs", len(cfg.OutputScales), c.NumOut)
	}
	if len(cfg.ExternalScales) != c.NumExt {
		return nil, fmt.Errorf("ssvctl: %d external scales for %d externals", len(cfg.ExternalScales), c.NumExt)
	}
	if len(cfg.InputScales) != c.NumCtrl {
		return nil, fmt.Errorf("ssvctl: %d input scales for %d controls", len(cfg.InputScales), c.NumCtrl)
	}
	if len(cfg.InputLevels) != c.NumCtrl {
		return nil, fmt.Errorf("ssvctl: %d level sets for %d controls", len(cfg.InputLevels), c.NumCtrl)
	}
	for i, ls := range cfg.InputLevels {
		if len(ls) == 0 {
			return nil, fmt.Errorf("ssvctl: empty level set for input %d", i)
		}
	}
	n := c.K.Order()
	no, ne, ni := c.NumOut, c.NumExt, c.NumCtrl
	if cfg.SlewLevels != nil && len(cfg.SlewLevels) != c.NumCtrl {
		return nil, fmt.Errorf("ssvctl: %d slew bounds for %d controls", len(cfg.SlewLevels), c.NumCtrl)
	}
	r := &Runtime{
		ctl:      c,
		outScale: append([]sysid.Scaling(nil), cfg.OutputScales...),
		extScale: append([]sysid.Scaling(nil), cfg.ExternalScales...),
		inScale:  append([]sysid.Scaling(nil), cfg.InputScales...),
		levels:   cfg.InputLevels,
		slew:     append([]int(nil), cfg.SlewLevels...),
		state:    make([]float64, n),
		targets:  make([]float64, no),
		// Multiply-accumulate count of equations (3)-(4): the §VI-D cost.
		opsPerStep: 2 * (n*n + n*(no+ne) + ni*n + ni*(no+ne)),
		bytesState: 8 * (n*n + n*(no+ne) + ni*n + ni*(no+ne) + n),

		dy:      make([]float64, c.K.Inputs()),
		u:       make([]float64, ni),
		du:      make([]float64, ni),
		ax:      make([]float64, n),
		bdy:     make([]float64, n),
		nextX:   make([]float64, n),
		phys:    make([]float64, ni),
		diff:    make([]float64, ni),
		corr:    make([]float64, c.IntCount),
		lastRaw: make([]float64, ni),
	}
	// Integrator back-calculation gain: the integrator block contributes
	// Ki = -C[:, IntStart:IntStart+IntCount] to the command, and because
	// those states are pure (leaky) accumulators, correcting them by
	// Ki^+ (u_sat - u_raw) moves the command exactly onto the realizable
	// value with no transient re-injection.
	if c.IntCount > 0 {
		ki := c.K.C.Slice(0, ni, c.IntStart, c.IntStart+c.IntCount).Scale(-1)
		kkt := ki.Mul(ki.T())
		for i := 0; i < kkt.Rows(); i++ {
			kkt.Set(i, i, kkt.At(i, i)+1e-9)
		}
		inv, err := mat.Inverse(kkt)
		if err == nil {
			r.intInv = ki.T().Mul(inv) // IntCount×ni pseudo-inverse
		}
	}
	return r, nil
}

// SetTargets sets the output targets in physical units.
func (r *Runtime) SetTargets(phys []float64) error {
	if len(phys) != len(r.targets) {
		return fmt.Errorf("ssvctl: %d targets for %d outputs", len(phys), len(r.targets))
	}
	for i, p := range phys {
		r.targets[i] = r.outScale[i].Normalize(p)
	}
	return nil
}

// Targets returns the current targets in physical units.
func (r *Runtime) Targets() []float64 {
	out := make([]float64, len(r.targets))
	for i, t := range r.targets {
		out[i] = r.outScale[i].Denormalize(t)
	}
	return out
}

// Step runs one control interval: measurements and external signals arrive
// in physical units; the returned control inputs are physical values drawn
// from each input's allowed level set.
//
// applied reports the actuator values that were actually in effect during
// the interval the measurements cover (e.g. the effective frequency after
// any firmware throttle cap). Self-conditioned realizations feed it to the
// internal estimator, so neither saturation, quantization, nor firmware
// overrides can wind the controller up or blind it to why its command had
// no effect. Pass nil to fall back to the controller's own quantized
// command.
//
// The returned slice is a per-runtime scratch buffer, valid until the next
// Step call; callers that need to keep it must copy.
func (r *Runtime) Step(measurements, externals, applied []float64) ([]float64, error) {
	c := r.ctl
	if len(measurements) != c.NumOut {
		return nil, fmt.Errorf("ssvctl: %d measurements for %d outputs", len(measurements), c.NumOut)
	}
	if len(externals) != c.NumExt {
		return nil, fmt.Errorf("ssvctl: %d externals for %d external signals", len(externals), c.NumExt)
	}
	if applied != nil && len(applied) != c.NumCtrl {
		return nil, fmt.Errorf("ssvctl: %d applied values for %d controls", len(applied), c.NumCtrl)
	}
	// Graceful degradation on faulted inputs: a non-finite reading means the
	// sensor path dropped this interval. Stepping the state machine on NaN
	// would poison the state vector permanently, so the runtime holds its
	// last good command and freezes its state, integrators and guardband
	// monitor; the next good reading resumes control from where it left off.
	if !finiteAll(measurements) || !finiteAll(externals) {
		r.heldSteps++
		if r.haveU {
			copy(r.phys, r.lastU)
			return r.phys, nil
		}
		// No command issued yet: hold each actuator at its mid-range level.
		for i := range r.phys {
			ls := r.levels[i]
			r.phys[i] = ls[len(ls)/2]
		}
		return r.phys, nil
	}
	// Build the input vector: normalized deviations, then externals, then —
	// for self-conditioned realizations — the applied command (filled in
	// after quantization).
	dy := r.dy
	for i, m := range measurements {
		dy[i] = r.outScale[i].Normalize(m) - r.targets[i]
	}
	for i, e := range externals {
		dy[c.NumOut+i] = r.extScale[i].Normalize(e)
	}

	// u = C x + D Δy.
	u := c.K.C.MulVecTo(r.u, r.state)
	du := c.K.D.MulVecTo(r.du, dy)
	for i := range u {
		u[i] += du[i]
	}

	// Denormalize, saturate and quantize each input to its level set, with
	// hysteresis: the command only moves to a different level when the raw
	// value clears 60% of the gap toward it. Plain nearest-level rounding
	// invites limit cycles when the continuous command sits near a level
	// boundary — the quantizer flips every interval and, for coarse levels
	// like thread counts, each flip is a large plant perturbation.
	if !r.haveU {
		r.lastU = make([]float64, c.NumCtrl)
		r.prevU = make([]float64, c.NumCtrl)
		r.changeAt = make([]int, c.NumCtrl)
		for i := range r.lastU {
			r.lastU[i] = nearestLevel(r.levels[i], r.inScale[i].Denormalize(u[i]))
			r.prevU[i] = r.lastU[i]
			r.changeAt[i] = -dwellSteps
		}
		r.haveU = true
	}
	r.step++
	phys := r.phys
	diff := r.diff // range-clamp excess, normalized
	for i := range diff {
		diff[i] = 0
	}
	saturated := false
	for i := range phys {
		raw := r.inScale[i].Denormalize(u[i])
		r.lastRaw[i] = raw
		cand := nearestLevel(r.levels[i], raw)
		prev := r.lastU[i]
		if cand != prev && math.Abs(raw-prev) < 0.6*math.Abs(cand-prev) {
			// Not yet decisively across the boundary: hold the old level.
			cand = prev
		}
		// Slew limiting: move at most slew[i] levels per interval.
		if cand != prev && r.slew != nil && r.slew[i] > 0 {
			pi := levelIndex(r.levels[i], prev)
			ci := levelIndex(r.levels[i], cand)
			if d := ci - pi; d > r.slew[i] {
				cand = r.levels[i][pi+r.slew[i]]
			} else if d < -r.slew[i] {
				cand = r.levels[i][pi-r.slew[i]]
			}
		}
		// Anti-chatter dwell: undoing the previous change within a few
		// intervals is the signature of a quantizer limit cycle (the raw
		// command rides a level boundary); suppress the reversal the way
		// hotplug governors use hysteresis counters.
		if cand != prev && cand == r.prevU[i] && r.step-r.changeAt[i] < dwellSteps {
			cand = prev
		}
		if cand != prev {
			r.prevU[i] = prev
			r.changeAt[i] = r.step
		}
		phys[i] = cand
		r.lastU[i] = cand
		lo, hi := r.levels[i][0], r.levels[i][len(r.levels[i])-1]
		if raw < lo || raw > hi {
			saturated = true
			clamped := math.Max(lo, math.Min(hi, raw))
			diff[i] = r.inScale[i].Normalize(clamped) - u[i]
		}
	}

	// Advance the state. Self-conditioned realizations receive the applied
	// command as trailing inputs, so the internal estimator tracks what the
	// plant actually got and saturation cannot wind it up.
	if c.UFeedback {
		for i := range phys {
			v := phys[i]
			if applied != nil {
				v = applied[i]
			}
			dy[c.NumOut+c.NumExt+i] = r.inScale[i].Normalize(v)
		}
	}
	ax := c.K.A.MulVecTo(r.ax, r.state)
	bdy := c.K.B.MulVecTo(r.bdy, dy)
	next := r.nextX
	for i := range ax {
		next[i] = ax[i] + bdy[i]
	}

	// Integrator back-calculation: move the accumulators so the command
	// lands on the range-clamped value. Exact (Ki Δxi = diff), so in-range
	// channels keep accumulating toward their next quantization level
	// undisturbed.
	if saturated && r.intInv != nil {
		// u = -Ki xi, so moving the command by diff needs Δxi = -Ki^+ diff.
		corr := r.intInv.MulVecTo(r.corr, diff)
		for i := 0; i < c.IntCount; i++ {
			next[c.IntStart+i] -= corr[i]
		}
	}
	r.state, r.nextX = next, r.state

	// Guardband monitor: if deviations persistently exceed the guaranteed
	// bounds, the modeled uncertainty has been exhausted.
	over := false
	for i := 0; i < c.NumOut; i++ {
		if math.Abs(dy[i]) > c.Report.GuaranteedBounds[i]*1.5 {
			over = true
			break
		}
	}
	if over {
		r.exceedStreak++
		if r.exceedStreak >= 8 {
			r.exceeded = true
		}
	} else {
		r.exceedStreak = 0
	}
	return phys, nil
}

// GuardbandExceeded reports whether the runtime has detected sustained
// deviations beyond the controller's guaranteed bounds — the paper's "the
// controller detects it dynamically" behaviour.
func (r *Runtime) GuardbandExceeded() bool { return r.exceeded }

// HeldSteps returns how many control intervals were skipped because the
// sensor path delivered non-finite readings.
func (r *Runtime) HeldSteps() int { return r.heldSteps }

// Reset clears the controller state, the quantizer hysteresis and the
// guardband monitor.
func (r *Runtime) Reset() {
	for i := range r.state {
		r.state[i] = 0
	}
	r.lastU = nil
	r.prevU = nil
	r.changeAt = nil
	r.step = 0
	r.haveU = false
	r.exceedStreak = 0
	r.exceeded = false
	r.heldSteps = 0
}

// Reseed prepares the runtime for bumpless re-engagement after a fallback
// episode: it clears the controller state, integrators and health monitors
// like Reset, then seeds the quantizer hysteresis from the actuator values
// currently applied to the plant (snapped to each input's level set). The
// first post-reseed Step therefore moves relative to the plant's real
// operating point instead of jumping to whatever the stale state vector
// would command. A nil applied behaves exactly like Reset.
func (r *Runtime) Reseed(applied []float64) error {
	if applied != nil && len(applied) != len(r.levels) {
		return fmt.Errorf("ssvctl: %d applied values for %d controls", len(applied), len(r.levels))
	}
	r.Reset()
	if applied == nil {
		return nil
	}
	n := len(r.levels)
	r.lastU = make([]float64, n)
	r.prevU = make([]float64, n)
	r.changeAt = make([]int, n)
	for i := range r.lastU {
		r.lastU[i] = nearestLevel(r.levels[i], applied[i])
		r.prevU[i] = r.lastU[i]
		r.changeAt[i] = -dwellSteps
		r.lastRaw[i] = r.lastU[i]
	}
	r.haveU = true
	// Bumpless transfer: move the integrator states so the re-engaged
	// controller's zero-deviation command equals the applied operating point
	// (u = -Ki xi, so xi = -Ki^+ u_applied — the same pseudo-inverse the
	// anti-windup correction uses). Without this the first post-reseed
	// command would snap to the mid-range the zero state encodes.
	if r.intInv != nil {
		for i := range r.diff {
			r.diff[i] = r.inScale[i].Normalize(r.lastU[i])
		}
		corr := r.intInv.MulVecTo(r.corr, r.diff)
		for i := 0; i < r.ctl.IntCount; i++ {
			r.state[r.ctl.IntStart+i] -= corr[i]
		}
	}
	return nil
}

// Health is the runtime's self-diagnosis snapshot for a supervisory layer.
type Health struct {
	// GuardbandExceeded mirrors GuardbandExceeded(): sustained deviations
	// beyond the synthesis' guaranteed bounds.
	GuardbandExceeded bool
	// ExceedStreak is the current run of consecutive intervals whose
	// deviations exceeded the guaranteed bounds (zero when the latest
	// interval was back inside them). Unlike the latched GuardbandExceeded,
	// it distinguishes an ongoing excursion from an old one.
	ExceedStreak int
	// HeldSteps mirrors HeldSteps(): cumulative intervals skipped on
	// non-finite sensor readings.
	HeldSteps int
	// Railed reports that some channel's latest raw command sat beyond its
	// physical level range by more than half the range's span — the
	// controller is not merely saturating but pushing far outside the
	// actuator's reality.
	Railed bool
	// NonFinite reports that the latest raw command contained NaN/Inf.
	NonFinite bool
}

// Health returns the runtime's current health snapshot.
func (r *Runtime) Health() Health {
	h := Health{GuardbandExceeded: r.exceeded, ExceedStreak: r.exceedStreak, HeldSteps: r.heldSteps}
	if r.step == 0 {
		return h
	}
	for i, raw := range r.lastRaw {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			h.NonFinite = true
			continue
		}
		ls := r.levels[i]
		lo, hi := ls[0], ls[len(ls)-1]
		span := hi - lo
		if span <= 0 {
			span = math.Max(math.Abs(hi), 1)
		}
		if raw < lo-float64(0.5*span) || raw > hi+float64(0.5*span) {
			h.Railed = true
		}
	}
	return h
}

// finiteAll reports whether every element of v is a finite number.
func finiteAll(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// OpsPerStep returns the number of fixed-point multiply/add operations one
// invocation performs — the §VI-D hardware-cost estimate.
func (r *Runtime) OpsPerStep() int { return r.opsPerStep }

// StateBytes returns the storage footprint of the controller matrices and
// state (§VI-D reports ≈2.6 KB for N=20, I=4, O=4, E=3).
func (r *Runtime) StateBytes() int { return r.bytesState }

// Report exposes the synthesis report of the wrapped controller.
func (r *Runtime) Report() robust.Report { return r.ctl.Report }

// levelIndex returns the index of level v in the sorted level set.
func levelIndex(levels []float64, v float64) int {
	best, bd := 0, math.Abs(v-levels[0])
	for i, l := range levels[1:] {
		if d := math.Abs(v - l); d < bd {
			best, bd = i+1, d
		}
	}
	return best
}

// nearestLevel returns the closest allowed level to v. Levels must be sorted
// ascending; ties resolve to the lower level.
func nearestLevel(levels []float64, v float64) float64 {
	best := levels[0]
	bd := math.Abs(v - best)
	for _, l := range levels[1:] {
		if d := math.Abs(v - l); d < bd {
			best, bd = l, d
		}
	}
	return best
}

// Levels builds an ascending level set from lo to hi in the given step.
func Levels(lo, hi, step float64) []float64 {
	if step <= 0 || hi < lo {
		return []float64{lo}
	}
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, math.Round(v*1e6)/1e6)
	}
	return out
}
