// Package lqgctl is the runtime for the paper's LQG baseline (§VI-B): the
// same state-machine stepping as an SSV controller, but with the
// deficiencies the paper attributes to LQG designs — the controller assumes
// inputs are continuous and unbounded, so it has no saturation awareness
// (its internal state keeps winding while an actuator is pinned at its
// physical limit, wasting intervals "trying to change an input beyond its
// limit and observing no change"), and it has no notion of the actuators'
// discrete level sets (commands are rounded only at the very end, outside
// the controller's knowledge).
package lqgctl

import (
	"fmt"
	"math"

	"yukta/internal/robust"
	"yukta/internal/sysid"
)

// Runtime executes an LQG controller against physical signals.
type Runtime struct {
	ctl *robust.Controller

	outScale []sysid.Scaling
	extScale []sysid.Scaling
	inScale  []sysid.Scaling
	levels   [][]float64

	state   []float64
	targets []float64

	wastedSteps int
	totalSteps  int

	// Hold-last-good state: even the deficient LQG baseline is assumed to be
	// implemented competently enough not to feed NaN into its state machine,
	// so on a dropped sensor reading it repeats its previous command.
	lastPhys  []float64
	havePhys  bool
	heldSteps int

	// lastRaw is the previous raw (pre-rounding) physical command, kept for
	// health introspection.
	lastRaw []float64
	stepped bool

	// Per-step scratch buffers so the 500 ms control loop does not allocate.
	dy, u, du, ax, bdy, phys []float64
}

// Config wires the controller to its physical signals; identical shape to
// the SSV runtime so schemes can be built uniformly.
type Config struct {
	// Controller is the synthesized LQG controller to run.
	Controller *robust.Controller
	// OutputScales, ExternalScales and InputScales give the physical range
	// of each signal in the order the model was identified.
	OutputScales   []sysid.Scaling
	ExternalScales []sysid.Scaling // physical range of each external input
	InputScales    []sysid.Scaling // physical range of each control input
	// InputLevels lists the allowed physical values of each control input.
	InputLevels [][]float64
}

// New validates the wiring.
func New(cfg Config) (*Runtime, error) {
	c := cfg.Controller
	if c == nil {
		return nil, fmt.Errorf("lqgctl: nil controller")
	}
	if len(cfg.OutputScales) != c.NumOut || len(cfg.ExternalScales) != c.NumExt ||
		len(cfg.InputScales) != c.NumCtrl || len(cfg.InputLevels) != c.NumCtrl {
		return nil, fmt.Errorf("lqgctl: scale/level arity mismatch for %d/%d/%d controller",
			c.NumOut, c.NumExt, c.NumCtrl)
	}
	for i, ls := range cfg.InputLevels {
		if len(ls) == 0 {
			return nil, fmt.Errorf("lqgctl: empty level set for input %d", i)
		}
	}
	return &Runtime{
		ctl:      c,
		outScale: append([]sysid.Scaling(nil), cfg.OutputScales...),
		extScale: append([]sysid.Scaling(nil), cfg.ExternalScales...),
		inScale:  append([]sysid.Scaling(nil), cfg.InputScales...),
		levels:   cfg.InputLevels,
		state:    make([]float64, c.K.Order()),
		targets:  make([]float64, c.NumOut),
		dy:       make([]float64, c.NumOut+c.NumExt),
		u:        make([]float64, c.NumCtrl),
		du:       make([]float64, c.NumCtrl),
		ax:       make([]float64, c.K.Order()),
		bdy:      make([]float64, c.K.Order()),
		phys:     make([]float64, c.NumCtrl),
		lastRaw:  make([]float64, c.NumCtrl),
	}, nil
}

// SetTargets sets output targets in physical units.
func (r *Runtime) SetTargets(phys []float64) error {
	if len(phys) != len(r.targets) {
		return fmt.Errorf("lqgctl: %d targets for %d outputs", len(phys), len(r.targets))
	}
	for i, p := range phys {
		r.targets[i] = r.outScale[i].Normalize(p)
	}
	return nil
}

// Step runs one control interval. The returned inputs are physical values
// rounded to the nearest allowed level — but, unlike the SSV runtime, the
// controller state evolves as if the unbounded command had been applied.
//
// The returned slice is a per-runtime scratch buffer, valid until the next
// Step call; callers that need to keep it must copy.
func (r *Runtime) Step(measurements, externals []float64) ([]float64, error) {
	c := r.ctl
	if len(measurements) != c.NumOut || len(externals) != c.NumExt {
		return nil, fmt.Errorf("lqgctl: arity mismatch (%d meas, %d ext)", len(measurements), len(externals))
	}
	// Graceful degradation on faulted inputs: hold the previous command and
	// freeze the state rather than stepping on non-finite readings. Note the
	// windup deficiency remains — the held state is whatever the controller
	// had wound itself to.
	if !finiteAll(measurements) || !finiteAll(externals) {
		r.heldSteps++
		if r.havePhys {
			copy(r.phys, r.lastPhys)
			return r.phys, nil
		}
		for i := range r.phys {
			lv := r.levels[i]
			r.phys[i] = lv[len(lv)/2]
		}
		return r.phys, nil
	}
	dy := r.dy
	for i, m := range measurements {
		dy[i] = r.outScale[i].Normalize(m) - r.targets[i]
	}
	for i, e := range externals {
		dy[c.NumOut+i] = r.extScale[i].Normalize(e)
	}
	u := c.K.C.MulVecTo(r.u, r.state)
	du := c.K.D.MulVecTo(r.du, dy)
	for i := range u {
		u[i] += du[i]
	}
	ax := c.K.A.MulVecTo(r.ax, r.state)
	bdy := c.K.B.MulVecTo(r.bdy, dy)
	for i := range ax {
		r.state[i] = ax[i] + bdy[i]
	}

	phys := r.phys
	wasted := false
	for i := range phys {
		raw := r.inScale[i].Denormalize(u[i])
		r.lastRaw[i] = raw
		lv := r.levels[i]
		if raw < lv[0]-float64(0.25*(lv[len(lv)-1]-lv[0])) || raw > lv[len(lv)-1]+float64(0.25*(lv[len(lv)-1]-lv[0])) {
			// The controller is commanding far beyond the physical range:
			// this interval is spent "changing an input beyond its limit and
			// observing no change" (§VI-B).
			wasted = true
		}
		phys[i] = nearest(lv, raw)
	}
	r.totalSteps++
	r.stepped = true
	if wasted {
		r.wastedSteps++
	}
	if r.lastPhys == nil {
		r.lastPhys = make([]float64, len(phys))
	}
	copy(r.lastPhys, phys)
	r.havePhys = true
	return phys, nil
}

// HeldSteps returns how many control intervals were skipped because the
// sensor path delivered non-finite readings.
func (r *Runtime) HeldSteps() int { return r.heldSteps }

// WastedFraction reports the fraction of control intervals spent commanding
// actuators beyond their physical limits — the paper measures 9% for
// bodytrack under LQG.
func (r *Runtime) WastedFraction() float64 {
	if r.totalSteps == 0 {
		return 0
	}
	return float64(r.wastedSteps) / float64(r.totalSteps)
}

// Reset clears the controller state.
func (r *Runtime) Reset() {
	for i := range r.state {
		r.state[i] = 0
	}
	r.wastedSteps, r.totalSteps = 0, 0
	r.lastPhys = nil
	r.havePhys = false
	r.heldSteps = 0
	r.stepped = false
	for i := range r.lastRaw {
		r.lastRaw[i] = 0
	}
}

// Reseed prepares the runtime for bumpless re-engagement: Reset plus
// hold-last-good state seeded from the actuator values currently applied to
// the plant (snapped to each input's level set), so a sensor dropout on the
// very first post-reseed interval repeats the plant's real operating point.
// Unlike the SSV runtime there is no quantizer hysteresis to seed — the LQG
// baseline rounds from scratch every interval. A nil applied behaves exactly
// like Reset.
func (r *Runtime) Reseed(applied []float64) error {
	if applied != nil && len(applied) != len(r.levels) {
		return fmt.Errorf("lqgctl: %d applied values for %d controls", len(applied), len(r.levels))
	}
	r.Reset()
	if applied == nil {
		return nil
	}
	r.lastPhys = make([]float64, len(applied))
	for i, v := range applied {
		r.lastPhys[i] = nearest(r.levels[i], v)
	}
	r.havePhys = true
	return nil
}

// Health is the runtime's self-diagnosis snapshot for a supervisory layer;
// the same shape as the SSV runtime's so a wrapper can merge the two. The
// baseline has no guardband monitor, so GuardbandExceeded is always false.
type Health struct {
	// GuardbandExceeded is always false (no guardband synthesis for LQG).
	GuardbandExceeded bool
	// HeldSteps mirrors HeldSteps().
	HeldSteps int
	// Railed reports a raw command beyond the physical level range by more
	// than half the range's span.
	Railed bool
	// NonFinite reports NaN/Inf in the latest raw command.
	NonFinite bool
}

// Health returns the runtime's current health snapshot.
func (r *Runtime) Health() Health {
	h := Health{HeldSteps: r.heldSteps}
	if !r.stepped {
		return h
	}
	for i, raw := range r.lastRaw {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			h.NonFinite = true
			continue
		}
		lv := r.levels[i]
		lo, hi := lv[0], lv[len(lv)-1]
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

func nearest(levels []float64, v float64) float64 {
	best := levels[0]
	bd := math.Abs(v - best)
	for _, l := range levels[1:] {
		if d := math.Abs(v - l); d < bd {
			best, bd = l, d
		}
	}
	return best
}
