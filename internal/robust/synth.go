package robust

import (
	"fmt"
	"math"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// Spec is the designer-facing description of one layer's SSV controller, the
// Go equivalent of the paper's Tables II and III. All signals are in
// normalized units: the system-identification layer maps each physical
// signal's observed range onto [-1, 1], so a bound of 0.2 means ±20% of the
// signal's full range, exactly as the paper specifies bounds.
type Spec struct {
	// Plant is the identified model. Its first NumControls inputs are the
	// signals this controller actuates on; the remaining inputs are external
	// signals received from other layers (paper §III-B).
	Plant       *lti.StateSpace
	NumControls int

	// InputWeights holds the designer's weight for each control input; the
	// controller changes low-weight inputs more eagerly (paper §IV-A).
	InputWeights []float64
	// InputQuanta holds the quantization step of each control input in
	// normalized units (e.g. a 0.1 GHz step on a 1.8 GHz range is 2*0.1/1.8).
	InputQuanta []float64
	// OutputBounds holds the allowed deviation of each output from its
	// target, in normalized units (±fraction of the signal range).
	OutputBounds []float64
	// Uncertainty is the guardband: 0.4 means the outputs may deviate ±40%
	// from the model's prediction (paper §II-B).
	Uncertainty float64

	// TargetScale is the magnitude of target (reference) changes the
	// controller must absorb, in normalized units. The optimizer caps its
	// per-move target step at a quarter of the signal range, so the default
	// of 0.25 is ample.
	TargetScale float64
	// TargetScales optionally overrides TargetScale per output: outputs whose
	// targets the optimizer moves rarely or in small steps (e.g. the fixed
	// temperature target) should charge a smaller reference magnitude.
	TargetScales []float64

	// MinPenalty sets the lowest control penalty (rho) the design ladder
	// starts from. The validation stage of the design process (paper Fig. 3)
	// raises it when a synthesized candidate, although certified against the
	// declared uncertainty, misbehaves on the real system — the paper's
	// remedy when the guardband underestimates reality. Zero means 1.
	MinPenalty float64
	// IntegralWeight scales the penalty on the output-error integrators that
	// give the controller zero steady-state tracking error. Default 0.05.
	IntegralWeight float64
}

// Report summarizes the outcome of a synthesis run, mirroring what MATLAB's
// routines report to the designer in the paper's flow.
type Report struct {
	// SSV is the structured singular value upper bound of the final closed
	// loop; robustness requires SSV <= 1 (min(s) = 1/SSV >= 1).
	SSV float64
	// SSVLower is the power-iteration lower bound on the same quantity;
	// together with SSV it brackets the true structured singular value
	// (0 when the lower bound was not computed).
	SSVLower float64
	// MinS is 1/SSV, the paper's worst-case scaling factor min(s).
	MinS float64
	// GuaranteedBounds are the output deviation bounds the controller can
	// actually guarantee: the requested bounds inflated by max(1, SSV).
	GuaranteedBounds []float64
	// Iterations is the number of candidate controllers evaluated.
	Iterations int
	// ControlPenalty is the final control-effort scaling (rho) chosen by the
	// iteration; larger means a more conservative controller.
	ControlPenalty float64
	// StateDim is the controller's state dimension N (paper §VI-D).
	StateDim int
}

// Controller is a synthesized SSV controller realization
//
//	x(T+1) = A x(T) + B Δy(T)
//	u(T)   = C x(T) + D Δy(T)
//
// where Δy stacks the output deviations from targets followed by the
// external signals — exactly the state machine of paper §VI-D, equations (3)
// and (4).
type Controller struct {
	K       *lti.StateSpace
	NumOut  int // number of plant outputs (deviations) in Δy
	NumExt  int // number of external signals in Δy
	NumCtrl int // number of controls produced
	Report  Report

	// IntStart and IntCount locate the output-error integrator block inside
	// the controller state vector; the runtime uses it for anti-windup when
	// actuator saturation clamps the computed inputs.
	IntStart, IntCount int

	// UFeedback reports that the realization expects the *applied* (clamped
	// and quantized) command as its trailing NumCtrl inputs, after Δy and
	// the external signals (Hanus self-conditioning: the internal estimator
	// then tracks what the plant actually received, so actuator saturation
	// cannot wind it up). When false (the LQG baseline), the computed
	// command is baked into the state transition and saturation winds the
	// controller — the §VI-B deficiency.
	UFeedback bool
}

func (s *Spec) validate() error {
	if s.Plant == nil {
		return fmt.Errorf("%w: nil plant", ErrSynthesis)
	}
	nu := s.NumControls
	if nu < 1 || nu > s.Plant.Inputs() {
		return fmt.Errorf("%w: NumControls=%d with %d plant inputs", ErrSynthesis, nu, s.Plant.Inputs())
	}
	if len(s.InputWeights) != nu {
		return fmt.Errorf("%w: %d input weights for %d controls", ErrSynthesis, len(s.InputWeights), nu)
	}
	if len(s.InputQuanta) != nu {
		return fmt.Errorf("%w: %d input quanta for %d controls", ErrSynthesis, len(s.InputQuanta), nu)
	}
	if len(s.OutputBounds) != s.Plant.Outputs() {
		return fmt.Errorf("%w: %d output bounds for %d outputs", ErrSynthesis, len(s.OutputBounds), s.Plant.Outputs())
	}
	for i, w := range s.InputWeights {
		if w <= 0 {
			return fmt.Errorf("%w: input weight %d is %v, must be positive", ErrSynthesis, i, w)
		}
	}
	for i, b := range s.OutputBounds {
		if b <= 0 {
			return fmt.Errorf("%w: output bound %d is %v, must be positive", ErrSynthesis, i, b)
		}
	}
	if s.Uncertainty < 0 {
		return fmt.Errorf("%w: negative uncertainty guardband", ErrSynthesis)
	}
	if s.TargetScales != nil && len(s.TargetScales) != s.Plant.Outputs() {
		return fmt.Errorf("%w: %d target scales for %d outputs", ErrSynthesis, len(s.TargetScales), s.Plant.Outputs())
	}
	return nil
}

// resolveTargetScales returns the per-output reference magnitudes, applying
// the uniform default when no per-output values are given.
func (s *Spec) resolveTargetScales() []float64 {
	out := make([]float64, s.Plant.Outputs())
	uniform := s.TargetScale
	if uniform <= 0 {
		uniform = 0.25
	}
	for i := range out {
		out[i] = uniform
		if s.TargetScales != nil && s.TargetScales[i] > 0 {
			out[i] = s.TargetScales[i]
		}
	}
	return out
}

// Synthesize runs the SSV design loop: it proposes controller candidates of
// decreasing aggressiveness (increasing control penalty rho), evaluates the
// structured singular value of each candidate's closed loop against the
// specified uncertainty, bounds and weights, and returns the most aggressive
// candidate whose SSV is at most 1. If no candidate is robust, the best
// candidate is returned along with the (degraded) bounds it can guarantee —
// the behaviour the paper describes when the designer's Δ/B/W are too
// demanding. A robust candidate's report also carries the μ lower bound
// (SSVLower).
func Synthesize(spec *Spec) (*Controller, error) {
	ctl, err := SynthesizeWithoutLower(spec)
	if err != nil {
		return nil, err
	}
	FillSSVLower(spec, ctl)
	return ctl, nil
}

// SynthesizeWithoutLower is Synthesize without the μ lower bound: it
// returns the same controller with Report.SSVLower left 0. A design flow
// that synthesizes several candidates and keeps one (the validation stage
// of paper Fig. 3) calls FillSSVLower on the kept one only.
func SynthesizeWithoutLower(spec *Spec) (*Controller, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tScales := spec.resolveTargetScales()
	intW := spec.IntegralWeight
	if intW <= 0 {
		intW = 0.05
	}

	// The rho ladder: most aggressive first. Geometric spacing covers the
	// regimes from eager to sluggish controllers (paper §VI-E3).
	var (
		bestCtl *Controller
		iters   int
	)
	rho := spec.MinPenalty
	if rho <= 0 {
		rho = 1.0
	}
	for step := 0; step < 12; step++ {
		iters++
		k, err := designCandidate(spec, rho, intW, true)
		if err != nil {
			rho *= 2
			continue
		}
		ssv, err := evaluateSSV(spec, k, tScales)
		if err != nil {
			rho *= 2
			continue
		}
		cand := &Controller{
			K:         k,
			NumOut:    spec.Plant.Outputs(),
			NumExt:    spec.Plant.Inputs() - spec.NumControls,
			NumCtrl:   spec.NumControls,
			IntStart:  spec.Plant.Order(),
			IntCount:  spec.Plant.Outputs(),
			UFeedback: true,
			Report: Report{
				SSV:            ssv,
				MinS:           1 / ssv,
				Iterations:     iters,
				ControlPenalty: rho,
				StateDim:       k.Order(),
			},
		}
		cand.Report.GuaranteedBounds = make([]float64, len(spec.OutputBounds))
		infl := ssv
		if infl < 1 {
			infl = 1
		}
		for i, b := range spec.OutputBounds {
			cand.Report.GuaranteedBounds[i] = b * infl
		}
		if bestCtl == nil || cand.Report.SSV < bestCtl.Report.SSV {
			bestCtl = cand
		}
		if ssv <= 1 {
			cand.Report.Iterations = iters
			return cand, nil
		}
		rho *= 2
	}
	if bestCtl == nil {
		return nil, fmt.Errorf("%w: no stabilizing candidate found", ErrSynthesis)
	}
	bestCtl.Report.Iterations = iters
	return bestCtl, nil
}

// FillSSVLower sets ctl.Report.SSVLower, the peak μ lower bound of its
// closed loop over a 25-point frequency grid, when ctl is certified robust
// (SSV <= 1); ctl must come from SynthesizeWithoutLower(spec). Only the
// peak is kept, so the power iteration runs only at the grid points whose
// caps exceed the bounds already found (DESIGN.md §19). An uncertified
// design, or one whose closed loop cannot be formed, keeps 0.
func FillSSVLower(spec *Spec, ctl *Controller) {
	if !(ctl.Report.SSV <= 1) {
		return
	}
	cl, err := buildClosedLoop(spec, ctl.K, spec.resolveTargetScales())
	if err != nil {
		return
	}
	// The upper bound is already in the report: sweep the lower one alone.
	ctl.Report.SSVLower, _, _, _ = sweepMu(cl, 24, false, true)
}

// DesignAtPenalty synthesizes a single SSV candidate at the given control
// penalty and reports its structured singular value without iterating. The
// sensitivity studies use it to answer the designer's question in Fig. 16(a):
// keeping the same controller aggressiveness (input weights W) and requested
// bounds B, what deviation bounds can actually be guaranteed as the
// uncertainty guardband Δ grows? The guaranteed bounds are B scaled by
// max(1, SSV) = B/min(1, min(s)).
func DesignAtPenalty(spec *Spec, rho float64) (*Controller, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	intW := spec.IntegralWeight
	if intW <= 0 {
		intW = 0.05
	}
	k, err := designCandidate(spec, rho, intW, true)
	if err != nil {
		return nil, err
	}
	ssv, err := evaluateSSV(spec, k, spec.resolveTargetScales())
	if err != nil {
		return nil, err
	}
	cand := &Controller{
		K:         k,
		NumOut:    spec.Plant.Outputs(),
		NumExt:    spec.Plant.Inputs() - spec.NumControls,
		NumCtrl:   spec.NumControls,
		IntStart:  spec.Plant.Order(),
		IntCount:  spec.Plant.Outputs(),
		UFeedback: true,
		Report: Report{
			SSV:            ssv,
			MinS:           1 / ssv,
			Iterations:     1,
			ControlPenalty: rho,
			StateDim:       k.Order(),
		},
	}
	cand.Report.GuaranteedBounds = make([]float64, len(spec.OutputBounds))
	infl := ssv
	if infl < 1 {
		infl = 1
	}
	for i, b := range spec.OutputBounds {
		cand.Report.GuaranteedBounds[i] = b * infl
	}
	return cand, nil
}

// SynthesizeLQG builds the paper's §VI-B baseline: a plain MIMO LQG servo
// controller from the same identified model and comparable input/output
// weights, but with none of the SSV machinery — no uncertainty-guardband
// iteration, no output-deviation bounds (OutputBounds act only as inverse
// output weights), and no awareness of input saturation or quantization.
func SynthesizeLQG(spec *Spec) (*Controller, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	intW := spec.IntegralWeight
	if intW <= 0 {
		intW = 0.05
	}
	// The LQG design frameworks the paper compares against ([35], [41]) are
	// not natively optimized for uncertainty: they use guardbands only to
	// discard unstable designs and, when that triggers, inflate the weights
	// — "trading optimality and fast response time for robustness" (§II-D,
	// §VI-B). The fixed conservative penalty models that detuned outcome,
	// in contrast to the SSV loop whose μ certificate admits aggressive
	// designs under the same guardband.
	const lqgDetunedPenalty = 4.0
	k, err := designCandidate(spec, lqgDetunedPenalty, intW, false)
	if err != nil {
		return nil, err
	}
	gb := make([]float64, len(spec.OutputBounds))
	copy(gb, spec.OutputBounds)
	return &Controller{
		K:        k,
		NumOut:   spec.Plant.Outputs(),
		NumExt:   spec.Plant.Inputs() - spec.NumControls,
		NumCtrl:  spec.NumControls,
		IntStart: spec.Plant.Order(),
		IntCount: spec.Plant.Outputs(),
		Report: Report{
			SSV:              math.NaN(), // LQG provides no robustness certificate
			MinS:             math.NaN(),
			GuaranteedBounds: gb,
			Iterations:       1,
			ControlPenalty:   lqgDetunedPenalty,
			StateDim:         k.Order(),
		},
	}, nil
}

// intLeak is the pole of the servo integrators. Pure integrators (pole 1)
// force exact tracking of all output targets simultaneously; when the
// plant's DC gain is ill-conditioned — on the board, temperature is almost
// collinear with the cluster powers — an infeasible target combination then
// demands unbounded inputs. With leaky integrators the steady state instead
// solves a weighted least-squares compromise, which is precisely the
// degradation the paper specifies: "it keeps the deviations at least
// proportional to their relative bounds values".
const intLeak = 0.96

// designCandidate builds one LQG-servo candidate controller for the given
// control penalty rho. The controller has (leaky) integral action on every
// output for near-offset-free tracking of the optimizer's targets, a Kalman
// estimator driven by the output deviations, and feedforward of the external
// signals into the estimator's model.
func designCandidate(spec *Spec, rho, intW float64, uFeedback bool) (*lti.StateSpace, error) {
	g := spec.Plant
	n := g.Order()
	ny := g.Outputs()
	nu := spec.NumControls
	ne := g.Inputs() - nu

	bu := g.B.Slice(0, n, 0, nu)
	be := g.B.Slice(0, n, nu, nu+ne)
	du := g.D.Slice(0, ny, 0, nu)

	// Servo augmentation: xi+ = intLeak*xi + y.
	na := n + ny
	aAug := mat.Zeros(na, na)
	aAug.SetSlice(0, 0, g.A)
	aAug.SetSlice(n, 0, g.C)
	aAug.SetSlice(n, n, mat.Identity(ny).Scale(intLeak))
	bAug := mat.Zeros(na, nu)
	bAug.SetSlice(0, 0, bu)
	bAug.SetSlice(n, 0, du)

	// State penalty: outputs weighted by 1/bound^2, integrators by intW/bound^2.
	cAug := mat.Zeros(ny, na)
	cAug.SetSlice(0, 0, g.C)
	qy := make([]float64, ny)
	for i, b := range spec.OutputBounds {
		qy[i] = 1 / (b * b)
	}
	q := cAug.T().Mul(mat.Diag(qy)).Mul(cAug)
	for i := 0; i < ny; i++ {
		q.Set(n+i, n+i, q.At(n+i, n+i)+float64(intW*qy[i]))
	}
	// Regularize to keep Q positive semidefinite and detectable.
	for i := 0; i < na; i++ {
		q.Set(i, i, q.At(i, i)+1e-9)
	}
	rw := make([]float64, nu)
	for i, w := range spec.InputWeights {
		rw[i] = rho * w * w
	}
	kGain, _, err := LQRGain(aAug, bAug, q, mat.Diag(rw))
	if err != nil {
		return nil, err
	}
	kx := kGain.Slice(0, nu, 0, n)
	ki := kGain.Slice(0, nu, n, na)

	// Kalman estimator on the plant state. Process noise shaped by the input
	// directions plus the uncertainty guardband; measurement noise small.
	wCov := bu.Mul(bu.T()).Scale(0.1 + spec.Uncertainty)
	for i := 0; i < n; i++ {
		wCov.Set(i, i, wCov.At(i, i)+1e-4)
	}
	vDiag := make([]float64, ny)
	for i := range vDiag {
		vDiag[i] = 0.01
	}
	l, _, err := KalmanGain(g.A, g.C, wCov, mat.Diag(vDiag))
	if err != nil {
		return nil, err
	}

	// Assemble the controller realization. Controller state: [xhat; xi].
	//   u     = -Kx xhat - Ki xi
	//   xhat+ = A xhat + Bu u* + Be e + L(Δy - C xhat - Du u*)
	//   xi+   = intLeak xi + Δy
	// Outputs: u (nu).
	//
	// With uFeedback, u* is the *applied* command delivered as trailing
	// inputs (Hanus conditioning): inputs are [Δy (ny); e (ne); u* (nu)].
	// Without it, u* = u is baked into the transition: inputs are
	// [Δy (ny); e (ne)].
	ck := mat.Zeros(nu, na)
	ck.SetSlice(0, 0, kx.Scale(-1))
	ck.SetSlice(0, n, ki.Scale(-1))

	buEff := bu.Sub(l.Mul(du)) // how u* enters the estimator
	acl := mat.Zeros(na, na)
	acl.SetSlice(0, 0, g.A.Sub(l.Mul(g.C)))
	acl.SetSlice(n, n, mat.Identity(ny).Scale(intLeak))

	nin := ny + ne
	if uFeedback {
		nin += nu
	}
	bk := mat.Zeros(na, nin)
	bk.SetSlice(0, 0, l)
	bk.SetSlice(0, ny, be)
	bk.SetSlice(n, 0, mat.Identity(ny))
	if uFeedback {
		bk.SetSlice(0, ny+ne, buEff)
	} else {
		// Bake u = Ck x into the transition.
		acl = acl.Add(stackRows(buEff, n, na).Mul(ck))
	}
	dk := mat.Zeros(nu, nin)

	return lti.NewStateSpace(acl, bk, ck, dk, g.Ts)
}

// stackRows embeds the n-row matrix m into a matrix with total rows, the
// remaining rows zero.
func stackRows(m *mat.Matrix, n, total int) *mat.Matrix {
	out := mat.Zeros(total, m.Cols())
	out.SetSlice(0, 0, m)
	return out
}

// Frequency-shaping constants for the Δ-N analysis. The performance weight
// is a low-pass (bounds are a steady-state/driven-signal requirement; during
// a target step the transient is not charged at full rate), and the
// uncertainty weight is a high-pass (the Box-Jenkins model is accurate at
// steady state; the guardband covers fast unmodeled dynamics and
// cross-controller interference).
const (
	perfPole  = 0.85 // pole of the performance low-pass weight
	perfFloor = 0.05 // high-frequency floor of the performance weight
	uncPole   = 0.5  // pole of the uncertainty high-pass weight
	uncFloor  = 0.5  // fraction of the guardband applied at all frequencies
	effortCap = 0.3  // scaling of the input-weight channel
)

// evaluateSSV forms the Δ-facing closed loop N of the candidate controller
// and returns the peak structured-singular-value upper bound over frequency.
func evaluateSSV(spec *Spec, k *lti.StateSpace, tScales []float64) (float64, error) {
	cl, err := buildClosedLoop(spec, k, tScales)
	if err != nil {
		return 0, err
	}
	if !cl.IsStable() {
		return 1e6, nil
	}
	return SystemMu(cl, 48)
}

// buildClosedLoop assembles the Δ-N interconnection of the paper's Figure 2:
// the generalized plant carries the output uncertainty block (guardband,
// high-pass weighted), the input quantization/weight block, and the
// performance block (bounds B, low-pass weighted, with target scale tScale),
// and the candidate controller is closed around the measurement channel.
func buildClosedLoop(spec *Spec, k *lti.StateSpace, tScales []float64) (*lti.StateSpace, error) {
	g := spec.Plant
	n := g.Order()
	ny := g.Outputs()
	nu := spec.NumControls

	bu := g.B.Slice(0, n, 0, nu)
	du := g.D.Slice(0, ny, 0, nu)

	q2 := make([]float64, nu)
	for i, qv := range spec.InputQuanta {
		q2[i] = qv / 2
	}
	q2d := mat.Diag(q2)
	delta := spec.Uncertainty
	binv := make([]float64, ny)
	for i, b := range spec.OutputBounds {
		binv[i] = 1 / b
	}
	binvD := mat.Diag(binv)
	wD := mat.Diag(spec.InputWeights).Scale(effortCap)

	// khp normalizes the high-pass (z-1)/(z-uncPole) to unit gain at Nyquist.
	khp := (1 + uncPole) / 2

	// Generalized plant P with weighting filters.
	// State: [x (n); xw (ny) perf low-pass; xu (ny) unc high-pass].
	// Inputs: [w1(ny) unc | w2(nu) quant | w3(ny) targets | u(nu)].
	// Outputs: [f1(ny) | f2(nu) | z3(ny) | ymeas(ny)].
	//
	//   x+  = A x + Bu (u + (q/2) w2)
	//   y   = C x + Du (u + (q/2) w2)            (true output)
	//   Δy  = y + w1 - tScale w3                 (measured deviation)
	//   xw+ = perfPole xw + (1-perfPole) Δy
	//   xu+ = uncPole xu + y
	//   f1  = delta (uncFloor y + (1-uncFloor) khp (y + (uncPole-1) xu))
	//   f2  = effortCap W u
	//   z3  = (1/B)(xw + perfFloor Δy)
	np := n + 2*ny
	nin := ny + nu + ny + nu

	// Row builders over [x | xw | xu] states and the 4 input blocks.
	// y state/input coefficient rows:
	yC := mat.Zeros(ny, np)
	yC.SetSlice(0, 0, g.C)
	yD := mat.Zeros(ny, nin)
	yD.SetSlice(0, ny, du.Mul(q2d))
	yD.SetSlice(0, ny+nu+ny, du)
	// Δy rows = y rows + w1 - tScale w3.
	dyC := yC.Clone()
	dyD := yD.Clone()
	dyD.SetSlice(0, 0, mat.Identity(ny))
	tsD := mat.Diag(tScales)
	dyD.SetSlice(0, ny+nu, tsD.Scale(-1))

	a := mat.Zeros(np, np)
	a.SetSlice(0, 0, g.A)
	a.SetSlice(n, 0, dyC.Slice(0, ny, 0, n).Scale(1-perfPole))
	a.SetSlice(n, n, mat.Identity(ny).Scale(perfPole))
	a.SetSlice(n+ny, 0, g.C)
	a.SetSlice(n+ny, n+ny, mat.Identity(ny).Scale(uncPole))

	bMat := mat.Zeros(np, nin)
	bMat.SetSlice(0, ny, bu.Mul(q2d))
	bMat.SetSlice(0, ny+nu+ny, bu)
	bMat.SetSlice(n, 0, dyD.Scale(1-perfPole))
	bMat.SetSlice(n+ny, 0, yD)

	rows := ny + nu + ny + ny
	c := mat.Zeros(rows, np)
	d := mat.Zeros(rows, nin)
	// f1 = delta*(uncFloor*y + (1-uncFloor)*khp*(y + (uncPole-1) xu)):
	// the guardband is never below uncFloor*delta (model error such as
	// wrong local gains is broadband, including DC), and rises to the full
	// delta at high frequency where unmodeled dynamics dominate.
	gainY := delta * (uncFloor + (1-uncFloor)*khp)
	c.SetSlice(0, 0, g.C.Scale(gainY))
	c.SetSlice(0, n+ny, mat.Identity(ny).Scale(delta*(1-uncFloor)*khp*(uncPole-1)))
	d.SetSlice(0, 0, yD.Scale(gainY))
	// f2 = effortCap * W u.
	d.SetSlice(ny, ny+nu+ny, wD)
	// z3 = (1/B)(xw + perfFloor Δy).
	c.SetSlice(ny+nu, n, binvD)
	c.SetSlice(ny+nu, 0, binvD.Mul(dyC.Slice(0, ny, 0, n)).Scale(perfFloor))
	d.SetSlice(ny+nu, 0, binvD.Mul(dyD).Scale(perfFloor))
	// ymeas = Δy.
	c.SetSlice(ny+nu+ny, 0, dyC.Slice(0, ny, 0, n))
	d.SetSlice(ny+nu+ny, 0, dyD)

	p, err := lti.NewStateSpace(a, bMat, c, d, g.Ts)
	if err != nil {
		return nil, err
	}
	// The controller sees only Δy during analysis (external signals are
	// other layers' business, absorbed by the guardband per §III-B). When
	// the realization carries the applied-command feedback inputs, close
	// them nominally (u* = u = Ck x), which recovers the same transfer
	// function the non-conditioned realization has.
	ka := k.A
	ne := spec.Plant.Inputs() - nu
	if k.Inputs() == ny+ne+nu {
		bkU := k.B.Slice(0, k.Order(), ny+ne, ny+ne+nu)
		ka = k.A.Add(bkU.Mul(k.C))
	}
	kyy, err := lti.NewStateSpace(ka, k.B.Slice(0, k.Order(), 0, ny), k.C,
		k.D.Slice(0, k.Outputs(), 0, ny), k.Ts)
	if err != nil {
		return nil, err
	}
	nz := ny + nu + ny
	nw := ny + nu + ny
	return lti.LFTLower(p, nz, nw, kyy)
}
