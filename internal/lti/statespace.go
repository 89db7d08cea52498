// Package lti implements discrete-time linear time-invariant (LTI) systems
// in state-space form, with the analysis operations needed for robust
// controller synthesis: stability tests, frequency response on the unit
// circle, H-infinity and H2 norms, interconnections (series, parallel,
// feedback, LFT), discrete Lyapunov equations, and simulation.
//
// All systems are discrete time with a sampling interval Ts (seconds). The
// Yukta prototype samples at 500 ms, following the paper's Section V-A.
package lti

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"yukta/internal/mat"
)

// ErrDimension reports inconsistent state-space dimensions.
var ErrDimension = errors.New("lti: inconsistent state-space dimensions")

// StateSpace is a discrete-time LTI system
//
//	x(T+1) = A x(T) + B u(T)
//	y(T)   = C x(T) + D u(T)
//
// with sampling interval Ts seconds.
type StateSpace struct {
	A, B, C, D *mat.Matrix
	Ts         float64
}

// NewStateSpace validates the dimensions and returns the system. A must be
// n×n, B n×m, C p×n, D p×m.
func NewStateSpace(a, b, c, d *mat.Matrix, ts float64) (*StateSpace, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("%w: A is %dx%d", ErrDimension, a.Rows(), a.Cols())
	}
	if b.Rows() != n {
		return nil, fmt.Errorf("%w: B has %d rows, want %d", ErrDimension, b.Rows(), n)
	}
	if c.Cols() != n {
		return nil, fmt.Errorf("%w: C has %d cols, want %d", ErrDimension, c.Cols(), n)
	}
	if d.Rows() != c.Rows() || d.Cols() != b.Cols() {
		return nil, fmt.Errorf("%w: D is %dx%d, want %dx%d", ErrDimension, d.Rows(), d.Cols(), c.Rows(), b.Cols())
	}
	if ts <= 0 {
		return nil, fmt.Errorf("lti: sampling interval must be positive, got %v", ts)
	}
	return &StateSpace{A: a, B: b, C: c, D: d, Ts: ts}, nil
}

// MustStateSpace is NewStateSpace that panics on error; for literals in tests
// and internal construction where dimensions are known correct.
func MustStateSpace(a, b, c, d *mat.Matrix, ts float64) *StateSpace {
	ss, err := NewStateSpace(a, b, c, d, ts)
	if err != nil {
		panic(err)
	}
	return ss
}

// Order returns the state dimension n.
func (s *StateSpace) Order() int { return s.A.Rows() }

// Inputs returns the number of inputs m.
func (s *StateSpace) Inputs() int { return s.B.Cols() }

// Outputs returns the number of outputs p.
func (s *StateSpace) Outputs() int { return s.C.Rows() }

// Clone returns a deep copy of the system.
func (s *StateSpace) Clone() *StateSpace {
	return &StateSpace{A: s.A.Clone(), B: s.B.Clone(), C: s.C.Clone(), D: s.D.Clone(), Ts: s.Ts}
}

// IsStable reports whether all eigenvalues of A lie strictly inside the unit
// circle (Schur stability), with a small numerical margin.
func (s *StateSpace) IsStable() bool {
	if s.Order() == 0 {
		return true
	}
	r, err := mat.SpectralRadius(s.A)
	if err != nil {
		return false
	}
	return r < 1-1e-9
}

// SpectralRadius returns the spectral radius of A.
func (s *StateSpace) SpectralRadius() (float64, error) {
	if s.Order() == 0 {
		return 0, nil
	}
	return mat.SpectralRadius(s.A)
}

// Evaluate returns the transfer matrix G(z) = C (zI - A)^-1 B + D at the
// complex point z.
func (s *StateSpace) Evaluate(z complex128) (*mat.CMatrix, error) {
	n := s.Order()
	d := mat.ToComplex(s.D)
	if n == 0 {
		return d, nil
	}
	zia := mat.ToComplex(s.A).Scale(-1)
	for i := 0; i < n; i++ {
		zia.Set(i, i, zia.At(i, i)+z)
	}
	x, err := mat.CSolve(zia, mat.ToComplex(s.B))
	if err != nil {
		return nil, fmt.Errorf("lti: evaluating G(%v): %w", z, err)
	}
	return mat.ToComplex(s.C).Mul(x).Add(d), nil
}

// HInfNorm returns an estimate of the H-infinity norm: the peak of
// sigma_max(G(e^{jw})) over the unit circle. It uses a coarse grid followed
// by golden-section refinement around the peak. For unstable systems the
// value is still the supremum over the unit circle (the L-infinity norm).
func (s *StateSpace) HInfNorm() (float64, error) {
	const grid = 256
	best := 0.0
	bestTheta := 0.0
	for i := 0; i <= grid; i++ {
		theta := math.Pi * float64(i) / grid
		g, err := s.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil {
			// Pole exactly on the unit circle: norm is unbounded.
			return math.Inf(1), nil
		}
		if v := mat.CMaxSingularValue(g); v > best {
			best, bestTheta = v, theta
		}
	}
	// Golden-section refinement around the best grid point.
	lo := math.Max(0, bestTheta-math.Pi/grid)
	hi := math.Min(math.Pi, bestTheta+math.Pi/grid)
	eval := func(theta float64) float64 {
		g, err := s.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil {
			return math.Inf(1)
		}
		return mat.CMaxSingularValue(g)
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - float64(phi*(b-a))
	x2 := a + float64(phi*(b-a))
	f1, f2 := eval(x1), eval(x2)
	for iter := 0; iter < 40 && b-a > 1e-10; iter++ {
		if f1 < f2 { // maximize
			a, x1, f1 = x1, x2, f2
			x2 = a + float64(phi*(b-a))
			f2 = eval(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - float64(phi*(b-a))
			f1 = eval(x1)
		}
	}
	if f1 > best {
		best = f1
	}
	if f2 > best {
		best = f2
	}
	return best, nil
}

// DCGain returns G(1), the steady-state gain matrix of the discrete system.
func (s *StateSpace) DCGain() (*mat.Matrix, error) {
	g, err := s.Evaluate(1)
	if err != nil {
		return nil, err
	}
	out := mat.Zeros(g.Rows(), g.Cols())
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			out.Set(i, j, real(g.At(i, j)))
		}
	}
	return out, nil
}

// Simulate runs the system from initial state x0 (nil means zero) over the
// input sequence u (len T, each of length Inputs()) and returns the output
// sequence (len T, each of length Outputs()).
func (s *StateSpace) Simulate(x0 []float64, u [][]float64) ([][]float64, error) {
	n := s.Order()
	x := make([]float64, n)
	if x0 != nil {
		if len(x0) != n {
			return nil, fmt.Errorf("%w: x0 has length %d, want %d", ErrDimension, len(x0), n)
		}
		copy(x, x0)
	}
	out := make([][]float64, len(u))
	for t, ut := range u {
		if len(ut) != s.Inputs() {
			return nil, fmt.Errorf("%w: u[%d] has length %d, want %d", ErrDimension, t, len(ut), s.Inputs())
		}
		y := s.C.MulVec(x)
		du := s.D.MulVec(ut)
		for i := range y {
			y[i] += du[i]
		}
		out[t] = y
		ax := s.A.MulVec(x)
		bu := s.B.MulVec(ut)
		for i := range ax {
			ax[i] += bu[i]
		}
		x = ax
	}
	return out, nil
}

// StepResponse returns the response to a unit step on input j for nSteps
// samples, all other inputs zero.
func (s *StateSpace) StepResponse(j, nSteps int) ([][]float64, error) {
	if j < 0 || j >= s.Inputs() {
		return nil, fmt.Errorf("lti: step input %d out of range %d", j, s.Inputs())
	}
	u := make([][]float64, nSteps)
	for t := range u {
		u[t] = make([]float64, s.Inputs())
		u[t][j] = 1
	}
	return s.Simulate(nil, u)
}
