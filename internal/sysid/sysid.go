// Package sysid implements the black-box System Identification methodology
// of the paper's Section IV-C: excite the controlled system with a training
// workload while varying the would-be controller inputs, record the outputs,
// and fit a MIMO polynomial (ARX / Box-Jenkins family) model of order 4 that
// predicts each output at time T from all outputs at T-1..T-4 and all inputs
// at T..T-3. The fitted model converts to a state-space realization consumed
// by the robust-control synthesis.
//
// All identification happens in normalized units: Scaling maps each physical
// signal range onto [-1, 1], so that deviation bounds and guardbands are
// fractions of range exactly as the paper specifies them.
package sysid

import (
	"errors"
	"fmt"
	"math"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// ErrData reports an unusable identification dataset.
var ErrData = errors.New("sysid: unusable dataset")

// Scaling maps a physical signal range [Min, Max] onto the normalized range
// [-1, 1] used by identification and control.
type Scaling struct {
	Min, Max float64
}

// Normalize maps a physical value into normalized units.
func (s Scaling) Normalize(x float64) float64 {
	if s.Max == s.Min {
		return 0
	}
	return 2*(x-s.Min)/(s.Max-s.Min) - 1
}

// Denormalize maps a normalized value back to physical units.
func (s Scaling) Denormalize(n float64) float64 {
	return s.Min + float64((n+1)*(s.Max-s.Min)/2)
}

// QuantumNormalized converts a physical quantization step to normalized units.
func (s Scaling) QuantumNormalized(step float64) float64 {
	if s.Max == s.Min {
		return 0
	}
	return 2 * step / (s.Max - s.Min)
}

// Range returns Max - Min.
func (s Scaling) Range() float64 { return s.Max - s.Min }

// Dataset is a recorded identification experiment: U[t] are the inputs
// applied at sample t and Y[t] the outputs observed at sample t, both in
// normalized units.
type Dataset struct {
	U [][]float64
	Y [][]float64
}

// Append adds one sample to the dataset.
func (d *Dataset) Append(u, y []float64) {
	uc := make([]float64, len(u))
	copy(uc, u)
	yc := make([]float64, len(y))
	copy(yc, y)
	d.U = append(d.U, uc)
	d.Y = append(d.Y, yc)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Orders selects the polynomial model structure. NA is the number of output
// lags (y(T-1)..y(T-NA)); NB is the number of input taps (u(T)..u(T-NB+1)),
// so NB includes the direct feedthrough term.
type Orders struct {
	NA, NB int
}

// PaperOrders is the order-4 structure of Section IV-C.
var PaperOrders = Orders{NA: 4, NB: 4}

// Model is a fitted MIMO ARX model
//
//	y(T) = C0 + Σ_{k=1..NA} A_k y(T-k) + Σ_{k=0..NB-1} B_k u(T-k)
//
// in normalized units, with sampling interval Ts. C0 is the affine intercept
// capturing the operating point; the state-space realization used for
// controller synthesis drops it (controllers act on deviations), but
// including it in the regression keeps the dynamic coefficients unbiased.
type Model struct {
	A  []*mat.Matrix // NA matrices, each NY×NY
	B  []*mat.Matrix // NB matrices, each NY×NU; B[0] is the direct term
	C0 []float64     // NY intercepts
	NY int
	NU int
	Ts float64
}

// Identify fits a MIMO ARX model of the given orders to the dataset by
// linear least squares (QR with ridge fallback), the Go counterpart of
// passing recorded data to MATLAB's Box-Jenkins routine.
func Identify(d *Dataset, ord Orders, ts float64) (*Model, error) {
	if ord.NA < 1 || ord.NB < 1 {
		return nil, fmt.Errorf("sysid: orders must be at least 1, got %+v", ord)
	}
	n := d.Len()
	if n == 0 || len(d.U) != n {
		return nil, fmt.Errorf("%w: %d outputs, %d inputs", ErrData, n, len(d.U))
	}
	ny := len(d.Y[0])
	nu := len(d.U[0])
	start := ord.NA
	if ord.NB-1 > start {
		start = ord.NB - 1
	}
	rows := n - start
	regs := ord.NA*ny + ord.NB*nu + 1 // +1 for the intercept column
	if rows < 2*regs {
		return nil, fmt.Errorf("%w: %d usable samples for %d regressors", ErrData, rows, regs)
	}
	phi := mat.Zeros(rows, regs)
	tgt := mat.Zeros(rows, ny)
	for t := start; t < n; t++ {
		r := t - start
		col := 0
		for k := 1; k <= ord.NA; k++ {
			for j := 0; j < ny; j++ {
				phi.Set(r, col, d.Y[t-k][j])
				col++
			}
		}
		for k := 0; k < ord.NB; k++ {
			for j := 0; j < nu; j++ {
				phi.Set(r, col, d.U[t-k][j])
				col++
			}
		}
		phi.Set(r, col, 1) // intercept
		for j := 0; j < ny; j++ {
			tgt.Set(r, j, d.Y[t][j])
		}
	}
	theta, err := mat.LeastSquares(phi, tgt)
	if err != nil {
		return nil, fmt.Errorf("sysid: least squares failed: %w", err)
	}
	m := &Model{NY: ny, NU: nu, Ts: ts}
	col := 0
	for k := 0; k < ord.NA; k++ {
		ak := mat.Zeros(ny, ny)
		for j := 0; j < ny; j++ {
			for i := 0; i < ny; i++ {
				ak.Set(i, j, theta.At(col+j, i))
			}
		}
		m.A = append(m.A, ak)
		col += ny
	}
	for k := 0; k < ord.NB; k++ {
		bk := mat.Zeros(ny, nu)
		for j := 0; j < nu; j++ {
			for i := 0; i < ny; i++ {
				bk.Set(i, j, theta.At(col+j, i))
			}
		}
		m.B = append(m.B, bk)
		col += nu
	}
	m.C0 = make([]float64, ny)
	for i := 0; i < ny; i++ {
		m.C0[i] = theta.At(col, i)
	}
	return m, nil
}

// Predict returns the one-step-ahead prediction of y(t) given the dataset's
// history (used for fit metrics). t must be at least max(NA, NB-1).
func (m *Model) Predict(d *Dataset, t int) []float64 {
	y := make([]float64, m.NY)
	if m.C0 != nil {
		copy(y, m.C0)
	}
	for k := 1; k <= len(m.A); k++ {
		yk := m.A[k-1].MulVec(d.Y[t-k])
		for i := range y {
			y[i] += yk[i]
		}
	}
	for k := 0; k < len(m.B); k++ {
		uk := m.B[k].MulVec(d.U[t-k])
		for i := range y {
			y[i] += uk[i]
		}
	}
	return y
}

// StateSpace converts the ARX model to a block-companion state-space
// realization with state [y(T-1)..y(T-NA); u(T-1)..u(T-NB+1)] and direct
// feedthrough D = B_0.
func (m *Model) StateSpace() *lti.StateSpace {
	na, nb := len(m.A), len(m.B)
	ny, nu := m.NY, m.NU
	n := na*ny + (nb-1)*nu
	a := mat.Zeros(n, n)
	b := mat.Zeros(n, nu)
	c := mat.Zeros(ny, n)
	d := m.B[0].Clone()

	// C row block: y(T) = Σ A_k y(T-k) + Σ_{k>=1} B_k u(T-k) + B_0 u(T).
	for k := 0; k < na; k++ {
		c.SetSlice(0, k*ny, m.A[k])
	}
	for k := 1; k < nb; k++ {
		c.SetSlice(0, na*ny+(k-1)*nu, m.B[k])
	}
	// State update: the y(T) register receives C x + D u; lower registers shift.
	a.SetSlice(0, 0, c)
	b.SetSlice(0, 0, d)
	for k := 1; k < na; k++ {
		a.SetSlice(k*ny, (k-1)*ny, mat.Identity(ny))
	}
	// u(T) register.
	if nb > 1 {
		b.SetSlice(na*ny, 0, mat.Identity(nu))
		for k := 1; k < nb-1; k++ {
			a.SetSlice(na*ny+k*nu, na*ny+(k-1)*nu, mat.Identity(nu))
		}
	}
	return lti.MustStateSpace(a, b, c, d, m.Ts)
}

// ReducedStateSpace converts the model to state space and, when the
// realization is stable, reduces it to at most maxOrder states by balanced
// truncation. Reduction keeps the synthesized controller's dimension close
// to the paper's N=20 even for wide models.
func (m *Model) ReducedStateSpace(maxOrder int) *lti.StateSpace {
	ss := m.StateSpace()
	if ss.Order() <= maxOrder || !ss.IsStable() {
		return ss
	}
	red, err := ss.BalancedTruncation(maxOrder)
	if err != nil || !red.IsStable() {
		return ss
	}
	return red
}

// Stabilize shrinks the autoregressive part of the model until its
// state-space realization has spectral radius at most 0.99. Physical boards
// are open-loop stable, so an unstable or near-marginal fit is an artifact
// of noise; shrinking toward the static gain preserves the steady-state
// behaviour, and the 0.99 margin keeps the Lyapunov solves used for model
// reduction and H2 synthesis well conditioned.
func (m *Model) Stabilize() {
	for iter := 0; iter < 120; iter++ {
		r, err := mat.SpectralRadius(m.StateSpace().A)
		if err == nil && r <= 0.99 {
			return
		}
		for _, ak := range m.A {
			for i := 0; i < ak.Rows(); i++ {
				for j := 0; j < ak.Cols(); j++ {
					ak.Set(i, j, ak.At(i, j)*0.97)
				}
			}
		}
	}
}

// Metrics holds per-output fit quality for a model on a dataset.
type Metrics struct {
	RMSE []float64 // root-mean-square one-step prediction error
	R2   []float64 // coefficient of determination per output
}

// Evaluate computes one-step-ahead prediction metrics of the model on d.
func (m *Model) Evaluate(d *Dataset) (Metrics, error) {
	start := len(m.A)
	if len(m.B)-1 > start {
		start = len(m.B) - 1
	}
	n := d.Len()
	if n <= start {
		return Metrics{}, fmt.Errorf("%w: %d samples with startup %d", ErrData, n, start)
	}
	ny := m.NY
	sse := make([]float64, ny)
	mean := make([]float64, ny)
	for t := start; t < n; t++ {
		for j := 0; j < ny; j++ {
			mean[j] += d.Y[t][j]
		}
	}
	cnt := float64(n - start)
	for j := range mean {
		mean[j] /= cnt
	}
	sst := make([]float64, ny)
	for t := start; t < n; t++ {
		pred := m.Predict(d, t)
		for j := 0; j < ny; j++ {
			e := d.Y[t][j] - pred[j]
			sse[j] += float64(e * e)
			dm := d.Y[t][j] - mean[j]
			sst[j] += float64(dm * dm)
		}
	}
	met := Metrics{RMSE: make([]float64, ny), R2: make([]float64, ny)}
	for j := 0; j < ny; j++ {
		met.RMSE[j] = math.Sqrt(sse[j] / cnt)
		if sst[j] > 0 {
			met.R2[j] = 1 - sse[j]/sst[j]
		}
	}
	return met, nil
}
