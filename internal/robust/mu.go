package robust

import (
	"errors"
	"math"
	"math/cmplx"
	"runtime"

	"yukta/internal/lti"
	"yukta/internal/mat"
	"yukta/internal/pool"
)

// MuUpperBound returns an upper bound on the structured singular value μ(M)
// for a block structure of scalar complex uncertainties (one 1×1 block per
// channel, the structure produced by Yukta's per-signal guardbands and
// quantization blocks):
//
//	μ(M) ≤ min over diagonal D > 0 of σ_max(D M D^-1)
//
// The minimization starts from the Perron-based scaling (optimal for
// nonnegative matrices) and is refined with cyclic coordinate descent on the
// diagonal entries of D. A matrix with a non-finite entry gets +Inf: no
// scaling bounds its gain.
func MuUpperBound(m *mat.CMatrix) float64 {
	n := m.Rows()
	if n != m.Cols() {
		// μ is defined for the square interconnection matrix; callers must
		// pass the Δ-facing square block.
		panic("robust: MuUpperBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if !m.AllFinite() {
		return math.Inf(1)
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	// Perron initialization on |M|: D_i = sqrt(u_i / v_i) where u, v are the
	// left and right Perron vectors of the elementwise absolute value.
	absM, absT := mat.Zeros(n, n), mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := cmplx.Abs(m.At(i, j))
			absM.Set(i, j, a)
			absT.Set(j, i, a)
		}
	}
	u := perronVector(absT)
	v := perronVector(absM)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		if v[i] <= 1e-300 || u[i] <= 1e-300 {
			d[i] = 1
		} else {
			d[i] = math.Sqrt(u[i] / v[i])
		}
	}
	// Every σ_max evaluation reuses one scaled matrix and one workspace.
	dm := mat.CZeros(n, n)
	var ws mat.SVWork
	scaled := func(d []float64, stop float64) float64 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dm.Set(i, j, m.At(i, j)*complex(d[i]/d[j], 0))
			}
		}
		return ws.MaxSingularValue(dm, stop)
	}
	best := scaled(d, math.Inf(1))
	if plain := ws.MaxSingularValue(m, math.Inf(1)); plain < best {
		// Identity scaling is sometimes better than Perron for complex M.
		for i := range d {
			d[i] = 1
		}
		best = plain
	}
	// Cyclic coordinate descent with multiplicative steps. A trial is kept
	// only if it beats best by 1e-12; one whose running σ_max estimate has
	// reached rejectLevel(best) cannot, so its power iteration stops there.
	trial := make([]float64, n)
	step := 1.5
	for pass := 0; pass < 30 && step > 1.001; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for _, f := range [2]float64{step, 1 / step} {
				copy(trial, d)
				trial[i] *= f
				if s := scaled(trial, rejectLevel(best)); s < best-1e-12 {
					best = s
					copy(d, trial)
					improved = true
				}
			}
		}
		if !improved {
			step = math.Sqrt(step)
		}
	}
	return best
}

// rejectLevel is the running σ_max estimate at which a descent trial against
// the incumbent best is certain to fail the s < best−1e-12 acceptance test.
// The estimate never decreases in exact arithmetic; the 1e-9·best margin
// absorbs the rounding of a converging iteration, so every trial that
// would be accepted still runs to the value it always had.
func rejectLevel(best float64) float64 { return best - 1e-12 + 1e-9*best }

// perronVector returns the (entrywise nonnegative) dominant eigenvector of a
// nonnegative matrix via power iteration, normalized to unit 1-norm.
func perronVector(a *mat.Matrix) []float64 {
	n := a.Rows()
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	w := make([]float64, n)
	for iter := 0; iter < 200; iter++ {
		w = a.MulVecTo(w, v)
		var s float64
		for _, x := range w {
			s += math.Abs(x)
		}
		if s == 0 {
			return v
		}
		var diff float64
		for i := range w {
			w[i] /= s
			diff += math.Abs(w[i] - v[i])
		}
		v, w = w, v
		if diff < 1e-13 {
			break
		}
	}
	return v
}

// SystemMu returns the peak of MuUpperBound over the unit circle for the
// square transfer matrix of sys, evaluated on a frequency grid of nGrid
// points (plus DC and Nyquist). It is the quantity the SSV synthesis loop
// drives below 1.
func SystemMu(sys *lti.StateSpace, nGrid int) (float64, error) {
	_, hi, err := SystemMuBounds(sys, nGrid, false)
	return hi, err
}

// SystemMuBounds returns lower and upper bounds on the peak structured
// singular value of sys over the unit circle (the pair MATLAB's mussv
// reports). The lower bound is skipped (returned as 0) unless withLower is
// set, since the power iteration is several times more expensive than the
// upper bound. A non-finite response or μ at any grid point makes the upper
// bound +Inf, so such a system is never certified robust.
func SystemMuBounds(sys *lti.StateSpace, nGrid int, withLower bool) (lo, hi float64, err error) {
	return sweepMu(sys, nGrid, true, withLower)
}

// errNotFinite marks a grid point whose response has no finite gain; it
// stops the sweep's unstarted points.
var errNotFinite = errors.New("robust: frequency response not finite")

// sweepMu evaluates the requested μ bounds of sys on the frequency grid
// (an unrequested bound is returned as 0; a requested one is +Inf when any
// grid point's response is not finite). The grid points are independent
// and run on up to GOMAXPROCS goroutines, each writing its own slot; the
// caller then reduces the slots in index order. A maximum does not depend
// on the order its terms arrive in, so the bounds are bit-identical at any
// worker count (DESIGN.md §15).
func sweepMu(sys *lti.StateSpace, nGrid int, withUpper, withLower bool) (lo, hi float64, err error) {
	if nGrid < 8 {
		nGrid = 8
	}
	type bounds struct{ lo, hi float64 }
	pts := make([]bounds, nGrid+1)
	if pool.ForEach(runtime.GOMAXPROCS(0), len(pts), func(i int) error {
		theta := math.Pi * float64(i) / float64(nGrid)
		g, err := sys.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil || !g.AllFinite() {
			// A pole on the unit circle, or a response with no finite gain.
			return errNotFinite
		}
		if withUpper {
			pts[i].hi = MuUpperBound(g)
		}
		if withLower {
			pts[i].lo = MuLowerBound(g)
		}
		return nil
	}) != nil {
		if withUpper {
			hi = math.Inf(1)
		}
		if withLower {
			lo = math.Inf(1)
		}
		return lo, hi, nil
	}
	for _, p := range pts {
		v := p.hi
		if math.IsNaN(v) {
			v = math.Inf(1) // σ_max overflowed on a huge finite response
		}
		if v > hi {
			hi = v
		}
		if p.lo > lo {
			lo = p.lo
		}
	}
	return lo, hi, nil
}
