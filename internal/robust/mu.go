package robust

import (
	"cmp"
	"errors"
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"sync/atomic"

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
	s := newMuDescent(m, nil)
	s.descend(nil)
	return s.best
}

// muDescent is MuUpperBound's D-scale descent on one matrix, split at its
// start so that a frequency sweep can rank its grid points by where their
// descents begin before running any of them (DESIGN.md §17).
type muDescent struct {
	m, dm    *mat.CMatrix // M and the scaled D M D^-1
	ws       mat.SVWork
	d, trial []float64 // incumbent and trial scalings
	// best is σ_max under d: the bound so far, which never increases.
	best float64
	// done marks best as the final bound: the descent ran to its end, or
	// M has no descent (empty, 1×1 or not finite).
	done bool
}

// newMuDescent returns the descent on m at its start, best being the
// smaller of σ_max under the scaling d and under none. A nil d stands for
// perronScaling(m), computed only once m is known to need a descent; the
// descent keeps d and overwrites it.
func newMuDescent(m *mat.CMatrix, d []float64) *muDescent {
	n := m.Rows()
	if n != m.Cols() {
		// μ is defined for the square interconnection matrix; callers must
		// pass the Δ-facing square block.
		panic("robust: MuUpperBound requires a square matrix")
	}
	switch {
	case n == 0:
		return &muDescent{done: true}
	case !m.AllFinite():
		return &muDescent{best: math.Inf(1), done: true}
	case n == 1:
		return &muDescent{best: cmplx.Abs(m.At(0, 0)), done: true}
	}
	if d == nil {
		d = perronScaling(m)
	}
	s := &muDescent{m: m, dm: mat.CZeros(n, n), d: d, trial: make([]float64, n)}
	s.best = s.scaled(s.d, math.Inf(1))
	if plain := s.ws.MaxSingularValue(m, math.Inf(1)); plain < s.best {
		// Identity scaling is sometimes better than Perron for complex M.
		for i := range s.d {
			s.d[i] = 1
		}
		s.best = plain
	}
	return s
}

// perronScaling returns the Perron-based diagonal scaling of the square
// matrix m, D_i = sqrt(u_i / v_i) where u and v are the left and right
// Perron vectors of its elementwise absolute value |m| (1 where either is
// 0). It is optimal for nonnegative matrices, and since |U m| = |m| it
// serves every diagonal unitary U alike: the descent of the μ upper bound
// starts from it, and the lower bound's cap is taken under it (lowerCap).
func perronScaling(m *mat.CMatrix) []float64 {
	n := m.Rows()
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
	for i := range d {
		if v[i] <= 1e-300 || u[i] <= 1e-300 {
			d[i] = 1
		} else {
			d[i] = math.Sqrt(u[i] / v[i])
		}
	}
	return d
}

// scaled returns σ_max(D M D^-1) for D = diag(d), given up at stop. Every
// evaluation reuses one scaled matrix and one workspace.
func (s *muDescent) scaled(d []float64, stop float64) float64 {
	n := len(d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.dm.Set(i, j, mat.CMul(s.m.At(i, j), complex(d[i]/d[j], 0)))
		}
	}
	return s.ws.MaxSingularValue(s.dm, stop)
}

// descend runs the coordinate descent and sets done when it ends. With a
// non-nil peak it returns early, done unset, once best ≤ peak: best never
// increases, so the final bound could not exceed peak either. A NaN best
// fails that test and runs to the end.
func (s *muDescent) descend(peak *muPeak) {
	if s.done {
		return
	}
	below := func() bool { return peak != nil && s.best <= peak.load() }
	// Cyclic coordinate descent with multiplicative steps. A trial is kept
	// only if it beats best by 1e-12; one whose running σ_max estimate has
	// reached rejectLevel(best) cannot, so its power iteration stops there.
	d, trial := s.d, s.trial
	step := 1.5
	for pass := 0; pass < 30 && step > 1.001; pass++ {
		if below() {
			return
		}
		improved := false
		for i := range d {
			for _, f := range [2]float64{step, 1 / step} {
				copy(trial, d)
				trial[i] *= f
				if v := s.scaled(trial, rejectLevel(s.best)); v < s.best-1e-12 {
					s.best = v
					copy(d, trial)
					improved = true
					if below() {
						return
					}
				}
			}
		}
		if !improved {
			step = math.Sqrt(step)
		}
	}
	s.done = true
}

// muPeak is the running maximum of a sweep's finished μ upper bounds, held
// as float64 bits so that concurrent descents can read it. The zero value
// is 0, the sweep's starting maximum.
type muPeak struct{ bits atomic.Uint64 }

func (p *muPeak) load() float64 { return math.Float64frombits(p.bits.Load()) }

// raise sets the peak to v if v is larger.
func (p *muPeak) raise(v float64) {
	for {
		old := p.bits.Load()
		if !(v > math.Float64frombits(old)) || p.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// rejectLevel is the running σ_max estimate at which a descent trial against
// the incumbent best is certain to fail the s < best−1e-12 acceptance test.
// The estimate never decreases in exact arithmetic; the 1e-9·best margin
// absorbs the rounding of a converging iteration, so every trial that
// would be accepted still runs to the value it always had.
func rejectLevel(best float64) float64 { return best - 1e-12 + float64(1e-9*best) }

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
	lo, hi, _, _ = sweepMu(sys, nGrid, true, withLower)
	return lo, hi, nil
}

// errNotFinite marks a grid point whose response has no finite gain; it
// stops the sweep's unstarted points.
var errNotFinite = errors.New("robust: frequency response not finite")

// sweepMu evaluates the requested μ bounds of sys on the frequency grid
// (an unrequested bound is returned as 0; a requested one is +Inf when any
// grid point's response is not finite), and reports how many grid points
// entered the upper bound's D-scale descent and how many ran the lower
// bound's power iteration.
//
// The grid points are independent and run on up to GOMAXPROCS goroutines,
// each writing its own slot: the response, the start of its descent and
// its lower bound's cap. The upper bound is then peakMu of the descents and
// the lower bound peakLower of the responses. A maximum does not depend on
// the order its terms arrive in, so the bounds are bit-identical at any
// worker count (DESIGN.md §15).
func sweepMu(sys *lti.StateSpace, nGrid int, withUpper, withLower bool) (lo, hi float64, descents, lowers int) {
	if nGrid < 8 {
		nGrid = 8
	}
	gs := make([]*mat.CMatrix, nGrid+1)
	caps := make([]float64, nGrid+1)
	ds := make([]*muDescent, nGrid+1)
	if pool.ForEach(runtime.GOMAXPROCS(0), len(gs), func(i int) error {
		theta := math.Pi * float64(i) / float64(nGrid)
		g, err := sys.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil || !g.AllFinite() {
			// A pole on the unit circle, or a response with no finite gain.
			return errNotFinite
		}
		gs[i] = g
		d := perronScaling(g)
		if withLower {
			caps[i] = lowerCap(g, d) // before the descent takes d over
		}
		if withUpper {
			ds[i] = newMuDescent(g, d)
		}
		return nil
	}) != nil {
		if withUpper {
			hi = math.Inf(1)
		}
		if withLower {
			lo = math.Inf(1)
		}
		return lo, hi, 0, 0
	}
	if withLower {
		lo, lowers = peakLower(gs, caps)
	}
	if withUpper {
		hi, descents = peakMu(ds)
	}
	return lo, hi, descents, lowers
}

// peakMu returns the largest of the descents' final bounds, a NaN bound
// (σ_max overflowed on a huge finite response) counting as +Inf, and how
// many descents it ran. A descent never raises its bound, so its starting
// bound caps its final one, and one that starts, or comes down to, at or
// below a finished bound cannot set the maximum (DESIGN.md §17).
func peakMu(ds []*muDescent) (hi float64, descents int) {
	starts := make([]float64, len(ds))
	for i, s := range ds {
		starts[i] = s.best
	}
	var entered atomic.Int64
	hi = peakOver(starts, func(i int, peak *muPeak) (float64, bool) {
		s := ds[i]
		if !s.done {
			entered.Add(1)
			if s.descend(peak); !s.done {
				return 0, false // stopped at the peak, short of its final bound
			}
		}
		if math.IsNaN(s.best) {
			return math.Inf(1), true
		}
		return s.best, true
	})
	return hi, int(entered.Load())
}

// peakOver returns the largest final value over grid points whose values
// are capped by caps, computing only those that can still set it. It
// visits the points in decreasing cap order, a NaN cap first, on up to
// GOMAXPROCS goroutines, and skips a point whose cap is at or below the
// largest final value so far. value computes point i's value against the
// shared peak and reports whether it is final; only a final value may
// raise the peak, so that every skip compares with a value some point
// really has. The maximum of a set does not depend on the order its terms
// arrive in, so the result's bits do not depend on the worker count or
// the schedule; only the number of values computed does.
func peakOver(caps []float64, value func(i int, peak *muPeak) (v float64, final bool)) float64 {
	rank := func(i int) float64 {
		if math.IsNaN(caps[i]) {
			return math.Inf(1)
		}
		return caps[i]
	}
	order := make([]int, len(caps))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rank(b), rank(a)) })
	var peak muPeak
	_ = pool.ForEach(runtime.GOMAXPROCS(0), len(order), func(k int) error { // no job fails
		i := order[k]
		if caps[i] <= peak.load() {
			return nil
		}
		if v, final := value(i, &peak); final {
			peak.raise(v)
		}
		return nil
	})
	return peak.load()
}
