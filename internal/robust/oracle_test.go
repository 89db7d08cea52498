package robust

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// Bit-identity oracle for the μ kernels. refCMaxSingularValue,
// refMuUpperBound and refPerronVector are the allocating implementations
// the synthesized controllers were first certified with, kept verbatim (the
// σ_max copy reads entries through At instead of the package-private slice).
// The production kernels reuse buffers, divide by real norms part by part
// and stop rejected descent trials early; none of that may change a bit of
// their results.

func refCMaxSingularValue(m *mat.CMatrix) float64 {
	if m.Rows() == 0 || m.Cols() == 0 {
		return 0
	}
	h := m.ConjT().Mul(m) // n×n Hermitian positive semidefinite
	n := h.Rows()
	// Deterministic start vector with nonzero projection on the dominant
	// eigenvector in all but adversarial cases; perturb on stagnation.
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(1+float64(i%3), float64(i%2))
	}
	normalize := func(v []complex128) float64 {
		var s float64
		for _, x := range v {
			s += real(x)*real(x) + imag(x)*imag(x)
		}
		nrm := math.Sqrt(s)
		if nrm == 0 {
			return 0
		}
		for i := range v {
			v[i] /= complex(nrm, 0)
		}
		return nrm
	}
	normalize(v)
	lambda := 0.0
	for iter := 0; iter < 500; iter++ {
		w := make([]complex128, n)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += h.At(i, j) * v[j]
			}
			w[i] = s
		}
		nl := normalize(w)
		v = w
		if nl == 0 {
			return 0
		}
		if math.Abs(nl-lambda) <= 1e-12*math.Max(1, nl) {
			lambda = nl
			break
		}
		lambda = nl
	}
	return math.Sqrt(lambda)
}

func refMuUpperBound(m *mat.CMatrix) float64 {
	n := m.Rows()
	if n != m.Cols() {
		panic("robust: MuUpperBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	absM := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			absM.Set(i, j, cmplx.Abs(m.At(i, j)))
		}
	}
	u := refPerronVector(absM.T())
	v := refPerronVector(absM)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		if v[i] <= 1e-300 || u[i] <= 1e-300 {
			d[i] = 1
		} else {
			d[i] = math.Sqrt(u[i] / v[i])
		}
	}
	scaled := func(d []float64) float64 {
		dm := m.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dm.Set(i, j, dm.At(i, j)*complex(d[i]/d[j], 0))
			}
		}
		return refCMaxSingularValue(dm)
	}
	best := scaled(d)
	if plain := refCMaxSingularValue(m); plain < best {
		for i := range d {
			d[i] = 1
		}
		best = plain
	}
	step := 1.5
	for pass := 0; pass < 30 && step > 1.001; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for _, f := range []float64{step, 1 / step} {
				trial := make([]float64, n)
				copy(trial, d)
				trial[i] *= f
				if s := scaled(trial); s < best-1e-12 {
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

func refPerronVector(a *mat.Matrix) []float64 {
	n := a.Rows()
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	for iter := 0; iter < 200; iter++ {
		w := a.MulVec(v)
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
		v = w
		if diff < 1e-13 {
			break
		}
	}
	return v
}

// oracleCase is a random square complex matrix of order 1…16 drawn to
// stress the kernels: dense, rank-deficient (down to the zero matrix),
// sprinkled with exact zeros, badly scaled by row and column factors in
// 1e-6…1e6, or real-only, in combination.
type oracleCase struct{ m *mat.CMatrix }

// Generate implements quick.Generator.
func (oracleCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(16)
	realOnly := r.Intn(4) == 0
	entry := func() complex128 {
		if realOnly {
			return complex(r.NormFloat64(), 0)
		}
		return complex(r.NormFloat64(), r.NormFloat64())
	}
	m := mat.CZeros(n, n)
	if r.Intn(3) == 0 {
		// Rank k < n as the product of n×k and k×n factors.
		k := r.Intn(n)
		a, b := mat.CZeros(n, k), mat.CZeros(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				a.Set(i, j, entry())
				b.Set(j, i, entry())
			}
		}
		if k > 0 {
			m = a.Mul(b)
		}
	} else {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, entry())
			}
		}
	}
	if r.Intn(3) == 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Intn(10) < 3 {
					m.Set(i, j, 0)
				}
			}
		}
	}
	if r.Intn(3) == 0 {
		row, col := make([]float64, n), make([]float64, n)
		for i := range row {
			row[i] = math.Pow(10, -6+12*r.Float64())
			col[i] = math.Pow(10, -6+12*r.Float64())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, m.At(i, j)*complex(row[i]*col[j], 0))
			}
		}
	}
	return reflect.ValueOf(oracleCase{m})
}

func oracleConfig(seed int64, count int) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

// TestCMaxSingularValueMatchesOracle asserts σ_max is bit-identical to the
// reference, through the public entry point and through a workspace reused
// across matrices of varying order.
func TestCMaxSingularValueMatchesOracle(t *testing.T) {
	var ws mat.SVWork
	f := func(c oracleCase) bool {
		want := math.Float64bits(refCMaxSingularValue(c.m))
		return math.Float64bits(mat.CMaxSingularValue(c.m)) == want &&
			math.Float64bits(ws.MaxSingularValue(c.m, math.Inf(1))) == want
	}
	if err := quick.Check(f, oracleConfig(1, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestMuUpperBoundMatchesOracle asserts μ is bit-identical to the
// reference: the early stop of rejected trials never changes an accepted
// one.
func TestMuUpperBoundMatchesOracle(t *testing.T) {
	f := func(c oracleCase) bool {
		return math.Float64bits(MuUpperBound(c.m)) == math.Float64bits(refMuUpperBound(c.m))
	}
	count := 60
	if testing.Short() {
		count = 16
	}
	if err := quick.Check(f, oracleConfig(2, count)); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyStopDecisionMatchesOracle pins the descent's acceptance decision
// where the early stop is most fragile: for incumbents whose threshold
// best−1e-12 lies within a few ulps of the reference σ_max, a σ_max stopped
// at rejectLevel(best) must be accepted exactly when the reference is, and
// then with the reference's bits. Iterations that converge in a step or two
// (rank-one matrices) wobble by an ulp around their final value; the
// 1e-9·best margin is what keeps them from stopping a trial that passes.
func TestEarlyStopDecisionMatchesOracle(t *testing.T) {
	var ws mat.SVWork
	f := func(c oracleCase) bool {
		ref := refCMaxSingularValue(c.m)
		best := ref + 1e-12
		for k := 0; k < 4; k++ {
			best = math.Nextafter(best, 0)
		}
		for k := 0; k < 8; k++ {
			thr := best - 1e-12
			got := ws.MaxSingularValue(c.m, rejectLevel(best))
			if (got < thr) != (ref < thr) || (ref < thr && math.Float64bits(got) != math.Float64bits(ref)) {
				return false
			}
			best = math.Nextafter(best, math.Inf(1))
		}
		return true
	}
	if err := quick.Check(f, oracleConfig(3, 2000)); err != nil {
		t.Fatal(err)
	}
}

// refSweepMu is the sequential frequency sweep the synthesized controllers
// were first certified with, kept verbatim. The production sweep evaluates
// the grid points concurrently and reduces them afterwards; that may not
// change a bit of a bound. (On a non-finite response this copy also returns
// +Inf for an unrequested bound; the production sweep returns 0 there, as
// documented.)
func refSweepMu(sys *lti.StateSpace, nGrid int, withUpper, withLower bool) (lo, hi float64, err error) {
	if nGrid < 8 {
		nGrid = 8
	}
	for i := 0; i <= nGrid; i++ {
		theta := math.Pi * float64(i) / float64(nGrid)
		g, err := sys.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil || !g.AllFinite() {
			// A pole on the unit circle, or a response with no finite gain.
			return math.Inf(1), math.Inf(1), nil
		}
		if withUpper {
			v := MuUpperBound(g)
			if math.IsNaN(v) {
				v = math.Inf(1) // σ_max overflowed on a huge finite response
			}
			if v > hi {
				hi = v
			}
		}
		if withLower {
			if v := MuLowerBound(g); v > lo {
				lo = v
			}
		}
	}
	return lo, hi, nil
}

// sweepCase is one μ sweep: a system, its grid and the requested bounds.
type sweepCase struct {
	sys                  *lti.StateSpace
	nGrid                int
	withUpper, withLower bool
}

// Generate implements quick.Generator: a random stable system of the
// hardware closed loop's shape (44 states, 12 Δ channels) or the OS one's
// (33 states, 9 channels), on a coarse grid, with one or both bounds.
func (sweepCase) Generate(r *rand.Rand, _ int) reflect.Value {
	shape := [2][2]int{{44, 12}, {33, 9}}[r.Intn(2)]
	c := sweepCase{sys: randStable(r, shape[0], shape[1], shape[1]), nGrid: 8 + r.Intn(3)}
	switch r.Intn(3) {
	case 0:
		c.withUpper = true
	case 1:
		c.withLower = true
	default:
		c.withUpper, c.withLower = true, true
	}
	return reflect.ValueOf(c)
}

// sweepMatchesOracle reports whether sweepMu returns refSweepMu's bits at
// GOMAXPROCS 1, 2 and 8, with an unrequested bound 0.
func sweepMatchesOracle(t *testing.T, c sweepCase) bool {
	t.Helper()
	wantLo, wantHi, _ := refSweepMu(c.sys, c.nGrid, c.withUpper, c.withLower)
	if !c.withUpper {
		wantHi = 0
	}
	if !c.withLower {
		wantLo = 0
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		lo, hi, _, _ := sweepMu(c.sys, c.nGrid, c.withUpper, c.withLower)
		runtime.GOMAXPROCS(prev)
		if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
			t.Logf("GOMAXPROCS %d, grid %d, upper %v, lower %v: got (%v, %v), want (%v, %v)",
				procs, c.nGrid, c.withUpper, c.withLower, lo, hi, wantLo, wantHi)
			return false
		}
	}
	return true
}

// TestSweepMuMatchesOracle asserts the concurrent, pruned sweep is
// bit-identical to the sequential reference at any worker count: on random
// systems; on systems whose peak sits at the first, a middle or the last
// grid point; on a static system, where every grid point ties at the peak;
// on an all-zero response; and, grid point by grid point, where exactly two
// points share the upper bound's peak and where the lower bound's peak is
// not at its highest-capped point.
func TestSweepMuMatchesOracle(t *testing.T) {
	count := 5
	if testing.Short() {
		count = 2
	}
	f := func(c sweepCase) bool { return sweepMatchesOracle(t, c) }
	if err := quick.Check(f, oracleConfig(4, count)); err != nil {
		t.Fatal(err)
	}

	const nGrid = 24
	var systems []*lti.StateSpace
	for _, k := range []int{0, nGrid / 2, nGrid} {
		sys := resonantAt(t, k, nGrid)
		if at := peakGridPoint(t, sys, nGrid); at != k {
			t.Fatalf("resonance at grid point %d peaks at %d", k, at)
		}
		systems = append(systems, sys)
	}
	d := mat.Zeros(6, 6)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	systems = append(systems, staticSystem(t, d), staticSystem(t, mat.Zeros(6, 6)))
	for _, sys := range systems {
		if !sweepMatchesOracle(t, sweepCase{sys: sys, nGrid: nGrid, withUpper: true}) {
			t.Fatal("pruned sweep differs from the reference")
		}
	}

	// Two grid points hold the same matrix, scaled above every other one.
	ms := make([]*mat.CMatrix, 17)
	for i := range ms {
		ms[i] = randC(rng, 6).Scale(complex(0.9+0.005*float64(i), 0))
	}
	ms[12] = randC(rng, 6)
	ms[4] = ms[12]
	if !peakMatchesOracle(t, ms) {
		t.Fatal("pruned peak differs from the reference with two equal peaks")
	}

	// The highest-capped point is strictly upper triangular, so every ρ(U M)
	// there is 0 but for rounding: its lower bound is far below the others',
	// and a sweep that stopped after its first point would return it.
	ls := make([]*mat.CMatrix, 13)
	for i := range ls {
		ls[i] = randC(rng, 6).Scale(complex(0.5+0.02*float64(i), 0))
	}
	nil6 := mat.CZeros(6, 6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			nil6.Set(i, j, complex(3*rng.NormFloat64(), 3*rng.NormFloat64()))
		}
	}
	ls[7] = nil6
	first := 0
	for i, m := range ls {
		if lowerCap(m, perronScaling(m)) > lowerCap(ls[first], perronScaling(ls[first])) {
			first = i
		}
	}
	if lo := refMuLowerBound(ls[first]); first != 7 || lo >= refMuLowerBound(ls[0]) {
		t.Fatalf("highest cap at point %d (lower bound %v), want the nilpotent point 7 with the smallest", first, lo)
	}
	if !lowerPeakMatchesOracle(t, ls) {
		t.Fatal("pruned lower peak differs from the reference when the highest cap holds no peak")
	}
}

// resonantAt is a stable 6-channel system with a lightly damped pole pair
// at the angle of grid point k of nGrid, where its μ peaks.
func resonantAt(t *testing.T, k, nGrid int) *lti.StateSpace {
	t.Helper()
	s, c := math.Sincos(math.Pi * float64(k) / float64(nGrid))
	a := mat.FromRows([][]float64{{0.9 * c, -0.9 * s}, {0.9 * s, 0.9 * c}})
	rng := rand.New(rand.NewSource(int64(k)))
	fill := func(rows, cols int, scale float64) *mat.Matrix {
		m := mat.Zeros(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, scale*rng.NormFloat64())
			}
		}
		return m
	}
	sys, err := lti.NewStateSpace(a, fill(2, 6, 1), fill(6, 2, 1), fill(6, 6, 0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// staticSystem has the response d at every frequency.
func staticSystem(t *testing.T, d *mat.Matrix) *lti.StateSpace {
	t.Helper()
	sys, err := lti.NewStateSpace(mat.Zeros(1, 1), mat.Zeros(1, d.Cols()), mat.Zeros(d.Rows(), 1), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// peakGridPoint returns the first grid point where MuUpperBound of sys's
// response is largest.
func peakGridPoint(t *testing.T, sys *lti.StateSpace, nGrid int) int {
	t.Helper()
	at, peak := -1, math.Inf(-1)
	for i := 0; i <= nGrid; i++ {
		g, err := sys.Evaluate(cmplx.Exp(complex(0, math.Pi*float64(i)/float64(nGrid))))
		if err != nil {
			t.Fatal(err)
		}
		if v := MuUpperBound(g); v > peak {
			at, peak = i, v
		}
	}
	return at
}

// peakMatchesOracle reports whether peakMu over the descents of ms returns,
// at GOMAXPROCS 1, 2 and 8, the bits of refSweepMu's reduction of
// refMuUpperBound over the same matrices.
func peakMatchesOracle(t *testing.T, ms []*mat.CMatrix) bool {
	t.Helper()
	var want float64
	for _, m := range ms {
		v := refMuUpperBound(m)
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		if v > want {
			want = v
		}
	}
	for _, procs := range []int{1, 2, 8} {
		ds := make([]*muDescent, len(ms))
		for i, m := range ms {
			ds[i] = newMuDescent(m, nil)
		}
		prev := runtime.GOMAXPROCS(procs)
		got, _ := peakMu(ds)
		runtime.GOMAXPROCS(prev)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("GOMAXPROCS %d: peak %v, want %v", procs, got, want)
			return false
		}
	}
	return true
}

// lowerPeakMatchesOracle reports whether peakLower over ms returns, at
// GOMAXPROCS 1, 2 and 8, the bits of refSweepMu's reduction of
// refMuLowerBound over the same matrices.
func lowerPeakMatchesOracle(t *testing.T, ms []*mat.CMatrix) bool {
	t.Helper()
	var want float64
	caps := make([]float64, len(ms))
	for i, m := range ms {
		if v := refMuLowerBound(m); v > want {
			want = v
		}
		caps[i] = lowerCap(m, perronScaling(m))
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, _ := peakLower(ms, caps)
		runtime.GOMAXPROCS(prev)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("GOMAXPROCS %d: lower peak %v, want %v", procs, got, want)
			return false
		}
	}
	return true
}

// poleAtGridPoint is a stable 3×3 system but for a pole pair on the unit
// circle at grid point k of nGrid, where its response is singular.
func poleAtGridPoint(t *testing.T, k, nGrid int) *lti.StateSpace {
	t.Helper()
	s, c := math.Sincos(math.Pi * float64(k) / float64(nGrid))
	a := mat.FromRows([][]float64{{c, -s, 0}, {s, c, 0}, {0, 0, 0.3}})
	rng := rand.New(rand.NewSource(int64(k)))
	fill := func() *mat.Matrix {
		m := mat.Zeros(3, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		return m
	}
	sys, err := lti.NewStateSpace(a, fill(), fill(), fill(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSweepMuNonFiniteMatchesOracle covers the sweep's early exit: a
// response that is singular at the first, a middle or the last grid point,
// and a finite response so large that σ_max overflows to NaN, at every grid
// point or, grid point by grid point, at one of them alone. Every requested
// bound must be +Inf, as in the reference: the pruned sweep may not skip a
// NaN point.
func TestSweepMuNonFiniteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ms := make([]*mat.CMatrix, 13)
	for i := range ms {
		ms[i] = randC(rng, 4)
	}
	ms[9] = ms[9].Scale(1e160)
	if v := refMuUpperBound(ms[9]); !math.IsNaN(v) {
		t.Fatalf("overflowing matrix has μ upper bound %v, want NaN", v)
	}
	if !peakMatchesOracle(t, ms) {
		t.Fatal("pruned peak differs from the reference with one NaN point")
	}

	var systems []sweepCase
	for _, nGrid := range []int{24, 48} {
		for _, k := range []int{0, nGrid / 2, nGrid} {
			systems = append(systems, sweepCase{sys: poleAtGridPoint(t, k, nGrid), nGrid: nGrid})
		}
	}
	systems = append(systems, sweepCase{sys: nonFiniteSystem(t, 1e200), nGrid: 24})
	for _, c := range systems {
		for _, req := range [][2]bool{{true, false}, {false, true}, {true, true}} {
			c.withUpper, c.withLower = req[0], req[1]
			if _, hi, _ := refSweepMu(c.sys, c.nGrid, c.withUpper, c.withLower); c.withUpper && !math.IsInf(hi, 1) {
				t.Fatalf("grid %d: the reference certified a system with a non-finite response (%v)", c.nGrid, hi)
			}
			if !sweepMatchesOracle(t, c) {
				t.Fatal("concurrent sweep differs from the reference")
			}
		}
	}
}

// refMuLowerBound is the μ lower bound the synthesized controllers were
// first certified with, kept verbatim with its helpers. It allocates its
// iterates, its scaled copy and its real embedding per iteration; the
// production bound reuses them, which may not change a bit of the result.
func refMuLowerBound(m *mat.CMatrix) float64 {
	n := m.Rows()
	if n != m.Cols() {
		panic("robust: MuLowerBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	best := 0.0
	for restart := 0; restart < 4; restart++ {
		b := make([]complex128, n)
		for i := range b {
			theta := 2 * math.Pi * float64(i*(restart+1)) / float64(n+1)
			b[i] = cmplx.Exp(complex(0, theta))
		}
		normalizeVec(b)
		var a []complex128
		for iter := 0; iter < 60; iter++ {
			a = refMulVec(m, b)
			if vecNorm(a) == 0 {
				break
			}
			next := make([]complex128, n)
			for i := range next {
				ph := cmplx.Conj(phase(a[i]) * cmplx.Conj(phase(b[i])))
				next[i] = a[i] * ph
			}
			normalizeVec(next)
			um := m.Clone()
			for i := 0; i < n; i++ {
				u := phase(b[i]) * cmplx.Conj(phase(a[i]))
				for j := 0; j < n; j++ {
					um.Set(i, j, u*m.At(i, j))
				}
			}
			if rho := complexSpectralRadius(um); rho > best {
				best = rho
			}
			var diff float64
			for i := range b {
				diff += cmplx.Abs(next[i] - b[i])
			}
			b = next
			if diff < 1e-9 {
				break
			}
		}
	}
	if rho := complexSpectralRadius(m); rho > best {
		best = rho
	}
	return best
}

// complexSpectralRadius computes ρ(M) through the real 2n×2n embedding.
func complexSpectralRadius(m *mat.CMatrix) float64 {
	n := m.Rows()
	re := mat.Zeros(2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			re.Set(i, j, real(v))
			re.Set(i, n+j, -imag(v))
			re.Set(n+i, j, imag(v))
			re.Set(n+i, n+j, real(v))
		}
	}
	rho, err := mat.SpectralRadius(re)
	if err != nil {
		return 0
	}
	return rho
}

func refMulVec(m *mat.CMatrix, v []complex128) []complex128 {
	n := m.Rows()
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// TestMuLowerBoundMatchesOracle asserts the μ lower bound is bit-identical
// to the reference.
func TestMuLowerBoundMatchesOracle(t *testing.T) {
	f := func(c oracleCase) bool {
		return math.Float64bits(MuLowerBound(c.m)) == math.Float64bits(refMuLowerBound(c.m))
	}
	count := 120
	if testing.Short() {
		count = 30
	}
	if err := quick.Check(f, oracleConfig(4, count)); err != nil {
		t.Fatal(err)
	}
}

// TestMuLowerBoundAllocsIndependentOfIterations asserts MuLowerBound
// allocates its buffers once per call: a scaled identity converges in one
// iteration per restart, a dense matrix runs many, and both allocate the
// same small number of times.
func TestMuLowerBoundAllocsIndependentOfIterations(t *testing.T) {
	ident := mat.CZeros(12, 12)
	for i := 0; i < 12; i++ {
		ident.Set(i, i, 2+1i)
	}
	dense := randC(rand.New(rand.NewSource(9)), 12)
	allocs := func(m *mat.CMatrix, mu func(*mat.CMatrix) float64) float64 {
		return testing.AllocsPerRun(3, func() { mu(m) })
	}
	// The reference allocates per iteration, so it tells the cases apart.
	if allocs(ident, refMuLowerBound) >= allocs(dense, refMuLowerBound) {
		t.Fatal("test matrices do not differ in iteration count")
	}
	quick, slow := allocs(ident, MuLowerBound), allocs(dense, MuLowerBound)
	if quick != slow || slow > 12 {
		t.Fatalf("MuLowerBound allocates %v times on the identity and %v on the dense matrix; want the same small constant", quick, slow)
	}
}

// BenchmarkMuLowerBound times one μ lower bound of a seeded 12×12 complex
// matrix, the order of the hardware layer's Δ block.
func BenchmarkMuLowerBound(b *testing.B) {
	m := randC(rand.New(rand.NewSource(1)), 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		muSink = MuLowerBound(m)
	}
}

// muSink keeps BenchmarkMuLowerBound's result live.
var muSink float64
