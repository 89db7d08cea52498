package robust

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

func randC(rng *rand.Rand, n int) *mat.CMatrix {
	m := mat.CZeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func TestMuScalar(t *testing.T) {
	m := mat.CZeros(1, 1)
	m.Set(0, 0, 3-4i)
	if got := MuUpperBound(m); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mu of scalar = %v, want 5", got)
	}
}

func TestMuDiagonal(t *testing.T) {
	// For a diagonal M with scalar blocks, mu equals max |m_ii| exactly and
	// D-scaling must achieve it.
	m := mat.CZeros(3, 3)
	m.Set(0, 0, 2i)
	m.Set(1, 1, -1)
	m.Set(2, 2, 0.5+0.5i)
	got := MuUpperBound(m)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("mu of diagonal = %v, want 2", got)
	}
}

func TestMuBoundsSandwich(t *testing.T) {
	// rho(M) <= mu(M) <= sigma_max(M) for scalar-block structure.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := randC(rng, n)
		mu := MuUpperBound(m)
		sigma := mat.CMaxSingularValue(m)
		if mu > sigma+1e-8 {
			return false
		}
		// Spectral radius via the real embedding of the complex matrix:
		// [Re -Im; Im Re] has eigenvalues = eigs of M and conj(M).
		re := mat.Zeros(2*n, 2*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				re.Set(i, j, real(m.At(i, j)))
				re.Set(i, n+j, -imag(m.At(i, j)))
				re.Set(n+i, j, imag(m.At(i, j)))
				re.Set(n+i, n+j, real(m.At(i, j)))
			}
		}
		rho, err := mat.SpectralRadius(re)
		if err != nil {
			return true // skip on eig failure
		}
		return rho <= mu+1e-6*(1+mu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMuScalingInvariance(t *testing.T) {
	// mu(cM) = |c| mu(M).
	rng := rand.New(rand.NewSource(17))
	m := randC(rng, 4)
	mu1 := MuUpperBound(m)
	mu3 := MuUpperBound(m.Scale(3))
	if math.Abs(mu3-3*mu1) > 1e-6*(1+mu3) {
		t.Fatalf("mu(3M)=%v, 3*mu(M)=%v", mu3, 3*mu1)
	}
}

func TestMuBeatsRawSigmaOnSkewedMatrix(t *testing.T) {
	// A matrix with large off-diagonal asymmetry: D-scaling must strictly
	// improve over sigma_max.
	m := mat.CZeros(2, 2)
	m.Set(0, 0, 0.1)
	m.Set(0, 1, 100)
	m.Set(1, 0, 0.0001)
	m.Set(1, 1, 0.1)
	sigma := mat.CMaxSingularValue(m)
	mu := MuUpperBound(m)
	if mu >= sigma*0.5 {
		t.Fatalf("expected D-scaling to shrink bound: mu=%v sigma=%v", mu, sigma)
	}
	// mu(M) for scalar blocks is >= rho(M) ~ 0.1-ish here.
	if mu < 0.1 {
		t.Fatalf("mu=%v below spectral radius", mu)
	}
}

func TestSystemMuMatchesHInfForSISO(t *testing.T) {
	// For a 1x1 system the mu upper bound equals |G|, so SystemMu == HInf
	// up to grid resolution.
	a := mat.New(1, 1, []float64{0.8})
	b := mat.New(1, 1, []float64{1})
	c := mat.New(1, 1, []float64{1})
	d := mat.New(1, 1, []float64{0})
	g := lti.MustStateSpace(a, b, c, d, 0.5)
	mu, err := SystemMu(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	hinf, err := g.HInfNorm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-hinf) > 0.02*hinf {
		t.Fatalf("SystemMu=%v, HInf=%v", mu, hinf)
	}
}

func TestPerronVector(t *testing.T) {
	// Perron vector of [[2,1],[1,2]] is [0.5, 0.5] after 1-norm scaling.
	a := mat.FromRows([][]float64{{2, 1}, {1, 2}})
	v := perronVector(a)
	if math.Abs(v[0]-0.5) > 1e-9 || math.Abs(v[1]-0.5) > 1e-9 {
		t.Fatalf("perron vector %v, want [0.5 0.5]", v)
	}
}

func TestMuUnitaryDiagonalInvariance(t *testing.T) {
	// mu is invariant under multiplication by a diagonal unitary matrix
	// (scalar uncertainty structure absorbs phases).
	rng := rand.New(rand.NewSource(23))
	m := randC(rng, 3)
	u := mat.CZeros(3, 3)
	u.Set(0, 0, cmplx.Exp(0.4i))
	u.Set(1, 1, cmplx.Exp(-1.1i))
	u.Set(2, 2, cmplx.Exp(2.2i))
	mu1 := MuUpperBound(m)
	mu2 := MuUpperBound(u.Mul(m))
	if math.Abs(mu1-mu2) > 1e-6*(1+mu1) {
		t.Fatalf("mu not phase invariant: %v vs %v", mu1, mu2)
	}
}

func TestMuUpperBoundNonFinite(t *testing.T) {
	// A non-finite entry means unbounded gain: +Inf at once, for scalars and
	// for matrices (the seed returned NaN after every trial's full budget).
	for _, n := range []int{1, 3} {
		for _, bad := range []complex128{
			complex(math.NaN(), 0), complex(0, math.NaN()),
			complex(math.Inf(1), 0), complex(0, math.Inf(-1)),
		} {
			m := mat.CIdentity(n)
			m.Set(n-1, 0, bad)
			if mu := MuUpperBound(m); !math.IsInf(mu, 1) {
				t.Fatalf("n=%d entry %v: mu upper bound %v, want +Inf", n, bad, mu)
			}
		}
	}
}

// nonFiniteSystem is a stable 2×2 system whose frequency response entry
// (0,0) is driven to d00 through D.
func nonFiniteSystem(t *testing.T, d00 float64) *lti.StateSpace {
	t.Helper()
	sys, err := lti.NewStateSpace(mat.Diag([]float64{0.5, -0.3}), mat.Identity(2),
		mat.Identity(2), mat.FromRows([][]float64{{d00, 0.1}, {0, 0.2}}), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemMuNonFiniteResponseNotCertified(t *testing.T) {
	// A NaN in the response used to slip past the running maximum and
	// report lo = hi = 0, certifying the system as robust. A finite but huge
	// response overflows σ_max to NaN, which must not slip past either.
	for _, d00 := range []float64{math.NaN(), math.Inf(1), 1e200} {
		_, hi, err := SystemMuBounds(nonFiniteSystem(t, d00), 16, true)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(hi, 1) {
			t.Fatalf("D[0][0]=%v: system mu upper bound %v, want +Inf", d00, hi)
		}
		if mu, _ := SystemMu(nonFiniteSystem(t, d00), 16); !math.IsInf(mu, 1) {
			t.Fatalf("D[0][0]=%v: SystemMu %v, want +Inf", d00, mu)
		}
	}
}

func TestSystemMuNonFiniteResponseUnrequestedBoundZero(t *testing.T) {
	// A non-finite response used to return +Inf for both bounds, so an
	// unrequested lower bound read +Inf, and FillSSVLower's upper-free sweep
	// an upper bound of +Inf. Only a requested bound is +Inf.
	for _, d00 := range []float64{math.NaN(), math.Inf(1), 1e200} {
		if lo, _, _ := SystemMuBounds(nonFiniteSystem(t, d00), 16, false); lo != 0 {
			t.Fatalf("D[0][0]=%v: unrequested lower bound %v, want 0", d00, lo)
		}
	}
	for _, d00 := range []float64{math.NaN(), math.Inf(1)} {
		lo, hi, _, _ := sweepMu(nonFiniteSystem(t, d00), 24, false, true)
		if hi != 0 || !math.IsInf(lo, 1) {
			t.Fatalf("D[0][0]=%v: lower-bound sweep gave (lo, hi) = (%v, %v), want (+Inf, 0)", d00, lo, hi)
		}
	}
}

// hwShapedClosedLoop is the closed loop of a seeded hardware-shaped design:
// a 4×4 plant, so a 12×12 Δ block.
func hwShapedClosedLoop(t *testing.T) *lti.StateSpace {
	t.Helper()
	spec := &Spec{
		Plant:        randStable(rand.New(rand.NewSource(1)), 8, 4, 4),
		NumControls:  4,
		InputWeights: []float64{1, 1, 1, 1},
		InputQuanta:  []float64{0.05, 0.05, 0.05, 0.05},
		OutputBounds: []float64{0.2, 0.2, 0.1, 0.1},
		Uncertainty:  0.4,
	}
	k, err := designCandidate(spec, 1, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := buildClosedLoop(spec, k, spec.resolveTargetScales())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Inputs() != 12 || !cl.IsStable() {
		t.Fatalf("closed loop has %d Δ channels (stable %v), want a stable 12", cl.Inputs(), cl.IsStable())
	}
	return cl
}

// TestSweepMuPrunesDescents guards the pruning itself, which the oracles
// cannot see: a sweep that ran every descent would return the same bits.
// On one CPU the 49-point sweep of a hardware-shaped closed loop visits its
// highest-starting point first, and the descents of all but a point or two
// start below where that one ends.
func TestSweepMuPrunesDescents(t *testing.T) {
	cl := hwShapedClosedLoop(t)
	prev := runtime.GOMAXPROCS(1)
	_, hi, descents, _ := sweepMu(cl, 48, true, false)
	runtime.GOMAXPROCS(prev)
	if descents < 1 || descents > 2 {
		t.Fatalf("sweep entered the descent at %d of 49 grid points, want 1 or 2", descents)
	}
	if _, want, _ := refSweepMu(cl, 48, true, false); math.Float64bits(hi) != math.Float64bits(want) {
		t.Fatalf("pruned sweep %v, reference %v", hi, want)
	}
}

// TestSweepMuPrunesLowerBounds is the same guard for the lower bound: on
// one CPU the 25-point lower sweep of the hardware-shaped closed loop (the
// sweep FillSSVLower runs on a kept design) visits its highest-capped point
// first, and the caps of all but a few points fall at or below the bound
// found there.
func TestSweepMuPrunesLowerBounds(t *testing.T) {
	cl := hwShapedClosedLoop(t)
	prev := runtime.GOMAXPROCS(1)
	lo, _, _, lowers := sweepMu(cl, 24, false, true)
	runtime.GOMAXPROCS(prev)
	if lowers < 1 || lowers > 4 {
		t.Fatalf("sweep ran the lower bound at %d of 25 grid points, want 1 to 4", lowers)
	}
	if want, _, _ := refSweepMu(cl, 24, false, true); math.Float64bits(lo) != math.Float64bits(want) {
		t.Fatalf("pruned lower sweep %v, reference %v", lo, want)
	}
}

func TestMuUpperBoundAllocsIndependentOfPasses(t *testing.T) {
	// A diagonal matrix is optimally scaled from the start and its descent
	// only shrinks the step; a badly scaled dense matrix accepts steps for
	// many more passes. Both allocate the same few buffers once.
	diag := mat.CZeros(12, 12)
	for i := 0; i < 12; i++ {
		diag.Set(i, i, complex(float64(i+1), 1))
	}
	rng := rand.New(rand.NewSource(9))
	dense := randC(rng, 12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			dense.Set(i, j, dense.At(i, j)*complex(math.Pow(10, float64(i-j)/3), 0))
		}
	}
	allocs := func(m *mat.CMatrix, mu func(*mat.CMatrix) float64) float64 {
		return testing.AllocsPerRun(3, func() { mu(m) })
	}
	// The reference allocates per trial, so it tells the cases apart.
	if allocs(diag, refMuUpperBound) >= allocs(dense, refMuUpperBound) {
		t.Fatal("test matrices do not differ in descent work")
	}
	quick, slow := allocs(diag, MuUpperBound), allocs(dense, MuUpperBound)
	if quick != slow || slow > 20 {
		t.Fatalf("MuUpperBound allocates %v times on the diagonal matrix and %v on the dense one; want the same small constant", quick, slow)
	}
}

// BenchmarkMuUpperBound times one μ upper bound of a seeded 12×12 complex
// matrix, the order of the hardware layer's Δ block (4 guardband, 4 effort
// and 4 performance channels).
func BenchmarkMuUpperBound(b *testing.B) {
	m := randC(rand.New(rand.NewSource(1)), 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MuUpperBound(m)
	}
}

// BenchmarkSystemMuBounds times the two μ sweeps the design flow runs on a
// closed loop: the 49-point upper-bound sweep of every synthesis step and
// the 25-point lower-bound sweep of the kept design, which runs the power
// iteration only at the points whose caps exceed the bounds found so far.
// This system's caps all lie above its peak lower bound, so every point
// runs; the design flow's closed loops run 1 to 4. The system is a seeded
// stable one of the hardware closed loop's shape (44 states, 12 Δ
// channels); the grid points run on GOMAXPROCS workers.
func BenchmarkSystemMuBounds(b *testing.B) {
	sys := randStable(rand.New(rand.NewSource(1)), 44, 12, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := SystemMuBounds(sys, 48, false); err != nil {
			b.Fatal(err)
		}
		sweepMu(sys, 24, false, true)
	}
}
