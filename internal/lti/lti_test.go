package lti

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"yukta/internal/mat"
)

const ts = 0.5 // the Yukta sampling interval

// firstOrder returns the scalar system y(T+1)'s x dynamics: x+ = a x + b u,
// y = c x + d u.
func firstOrder(a, b, c, d float64) *StateSpace {
	return MustStateSpace(
		mat.New(1, 1, []float64{a}),
		mat.New(1, 1, []float64{b}),
		mat.New(1, 1, []float64{c}),
		mat.New(1, 1, []float64{d}),
		ts,
	)
}

func randStable(rng *rand.Rand, n, m, p int) *StateSpace {
	a := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	// Scale A to spectral radius <= 0.85.
	r, err := mat.SpectralRadius(a)
	if err == nil && r > 0 {
		a = a.Scale(0.85 / r)
	}
	b := mat.Zeros(n, m)
	c := mat.Zeros(p, n)
	d := mat.Zeros(p, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	return MustStateSpace(a, b, c, d, ts)
}

func TestNewStateSpaceValidates(t *testing.T) {
	_, err := NewStateSpace(mat.Zeros(2, 3), mat.Zeros(2, 1), mat.Zeros(1, 2), mat.Zeros(1, 1), ts)
	if err == nil {
		t.Fatal("expected dimension error for non-square A")
	}
	_, err = NewStateSpace(mat.Zeros(2, 2), mat.Zeros(3, 1), mat.Zeros(1, 2), mat.Zeros(1, 1), ts)
	if err == nil {
		t.Fatal("expected dimension error for B rows")
	}
	_, err = NewStateSpace(mat.Zeros(2, 2), mat.Zeros(2, 1), mat.Zeros(1, 2), mat.Zeros(1, 1), -1)
	if err == nil {
		t.Fatal("expected error for negative Ts")
	}
}

func TestStability(t *testing.T) {
	if !firstOrder(0.9, 1, 1, 0).IsStable() {
		t.Fatal("a=0.9 should be stable")
	}
	if firstOrder(1.1, 1, 1, 0).IsStable() {
		t.Fatal("a=1.1 should be unstable")
	}
	if firstOrder(-0.99, 1, 1, 0).IsStable() == false {
		t.Fatal("a=-0.99 should be stable")
	}
}

func TestEvaluateScalar(t *testing.T) {
	// G(z) = c*b/(z-a) + d; check at z=1.
	g := firstOrder(0.5, 2, 3, 1)
	got, err := g.Evaluate(1)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0*2.0/(1-0.5) + 1 // 13
	if cmplx.Abs(got.At(0, 0)-complex(want, 0)) > 1e-12 {
		t.Fatalf("G(1) = %v, want %v", got.At(0, 0), want)
	}
}

func TestDCGainMatchesSimulation(t *testing.T) {
	g := firstOrder(0.7, 1, 1, 0)
	dc, err := g.DCGain()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := g.StepResponse(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	final := resp[len(resp)-1][0]
	if math.Abs(final-dc.At(0, 0)) > 1e-9 {
		t.Fatalf("step settles at %v, DC gain %v", final, dc.At(0, 0))
	}
}

func TestHInfNormScalar(t *testing.T) {
	// For G(z) = 1/(z-a), the peak on the unit circle is at z=1 (a>0):
	// |G| = 1/(1-a).
	g := firstOrder(0.8, 1, 1, 0)
	norm, err := g.HInfNorm()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - 0.8)
	if math.Abs(norm-want) > 1e-6*want {
		t.Fatalf("HInf = %v, want %v", norm, want)
	}
}

func TestHInfStaticGain(t *testing.T) {
	g := MustStateSpace(mat.Zeros(0, 0), mat.Zeros(0, 2), mat.Zeros(2, 0),
		mat.FromRows([][]float64{{3, 0}, {0, 1}}), ts)
	norm, err := g.HInfNorm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-3) > 1e-9 {
		t.Fatalf("HInf of static gain = %v, want 3", norm)
	}
}

func TestParallelMatchesSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1 := randStable(rng, 1+rng.Intn(3), 2, 2)
		g2 := randStable(rng, 1+rng.Intn(3), 2, 2)
		p, err := Parallel(g1, g2)
		if err != nil {
			return false
		}
		z := cmplx.Exp(complex(0, 0.9))
		pv, _ := p.Evaluate(z)
		g1v, _ := g1.Evaluate(z)
		g2v, _ := g2.Evaluate(z)
		want := g1v.Add(g2v)
		for i := 0; i < pv.Rows(); i++ {
			for j := 0; j < pv.Cols(); j++ {
				if cmplx.Abs(pv.At(i, j)-want.At(i, j)) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFeedbackScalarKnown(t *testing.T) {
	// Closed loop of G(z)=1/(z-a) with unit negative feedback:
	// T(z) = G/(1+G) = 1/(z-a+1).
	g := firstOrder(0.5, 1, 1, 0)
	h := MustStateSpace(mat.Zeros(0, 0), mat.Zeros(0, 1), mat.Zeros(1, 0),
		mat.New(1, 1, []float64{1}), ts)
	cl, err := Feedback(g, h, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0.2, 1.1} {
		z := cmplx.Exp(complex(0, theta))
		got, _ := cl.Evaluate(z)
		want := 1 / (z - 0.5 + 1)
		if cmplx.Abs(got.At(0, 0)-want) > 1e-10 {
			t.Fatalf("T(%v) = %v, want %v", z, got.At(0, 0), want)
		}
	}
}

func TestFeedbackAlgebraicLoopError(t *testing.T) {
	// Static g with D=1 and static h with D=1 and positive feedback gives
	// singular I - D*Dh.
	g := MustStateSpace(mat.Zeros(0, 0), mat.Zeros(0, 1), mat.Zeros(1, 0),
		mat.New(1, 1, []float64{1}), ts)
	if _, err := Feedback(g, g, 1); err == nil {
		t.Fatal("expected singular algebraic loop error")
	}
}

func TestLFTLowerEquivalence(t *testing.T) {
	// For a plant with no direct feedthrough between control and measurement
	// partitions, closing a static controller via LFT must match a hand
	// computation at a point: use scalar blocks.
	// P: 2 inputs (w,u), 2 outputs (z,y); state 1.
	a := mat.New(1, 1, []float64{0.6})
	b := mat.FromRows([][]float64{{1, 2}})
	c := mat.FromRows([][]float64{{1}, {0.5}})
	d := mat.FromRows([][]float64{{0, 0.3}, {0.1, 0}})
	p := MustStateSpace(a, b, c, d, ts)
	// Static controller u = 2y.
	k := MustStateSpace(mat.Zeros(0, 0), mat.Zeros(0, 1), mat.Zeros(1, 0),
		mat.New(1, 1, []float64{2}), ts)
	cl, err := LFTLower(p, 1, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	// Verify by direct transfer algebra at z0.
	z0 := cmplx.Exp(complex(0, 0.4))
	pm, _ := p.Evaluate(z0)
	p11, p12 := pm.At(0, 0), pm.At(0, 1)
	p21, p22 := pm.At(1, 0), pm.At(1, 1)
	kv := complex(2, 0)
	want := p11 + p12*kv*p21/(1-p22*kv)
	got, _ := cl.Evaluate(z0)
	if cmplx.Abs(got.At(0, 0)-want) > 1e-10 {
		t.Fatalf("LFT(%v) = %v, want %v", z0, got.At(0, 0), want)
	}
	if cl.Inputs() != 1 || cl.Outputs() != 1 {
		t.Fatalf("LFT shape %dx%d, want 1x1", cl.Outputs(), cl.Inputs())
	}
}

func TestDiscreteLyapunovResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		g := randStable(rng, n, 1, 1)
		q := mat.Identity(n)
		x, err := DiscreteLyapunov(g.A, q)
		if err != nil {
			return false
		}
		resid := g.A.Mul(x).Mul(g.A.T()).Sub(x).Add(q)
		return resid.MaxAbs() < 1e-8*(1+x.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscreteLyapunovRejectsUnstable(t *testing.T) {
	a := mat.New(1, 1, []float64{1.2})
	if _, err := DiscreteLyapunov(a, mat.Identity(1)); err != ErrUnstable {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}
}

func TestH2NormScalar(t *testing.T) {
	// For x+ = a x + u, y = x: H2^2 = sum a^{2k} = 1/(1-a^2).
	g := firstOrder(0.5, 1, 1, 0)
	h2, err := g.H2Norm()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(1 / (1 - 0.25))
	if math.Abs(h2-want) > 1e-9 {
		t.Fatalf("H2 = %v, want %v", h2, want)
	}
}

func TestSimulateImpulse(t *testing.T) {
	// Impulse through x+ = 0.5x + u, y = x gives y = 0, 1, 0.5, 0.25 ...
	g := firstOrder(0.5, 1, 1, 0)
	u := [][]float64{{1}, {0}, {0}, {0}}
	y, err := g.Simulate(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0.5, 0.25}
	for i, w := range want {
		if math.Abs(y[i][0]-w) > 1e-12 {
			t.Fatalf("impulse response %v, want %v", y, want)
		}
	}
}

func TestBalancedTruncationPreservesDCGain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randStable(rng, 6, 1, 1)
	r, err := g.BalancedTruncation(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Order() != 3 {
		t.Fatalf("reduced order %d, want 3", r.Order())
	}
	gd, _ := g.DCGain()
	rd, _ := r.DCGain()
	// Projection-based reduction keeps the dominant dynamics; the DC gains
	// should be within a loose factor for a random well-damped system.
	if math.Abs(gd.At(0, 0)) > 1e-6 {
		rel := math.Abs(rd.At(0, 0)-gd.At(0, 0)) / math.Abs(gd.At(0, 0))
		if rel > 0.5 {
			t.Fatalf("DC gain drifted: %v vs %v", rd.At(0, 0), gd.At(0, 0))
		}
	}
}

func TestAppendBlockStructure(t *testing.T) {
	g1 := firstOrder(0.5, 1, 1, 0)
	g2 := firstOrder(0.3, 1, 1, 0)
	ap, err := Append(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Inputs() != 2 || ap.Outputs() != 2 || ap.Order() != 2 {
		t.Fatalf("append shape wrong: %d inputs %d outputs %d states", ap.Inputs(), ap.Outputs(), ap.Order())
	}
	// Cross-coupling must be zero.
	z := cmplx.Exp(complex(0, 0.3))
	gv, _ := ap.Evaluate(z)
	if cmplx.Abs(gv.At(0, 1)) > 1e-12 || cmplx.Abs(gv.At(1, 0)) > 1e-12 {
		t.Fatalf("append has cross coupling: %v", gv)
	}
}

// TestNonFiniteAIsNotStable asserts a NaN or infinite A is neither Schur
// stable nor accepted by the Lyapunov solver: its eigenvalues are rejected
// with mat.ErrNotFinite instead of giving a spectral radius of 0 (NaN) or
// never returning (Inf).
func TestNonFiniteAIsNotStable(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := firstOrder(bad, 1, 1, 0)
		if g.IsStable() {
			t.Fatalf("a=%v reported stable", bad)
		}
		if _, err := g.SpectralRadius(); !errors.Is(err, mat.ErrNotFinite) {
			t.Fatalf("a=%v: SpectralRadius error %v, want mat.ErrNotFinite", bad, err)
		}
		a := mat.FromRows([][]float64{{0.5, 0.1}, {bad, 0.2}})
		if _, err := DiscreteLyapunov(a, mat.Identity(2)); err != ErrUnstable {
			t.Fatalf("A with entry %v: DiscreteLyapunov error %v, want ErrUnstable", bad, err)
		}
	}
}
