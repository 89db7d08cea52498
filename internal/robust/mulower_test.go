package robust

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"yukta/internal/mat"
)

func TestMuLowerScalar(t *testing.T) {
	m := mat.CZeros(1, 1)
	m.Set(0, 0, 3+4i)
	if got := MuLowerBound(m); math.Abs(got-5) > 1e-12 {
		t.Fatalf("lower bound of scalar = %v, want 5", got)
	}
}

func TestMuLowerDiagonalExact(t *testing.T) {
	// For diagonal M, μ = max|m_ii| exactly; both bounds must agree.
	m := mat.CZeros(3, 3)
	m.Set(0, 0, 1+1i)
	m.Set(1, 1, -2)
	m.Set(2, 2, 0.3i)
	lo := MuLowerBound(m)
	hi := MuUpperBound(m)
	if math.Abs(lo-2) > 1e-6 || math.Abs(hi-2) > 1e-6 {
		t.Fatalf("bounds %v..%v, want both 2", lo, hi)
	}
}

func TestMuBoundsBracket(t *testing.T) {
	// lower <= upper always, and the gap should be modest for small random
	// matrices (D-scaling is exact for n <= 3 scalar blocks).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := randC(rng, n)
		lo := MuLowerBound(m)
		hi := MuUpperBound(m)
		if lo > hi*(1+1e-6) {
			return false
		}
		// The lower bound must at least reach the spectral radius.
		return lo >= complexSpectralRadius(m)-1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMuBoundsTightFor2x2(t *testing.T) {
	// For two scalar blocks the D-scaled upper bound equals μ; the power
	// iteration should close most of the gap.
	rng := rand.New(rand.NewSource(77))
	var worst float64
	for trial := 0; trial < 20; trial++ {
		m := randC(rng, 2)
		lo := MuLowerBound(m)
		hi := MuUpperBound(m)
		if hi == 0 {
			continue
		}
		gap := (hi - lo) / hi
		if gap > worst {
			worst = gap
		}
	}
	if worst > 0.25 {
		t.Fatalf("2x2 bound gap up to %.0f%%, lower-bound iteration too weak", worst*100)
	}
}

// TestLowerCapBoundsMuLowerBound pins the invariant the pruned lower sweep
// rests on (DESIGN.md §19): no lower bound exceeds its cap. Rank-one
// matrices are the tight case, where the Perron-scaled Frobenius norm is μ
// itself and the power iteration attains it; a single nonzero entry leaves
// only the rounding allowance between the two.
func TestLowerCapBoundsMuLowerBound(t *testing.T) {
	holds := func(m *mat.CMatrix) bool {
		lo, c := MuLowerBound(m), lowerCap(m, perronScaling(m))
		if !(lo <= c) {
			t.Logf("%d×%d: lower bound %v above its cap %v", m.Rows(), m.Cols(), lo, c)
		}
		return lo <= c
	}
	if err := quick.Check(func(c oracleCase) bool { return holds(c.m) }, oracleConfig(7, 100)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= 12; n++ {
		u, v := randC(rng, n), randC(rng, n)
		rankOne, single := mat.CZeros(n, n), mat.CZeros(n, n)
		for i := 0; i < n; i++ {
			scale := complex(math.Pow(10, float64(i%5-2)), 0)
			for j := 0; j < n; j++ {
				rankOne.Set(i, j, scale*u.At(i, 0)*v.At(0, j))
			}
		}
		single.Set(n/2, n/2, u.At(n-1, n-1))
		if !holds(rankOne) || !holds(single) {
			t.Fatal("a lower bound exceeds its cap")
		}
	}
}
