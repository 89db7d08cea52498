package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randCMatrix(rng *rand.Rand, r, c int) *CMatrix {
	m := CZeros(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func TestCSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randCMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n)+2, 0))
		}
		x := randCMatrix(rng, n, 2)
		b := a.Mul(x)
		got, err := CSolve(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < 2; j++ {
				if cmplx.Abs(got.At(i, j)-x.At(i, j)) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCInverse(t *testing.T) {
	a := CNew(2, 2, []complex128{1 + 1i, 2, 0, 3 - 1i})
	inv, err := CInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	id := CIdentity(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(prod.At(i, j)-id.At(i, j)) > 1e-12 {
				t.Fatalf("A*A^-1 != I at (%d,%d): %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestCSolveSingular(t *testing.T) {
	a := CNew(2, 2, []complex128{1, 2, 2, 4})
	if _, err := CSolve(a, CIdentity(2)); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestCMaxSingularValueRealAgreement(t *testing.T) {
	// For a real matrix, the complex and real sigma_max must agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a := randMatrix(rng, r, c)
		sReal := MaxSingularValue(a)
		sCplx := CMaxSingularValue(ToComplex(a))
		return math.Abs(sReal-sCplx) <= 1e-6*(1+sReal)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCMaxSingularValueUnitary(t *testing.T) {
	// A diagonal unitary matrix has sigma_max 1.
	u := CZeros(3, 3)
	u.Set(0, 0, cmplx.Exp(0.3i))
	u.Set(1, 1, cmplx.Exp(1.2i))
	u.Set(2, 2, cmplx.Exp(-0.7i))
	if s := CMaxSingularValue(u); math.Abs(s-1) > 1e-9 {
		t.Fatalf("sigma_max(unitary) = %v, want 1", s)
	}
}

func TestConjTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		c := 1 + rng.Intn(4)
		a := randCMatrix(rng, r, k)
		b := randCMatrix(rng, k, c)
		lhs := a.Mul(b).ConjT()
		rhs := b.ConjT().Mul(a.ConjT())
		for i := 0; i < lhs.rows; i++ {
			for j := 0; j < lhs.cols; j++ {
				if cmplx.Abs(lhs.At(i, j)-rhs.At(i, j)) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCMaxSingularValueNonFinite(t *testing.T) {
	// A non-finite entry has no finite σ_max: +Inf at once, not NaN after
	// the full iteration budget.
	for _, bad := range []complex128{
		complex(math.NaN(), 0), complex(0, math.NaN()),
		complex(math.Inf(1), 0), complex(0, math.Inf(-1)),
	} {
		m := CIdentity(3)
		m.Set(1, 2, bad)
		if s := CMaxSingularValue(m); !math.IsInf(s, 1) {
			t.Fatalf("sigma_max with entry %v = %v, want +Inf", bad, s)
		}
		var ws SVWork
		if s := ws.MaxSingularValue(m, 1); !math.IsInf(s, 1) {
			t.Fatalf("workspace sigma_max with entry %v = %v, want +Inf", bad, s)
		}
	}
}

func TestSVWorkStopsOnlyAboveStop(t *testing.T) {
	// Stopping early returns an estimate at or above stop, and never a value
	// above σ_max; a stop above σ_max changes nothing.
	rng := rand.New(rand.NewSource(5))
	var ws SVWork
	for trial := 0; trial < 50; trial++ {
		m := randCMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		full := CMaxSingularValue(m)
		if got := ws.MaxSingularValue(m, 2*full); got != full {
			t.Fatalf("trial %d: stop above sigma_max gave %v, want %v", trial, got, full)
		}
		stop := 0.5 * full
		if got := ws.MaxSingularValue(m, stop); got < stop || got > full*(1+1e-12) {
			t.Fatalf("trial %d: early stop at %v returned %v (sigma_max %v)", trial, stop, got, full)
		}
	}
}

// BenchmarkCMaxSingularValue times one σ_max of a seeded 12×12 complex
// matrix, the order of the hardware layer's Δ block.
func BenchmarkCMaxSingularValue(b *testing.B) {
	m := randCMatrix(rand.New(rand.NewSource(1)), 12, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CMaxSingularValue(m)
	}
}
