package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := Zeros(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	New(2, 2, []float64{1, 2, 3})
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(3)
	d := Diag([]float64{1, 1, 1})
	if !id.Equal(d, 0) {
		t.Fatalf("Identity(3) != Diag(ones):\n%v\n%v", id, d)
	}
	if id.Trace() != 3 {
		t.Fatalf("trace of I3 = %v, want 3", id.Trace())
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 4, 4)
	if !a.Mul(Identity(4)).Equal(a, 1e-14) {
		t.Fatal("A*I != A")
	}
	if !Identity(4).Mul(a).Equal(a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 0) {
		t.Fatalf("got\n%v want\n%v", got, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randMatrix(rng, r, c)
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransposeProperty(t *testing.T) {
	// (A*B)^T == B^T * A^T
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		k := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a := randMatrix(rng, r, k)
		b := randMatrix(rng, k, c)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a := randMatrix(rng, r, c)
		b := randMatrix(rng, r, c)
		// (a+b)-b == a, and 2a == a+a
		if !a.Add(b).Sub(b).Equal(a, 1e-12) {
			return false
		}
		return a.Scale(2).Equal(a.Add(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, 5, 3)
	v := []float64{1, -2, 0.5}
	got := a.MulVec(v)
	want := a.Mul(ColVector(v))
	for i, g := range got {
		if math.Abs(g-want.At(i, 0)) > 1e-14 {
			t.Fatalf("MulVec mismatch at %d: %v vs %v", i, g, want.At(i, 0))
		}
	}
}

// BenchmarkMulVecTo times one product into a reused dst at square orders
// either side of the synthesized controllers' state orders (the hardware SSV
// design's A is 20×20, the OS design's 15×15, the monolithic LQG's 28×28).
func BenchmarkMulVecTo(b *testing.B) {
	for _, n := range []int{12, 24} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := randMatrix(rng, n, n)
			v := randMatrix(rng, n, 1).data
			dst := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = m.MulVecTo(dst, v)
			}
		})
	}
}

func TestSliceAndSetSlice(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Slice(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equal(want, 0) {
		t.Fatalf("Slice got\n%v want\n%v", s, want)
	}
	b := Zeros(3, 3)
	b.SetSlice(1, 1, FromRows([][]float64{{1, 2}, {3, 4}}))
	if b.At(1, 1) != 1 || b.At(2, 2) != 4 || b.At(0, 0) != 0 {
		t.Fatalf("SetSlice wrong result:\n%v", b)
	}
}

func TestStackAndBlockDiag(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}})
	h := a.HStack(b)
	if h.Rows() != 1 || h.Cols() != 4 || h.At(0, 2) != 3 {
		t.Fatalf("HStack wrong: %v", h)
	}
	v := a.VStack(b)
	if v.Rows() != 2 || v.Cols() != 2 || v.At(1, 0) != 3 {
		t.Fatalf("VStack wrong: %v", v)
	}
	bd := BlockDiag(Identity(2), FromRows([][]float64{{5}}))
	if bd.Rows() != 3 || bd.At(2, 2) != 5 || bd.At(0, 2) != 0 {
		t.Fatalf("BlockDiag wrong: %v", bd)
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randMatrix(rng, n, n)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := randMatrix(rng, n, 2)
		b := a.Mul(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return got.Equal(x, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).Equal(Identity(2), 1e-12) {
		t.Fatalf("A*A^-1 != I:\n%v", a.Mul(inv))
	}
}

func TestSingularDetection(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	if d := Det(a); math.Abs(d) > 1e-12 {
		t.Fatalf("det of singular matrix = %v, want 0", d)
	}
}

func TestDetKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}})
	if d := Det(a); math.Abs(d-24) > 1e-12 {
		t.Fatalf("det = %v, want 24", d)
	}
	// Permutation flips sign.
	p := FromRows([][]float64{{0, 1}, {1, 0}})
	if d := Det(p); math.Abs(d+1) > 1e-12 {
		t.Fatalf("det of swap = %v, want -1", d)
	}
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system must be solved exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := n + 1 + rng.Intn(5)
		a := randMatrix(rng, m, n)
		x := randMatrix(rng, n, 1)
		b := a.Mul(x)
		got, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		return got.Equal(x, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQRResidualOrthogonality(t *testing.T) {
	// Least-squares residual must be orthogonal to the column space: A^T r = 0.
	rng := rand.New(rand.NewSource(42))
	a := randMatrix(rng, 10, 3)
	b := randMatrix(rng, 10, 1)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := b.Sub(a.Mul(x))
	atr := a.T().Mul(r)
	if atr.MaxAbs() > 1e-10 {
		t.Fatalf("A^T r = %v, want ~0", atr)
	}
}

func TestQRFactorReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 6, 4)
	r := QRDecompose(a).R()
	// R must be upper triangular with the same column norms profile as A:
	// verify A^T A == R^T R (Q orthogonal).
	lhs := a.T().Mul(a)
	rhs := r.T().Mul(r)
	if !lhs.Equal(rhs, 1e-10) {
		t.Fatalf("A^T A != R^T R:\n%v\n%v", lhs, rhs)
	}
	for i := 1; i < r.Rows(); i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R not upper triangular at (%d,%d)", i, j)
			}
		}
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	a := Diag([]float64{3, -1, 0.5})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	found := map[float64]bool{}
	for _, l := range eig {
		if math.Abs(imag(l)) > 1e-12 {
			t.Fatalf("diagonal matrix has complex eigenvalue %v", l)
		}
		found[math.Round(real(l)*1000)/1000] = true
	}
	for _, want := range []float64{3, -1, 0.5} {
		if !found[want] {
			t.Fatalf("eigenvalue %v not found in %v", want, eig)
		}
	}
}

func TestEigenvaluesComplexPair(t *testing.T) {
	// Rotation-like matrix: eigenvalues 1 ± 2i.
	a := FromRows([][]float64{{1, -2}, {2, 1}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	okPos, okNeg := false, false
	for _, l := range eig {
		if math.Abs(real(l)-1) < 1e-9 && math.Abs(imag(l)-2) < 1e-9 {
			okPos = true
		}
		if math.Abs(real(l)-1) < 1e-9 && math.Abs(imag(l)+2) < 1e-9 {
			okNeg = true
		}
	}
	if !okPos || !okNeg {
		t.Fatalf("eigenvalues %v, want 1±2i", eig)
	}
}

func TestEigenvalueTraceDetInvariants(t *testing.T) {
	// Sum of eigenvalues == trace; product == det.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := randMatrix(rng, n, n)
		eig, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		var sum complex128
		prod := complex(1, 0)
		for _, l := range eig {
			sum += l
			prod *= l
		}
		if math.Abs(real(sum)-a.Trace()) > 1e-6*(1+math.Abs(a.Trace())) {
			return false
		}
		d := Det(a)
		return math.Abs(real(prod)-d) <= 1e-5*(1+math.Abs(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpectralRadius(t *testing.T) {
	a := Diag([]float64{0.5, -0.9, 0.2})
	r, err := SpectralRadius(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.9) > 1e-9 {
		t.Fatalf("spectral radius = %v, want 0.9", r)
	}
}

func TestSingularValuesKnown(t *testing.T) {
	// diag(3,2,1) has singular values 3,2,1.
	sv := SingularValues(Diag([]float64{1, 3, 2}))
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(sv[i]-w) > 1e-9 {
			t.Fatalf("sv = %v, want %v", sv, want)
		}
	}
}

func TestSingularValuesOrthogonalInvariance(t *testing.T) {
	// Frobenius norm equals sqrt(sum of squared singular values).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a := randMatrix(rng, r, c)
		sv := SingularValues(a)
		var s float64
		for _, v := range sv {
			s += v * v
		}
		return math.Abs(math.Sqrt(s)-a.FrobeniusNorm()) < 1e-8*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSingularValueSubmultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randMatrix(rng, n, n)
		b := randMatrix(rng, n, n)
		return MaxSingularValue(a.Mul(b)) <= MaxSingularValue(a)*MaxSingularValue(b)+1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTallAndWideSVDAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 6, 3)
	svA := SingularValues(a)
	svAT := SingularValues(a.T())
	for i := range svA {
		if math.Abs(svA[i]-svAT[i]) > 1e-9 {
			t.Fatalf("SVD of A and A^T differ: %v vs %v", svA, svAT)
		}
	}
}
