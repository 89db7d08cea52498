package lti

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"yukta/internal/mat"
)

// Bit-identity oracle for balanced truncation's subspace iteration. The ref*
// functions are the implementations every identified model was first reduced
// with, kept verbatim: each round allocates a fresh product through
// mat.Matrix.Mul, and modified Gram–Schmidt copies every column out with Col
// and writes it back with Set. The production kernel iterates in one
// workspace with contiguous columns; it may not change a bit of any result.

func refBalancedTruncation(s *StateSpace, r int) (*StateSpace, error) {
	n := s.Order()
	if r >= n {
		return s.Clone(), nil
	}
	if r < 1 {
		r = 1
	}
	wc, err := s.ControllabilityGramian()
	if err != nil {
		return nil, err
	}
	wo, err := s.ObservabilityGramian()
	if err != nil {
		return nil, err
	}
	m := wc.Mul(wo)
	v := refDominantSubspace(m, r)
	w := refDominantSubspace(m.T(), r)
	wtv := w.T().Mul(v)
	wtvInv, err := mat.Inverse(wtv)
	if err != nil {
		return nil, err
	}
	wt := wtvInv.Mul(w.T()) // left projector rows, satisfying wt*v = I
	ar := wt.Mul(s.A).Mul(v)
	br := wt.Mul(s.B)
	cr := s.C.Mul(v)
	return NewStateSpace(ar, br, cr, s.D.Clone(), s.Ts)
}

// refDominantSubspace returns an orthonormal basis (n×r) for the dominant
// invariant subspace of m via subspace iteration.
func refDominantSubspace(m *mat.Matrix, r int) *mat.Matrix {
	n := m.Rows()
	v := mat.Zeros(n, r)
	for i := 0; i < n; i++ {
		for j := 0; j < r; j++ {
			// Deterministic, generically independent start basis.
			s := math.Sin(float64(1 + i*r + j))
			if j == i%r {
				s += 0.1
			}
			v.Set(i, j, s)
		}
	}
	v = refOrthonormalize(v)
	for iter := 0; iter < 200; iter++ {
		v = refOrthonormalize(m.Mul(v))
	}
	return v
}

// refOrthonormalize applies modified Gram-Schmidt to the columns of v.
func refOrthonormalize(v *mat.Matrix) *mat.Matrix {
	out := v.Clone()
	for j := 0; j < out.Cols(); j++ {
		col := out.Col(j)
		for k := 0; k < j; k++ {
			prev := out.Col(k)
			var dot float64
			for i := range col {
				dot += col[i] * prev[i]
			}
			for i := range col {
				col[i] -= dot * prev[i]
			}
		}
		var nrm float64
		for _, x := range col {
			nrm += x * x
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-300 {
			nrm = 1
		}
		for i := range col {
			out.Set(i, j, col[i]/nrm)
		}
	}
	return out
}

// subspaceCase is a random input of dominantSubspace: an n×n matrix, n from
// 2 to 49 (the monolithic model's order), and a basis width r from 1 to
// n−1. Some cases zero whole rows and columns, which the product skips as
// Mul does, and some are huge enough to overflow the basis to Inf and NaN.
// Keeping only the first q rows (q = 0 is the zero matrix) makes every basis
// column beyond the q-th cancel to an exact zero vector, which takes the
// 1e-300 guard. Other cases sprinkle +0 and −0 entries or spread the
// magnitudes over twelve decades.
type subspaceCase struct {
	m *mat.Matrix
	r int
}

func (subspaceCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(48)
	r := 1 + rng.Intn(n-1)
	m := mat.Zeros(n, n)
	negZero := math.Copysign(0, -1)
	scaled, huge := rng.Intn(3) == 0, rng.Intn(6) == 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := rng.NormFloat64()
			if scaled {
				x *= math.Pow(10, -6+12*rng.Float64())
			}
			if huge {
				x *= 1e307
			}
			m.Set(i, j, x)
		}
	}
	switch rng.Intn(4) {
	case 0: // zero rows and columns
		for k := 0; k < n; k++ {
			if rng.Intn(4) == 0 {
				for i := 0; i < n; i++ {
					m.Set(k, i, 0)
					m.Set(i, k, negZero)
				}
			}
		}
	case 1: // only the first q rows are nonzero
		q := rng.Intn(3)
		for i := q; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, 0)
			}
		}
	case 2: // scattered signed zeros
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch rng.Intn(5) {
				case 0:
					m.Set(i, j, 0)
				case 1:
					m.Set(i, j, negZero)
				}
			}
		}
	}
	return reflect.ValueOf(subspaceCase{m: m, r: r})
}

// sameBits reports whether a and b have the same bits, counting any NaN
// equal to any NaN: which operand's payload an addition of two NaNs keeps
// depends on register allocation, in Mul as much as in the kernel.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameMatrixBits(a, b *mat.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if !sameBits(a.At(i, j), b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestDominantSubspaceMatchesOracle asserts the workspace kernel returns the
// reference's basis bit for bit, and leaves its input untouched.
func TestDominantSubspaceMatchesOracle(t *testing.T) {
	f := func(c subspaceCase) bool {
		orig := c.m.Clone()
		got := dominantSubspace(c.m, c.r, subspaceRounds)
		return sameMatrixBits(got, refDominantSubspace(c.m, c.r)) && sameMatrixBits(c.m, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// TestMulColumnsMatchesMul asserts the round's product equals Matrix.Mul
// bit for bit on bases holding Inf, NaN and ±0. Only on such bases is the
// skip of zero entries visible: a skipped 0·Inf leaves the sum finite. (In
// dominantSubspace itself it is not: the normalization turns any column
// with a NaN into NaN throughout, whichever way its zero terms went.)
func TestMulColumnsMatchesMul(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	f := func(c subspaceCase, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := c.m.Rows()
		v := mat.Zeros(n, c.r)
		cols := make([]float64, n*c.r)
		for i := 0; i < n; i++ {
			for j := 0; j < c.r; j++ {
				x := rng.NormFloat64()
				if rng.Intn(8) == 0 {
					x = special[rng.Intn(len(special))]
				}
				v.Set(i, j, x)
				cols[j*n+i] = x
			}
		}
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				a[i*n+k] = c.m.At(i, k)
			}
		}
		dst := make([]float64, n*c.r)
		mulColumns(dst, a, cols, n)
		want := c.m.Mul(v)
		for i := 0; i < n; i++ {
			for j := 0; j < c.r; j++ {
				if !sameBits(dst[j*n+i], want.At(i, j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

// TestDominantSubspaceZeroColumnGuard pins the case the random search must
// reach: with one nonzero row every column after the first cancels to an
// exact zero vector, which the 1e-300 guard leaves at zero.
func TestDominantSubspaceZeroColumnGuard(t *testing.T) {
	m := mat.Zeros(5, 5)
	for j := 0; j < 5; j++ {
		m.Set(0, j, float64(j+1))
	}
	got := dominantSubspace(m, 3, subspaceRounds)
	if !sameMatrixBits(got, refDominantSubspace(m, 3)) {
		t.Fatal("basis differs from the reference")
	}
	for i := 0; i < 5; i++ {
		if got.At(i, 2) != 0 {
			t.Fatalf("column 2 = %v at row %d, want an exact zero column", got.At(i, 2), i)
		}
	}
}

// identifiedShapes are the five identified models' realizations (order-4
// ARX state: 4 output lags and 3 input lags) and the orders core reduces
// them to: HW, OS, HWOnly, OSOnly and Mono.
var identifiedShapes = []struct{ n, in, out, r int }{
	{37, 7, 4, 16}, {33, 7, 3, 12}, {28, 4, 4, 16}, {21, 3, 3, 12}, {49, 7, 7, 21},
}

// TestBalancedTruncationMatchesOracle reduces random stable systems of the
// five identified shapes through the production and the reference subspace
// iteration and asserts every reduced matrix is bit-identical.
func TestBalancedTruncationMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range identifiedShapes {
		for trial := 0; trial < 2; trial++ {
			g := randStable(rng, sh.n, sh.in, sh.out)
			got, err := g.BalancedTruncation(sh.r)
			want, wantErr := refBalancedTruncation(g, sh.r)
			if err != wantErr {
				t.Fatalf("%d→%d: err %v, reference %v", sh.n, sh.r, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameMatrixBits(got.A, want.A) || !sameMatrixBits(got.B, want.B) ||
				!sameMatrixBits(got.C, want.C) || !sameMatrixBits(got.D, want.D) {
				t.Fatalf("%d→%d trial %d: reduced system differs from the reference", sh.n, sh.r, trial)
			}
		}
	}
}

// TestDominantSubspaceAllocsIndependentOfRounds asserts the iteration
// allocates its workspace and result once, however many rounds it runs.
func TestDominantSubspaceAllocsIndependentOfRounds(t *testing.T) {
	m := randStable(rand.New(rand.NewSource(5)), 49, 7, 7).A
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() { dominantSubspace(m, 21, rounds) })
	}
	one, many := allocs(1), allocs(subspaceRounds)
	if one != many || many > 4 {
		t.Fatalf("dominantSubspace allocates %v times for 1 round and %v for %d; want the same small constant", one, many, subspaceRounds)
	}
}

// BenchmarkBalancedTruncation times the monolithic model's reduction: a
// stable 49-state, 7-input, 7-output system truncated to 21 states.
func BenchmarkBalancedTruncation(b *testing.B) {
	g := randStable(rand.New(rand.NewSource(1)), 49, 7, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.BalancedTruncation(21); err != nil {
			b.Fatal(err)
		}
	}
}
