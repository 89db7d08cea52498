package lti

import (
	"errors"
	"math"

	"yukta/internal/mat"
)

// ErrUnstable is returned when an operation requires a Schur-stable matrix.
var ErrUnstable = errors.New("lti: matrix is not Schur stable")

// DiscreteLyapunov solves the discrete Lyapunov (Stein) equation
//
//	A X A^T - X + Q = 0
//
// for X using the doubling (Smith) iteration, which converges quadratically
// for Schur-stable A: X = sum_k A^k Q (A^T)^k.
func DiscreteLyapunov(a, q *mat.Matrix) (*mat.Matrix, error) {
	if r, err := mat.SpectralRadius(a); err != nil || r >= 1-1e-12 {
		return nil, ErrUnstable
	}
	x := q.Clone()
	ak := a.Clone()
	for iter := 0; iter < 100; iter++ {
		term := ak.Mul(x).Mul(ak.T())
		x = x.Add(term)
		if term.MaxAbs() <= 1e-14*(1+x.MaxAbs()) {
			return x, nil
		}
		ak = ak.Mul(ak)
	}
	return nil, mat.ErrNoConvergence
}

// ControllabilityGramian returns Wc solving A Wc A^T - Wc + B B^T = 0.
func (s *StateSpace) ControllabilityGramian() (*mat.Matrix, error) {
	return DiscreteLyapunov(s.A, s.B.Mul(s.B.T()))
}

// ObservabilityGramian returns Wo solving A^T Wo A - Wo + C^T C = 0.
func (s *StateSpace) ObservabilityGramian() (*mat.Matrix, error) {
	return DiscreteLyapunov(s.A.T(), s.C.T().Mul(s.C))
}

// H2Norm returns the H2 norm of a stable, strictly proper or proper discrete
// system: sqrt(trace(C Wc C^T + D D^T)).
func (s *StateSpace) H2Norm() (float64, error) {
	if s.Order() == 0 {
		return s.D.FrobeniusNorm(), nil
	}
	wc, err := s.ControllabilityGramian()
	if err != nil {
		return 0, err
	}
	t := s.C.Mul(wc).Mul(s.C.T()).Trace() + s.D.Mul(s.D.T()).Trace()
	if t < 0 {
		t = 0
	}
	return math.Sqrt(t), nil
}

// BalancedTruncation returns a reduced-order model keeping r states, using
// balanced truncation based on the square-root method over the Gramians'
// Cholesky-like factors. The system must be stable. If r >= Order, a clone
// is returned.
func (s *StateSpace) BalancedTruncation(r int) (*StateSpace, error) {
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
	// Petrov-Galerkin reduction onto the dominant invariant subspaces of
	// M = Wc*Wo (right basis V) and M^T = Wo*Wc (left basis W), which carry
	// the largest Hankel singular values. The oblique projector V(W^T V)^-1 W^T
	// approximates balanced truncation without requiring an eigenvector
	// decomposition.
	m := wc.Mul(wo)
	v := dominantSubspace(m, r, subspaceRounds)
	w := dominantSubspace(m.T(), r, subspaceRounds)
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

// subspaceRounds is the number of subspace-iteration rounds
// BalancedTruncation runs.
const subspaceRounds = 200

// dominantSubspace returns an orthonormal basis (n×r) for the dominant
// invariant subspace of m via rounds of subspace iteration.
//
// The iteration runs in one workspace allocated up front: a row-major copy
// of m and two bases stored column by column, so that every column is
// contiguous. Each round forms the product into the spare basis and
// re-orthonormalizes it in place. Every sum keeps the terms and the order
// of m.Mul followed by modified Gram–Schmidt over mat.Matrix values, so the
// basis has their bits (DESIGN.md §18).
func dominantSubspace(m *mat.Matrix, r, rounds int) *mat.Matrix {
	n := m.Rows()
	ws := make([]float64, n*n+2*n*r)
	a, v, next := ws[:n*n], ws[n*n:n*n+n*r], ws[n*n+n*r:]
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a[i*n+k] = m.At(i, k)
		}
		for j := 0; j < r; j++ {
			// Deterministic, generically independent start basis.
			s := math.Sin(float64(1 + i*r + j))
			if j == i%r {
				s += 0.1
			}
			v[j*n+i] = s
		}
	}
	orthonormalize(v, n)
	for iter := 0; iter < rounds; iter++ {
		mulColumns(next, a, v, n)
		orthonormalize(next, n)
		v, next = next, v
	}
	out := mat.Zeros(n, r)
	for j := 0; j < r; j++ {
		for i, x := range v[j*n : (j+1)*n] {
			out.Set(i, j, x)
		}
	}
	return out
}

// mulColumns sets dst = a·v, where a is a row-major n×n matrix and v and
// dst hold columns of length n back to back. Every element starts at zero
// and adds a[i][k]·v[k][j] for k ascending, skipping a[i][k] == 0, exactly
// as mat.Matrix.Mul does; four columns share each pass over a row of a.
func mulColumns(dst, a, v []float64, n int) {
	r := len(v) / n
	j := 0
	for ; j+4 <= r; j += 4 {
		c0, c1, c2, c3 := v[j*n:(j+1)*n], v[(j+1)*n:(j+2)*n], v[(j+2)*n:(j+3)*n], v[(j+3)*n:(j+4)*n]
		for i := 0; i < n; i++ {
			row := a[i*n : (i+1)*n]
			var s0, s1, s2, s3 float64
			for k, mv := range row {
				if mv == 0 {
					continue
				}
				s0 += float64(mv * c0[k])
				s1 += float64(mv * c1[k])
				s2 += float64(mv * c2[k])
				s3 += float64(mv * c3[k])
			}
			dst[j*n+i], dst[(j+1)*n+i], dst[(j+2)*n+i], dst[(j+3)*n+i] = s0, s1, s2, s3
		}
	}
	for ; j < r; j++ {
		c := v[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			var s float64
			for k, mv := range a[i*n : (i+1)*n] {
				if mv == 0 {
					continue
				}
				s += float64(mv * c[k])
			}
			dst[j*n+i] = s
		}
	}
}

// orthonormalize applies modified Gram-Schmidt, in place, to the columns of
// length n stored back to back in v.
func orthonormalize(v []float64, n int) {
	for j := 0; j < len(v)/n; j++ {
		col := v[j*n : (j+1)*n]
		for k := 0; k < j; k++ {
			prev := v[k*n : (k+1)*n]
			var dot float64
			for i, x := range col {
				dot += float64(x * prev[i])
			}
			for i := range col {
				col[i] -= float64(dot * prev[i])
			}
		}
		var nrm float64
		for _, x := range col {
			nrm += float64(x * x)
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-300 {
			nrm = 1
		}
		for i := range col {
			col[i] /= nrm
		}
	}
}
