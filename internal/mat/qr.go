package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q*R with A m×n, m >= n.
// The layout follows the classic JAMA decomposition: the strict upper
// triangle of qr holds R, the lower triangle (including diagonal) holds the
// Householder vectors, and rdiag holds R's diagonal.
type QR struct {
	qr    *Matrix
	rdiag []float64
	m, n  int
}

// QRDecompose factors a (m×n with m >= n) into Q*R using Householder
// reflections.
func QRDecompose(a *Matrix) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic(fmt.Sprintf("mat: QR requires rows >= cols, got %dx%d", m, n))
	}
	qr := a.Clone()
	d := qr.data
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, d[i*n+k])
		}
		if nrm != 0 {
			if d[k*n+k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				d[i*n+k] /= nrm
			}
			d[k*n+k]++
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += float64(d[i*n+k] * d[i*n+j])
				}
				s = -s / d[k*n+k]
				for i := k; i < m; i++ {
					d[i*n+j] += float64(s * d[i*n+k])
				}
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag, m: m, n: n}
}

// R returns the n×n upper-triangular factor.
func (f *QR) R() *Matrix {
	r := Zeros(f.n, f.n)
	for i := 0; i < f.n; i++ {
		r.Set(i, i, f.rdiag[i])
		for j := i + 1; j < f.n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// FullRank reports whether all diagonal entries of R are nonzero relative to
// the matrix scale.
func (f *QR) FullRank() bool {
	scale := f.qr.MaxAbs()
	if scale == 0 {
		return f.n == 0
	}
	for k := 0; k < f.n; k++ {
		if math.Abs(f.rdiag[k]) < 1e-12*scale {
			return false
		}
	}
	return true
}

// SolveLS solves the least-squares problem min ||A*x - b||_2 using the
// factorization. b must have A.Rows() rows; the result has A.Cols() rows.
// It returns ErrSingular if A is rank deficient.
func (f *QR) SolveLS(b *Matrix) (*Matrix, error) {
	if b.rows != f.m {
		panic(fmt.Sprintf("mat: QR.SolveLS row mismatch %d vs %d", b.rows, f.m))
	}
	if !f.FullRank() {
		return nil, ErrSingular
	}
	x := b.Clone()
	qd, n := f.qr.data, f.n
	// Apply Q^T to b.
	xd, xc := x.data, x.cols
	for k := 0; k < n; k++ {
		head := qd[k*n+k]
		if head == 0 {
			continue
		}
		for j := 0; j < xc; j++ {
			var s float64
			for i := k; i < f.m; i++ {
				s += float64(qd[i*n+k] * xd[i*xc+j])
			}
			s = -s / head
			for i := k; i < f.m; i++ {
				xd[i*xc+j] += float64(s * qd[i*n+k])
			}
		}
	}
	// Back-substitute R*x = (Q^T b)[0:n].
	out := x.Slice(0, n, 0, xc)
	od := out.data
	for k := n - 1; k >= 0; k-- {
		rowK := od[k*xc : (k+1)*xc]
		for j := range rowK {
			rowK[j] /= f.rdiag[k]
		}
		for i := 0; i < k; i++ {
			rik := qd[i*n+k]
			if rik == 0 {
				continue
			}
			rowI := od[i*xc : (i+1)*xc]
			for j, v := range rowK {
				rowI[j] -= float64(rik * v)
			}
		}
	}
	return out, nil
}

// LeastSquares solves min ||A*x - b||_2 for x.
//
// When A is rank-deficient it falls back to a ridge-regularized normal
// equation solve (Tikhonov with a tiny lambda), which is the behaviour the
// system-identification layer wants for nearly collinear regressors.
func LeastSquares(a, b *Matrix) (*Matrix, error) {
	if x, err := QRDecompose(a).SolveLS(b); err == nil {
		return x, nil
	}
	// Ridge fallback: (A^T A + λI) x = A^T b.
	at := a.T()
	ata := at.Mul(a)
	lambda := float64(1e-8 * (1 + ata.MaxAbs()))
	for i := 0; i < ata.rows; i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	return Solve(ata, at.Mul(b))
}
