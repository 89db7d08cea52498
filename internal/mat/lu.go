package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu   *Matrix // combined L (unit lower) and U factors
	piv  []int   // row permutation
	sign int     // determinant sign of the permutation
}

// LUDecompose factors the square matrix a. The factorization succeeds even
// for singular matrices; Solve and Inverse report ErrSingular when a pivot
// vanishes.
func LUDecompose(a *Matrix) *LU {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: LU of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest entry in column k at/below row k.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				max, p = a, i
			}
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[k*n+j] = lu.data[k*n+j], lu.data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		if pivot == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= float64(f * lu.data[k*n+j])
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Singular reports whether any pivot is (near) zero relative to the matrix scale.
func (f *LU) Singular() bool {
	n := f.lu.rows
	scale := f.lu.MaxAbs()
	if scale == 0 {
		return n > 0
	}
	for i := 0; i < n; i++ {
		if math.Abs(f.lu.At(i, i)) < 1e-13*scale {
			return true
		}
	}
	return false
}

// Solve solves A*X = B for X, where A is the factored matrix.
func (f *LU) Solve(b *Matrix) (*Matrix, error) {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: LU.Solve row mismatch %d vs %d", b.rows, n))
	}
	if f.Singular() {
		return nil, ErrSingular
	}
	// Apply permutation to b.
	x := Zeros(n, b.cols)
	for i := 0; i < n; i++ {
		copy(x.data[i*x.cols:(i+1)*x.cols], b.data[f.piv[i]*b.cols:(f.piv[i]+1)*b.cols])
	}
	// Forward substitution with unit-lower L.
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			l := f.lu.At(i, k)
			if l == 0 {
				continue
			}
			for j := 0; j < x.cols; j++ {
				x.data[i*x.cols+j] -= float64(l * x.data[k*x.cols+j])
			}
		}
	}
	// Back substitution with U.
	for k := n - 1; k >= 0; k-- {
		ukk := f.lu.At(k, k)
		for j := 0; j < x.cols; j++ {
			x.data[k*x.cols+j] /= ukk
		}
		for i := 0; i < k; i++ {
			u := f.lu.At(i, k)
			if u == 0 {
				continue
			}
			for j := 0; j < x.cols; j++ {
				x.data[i*x.cols+j] -= float64(u * x.data[k*x.cols+j])
			}
		}
	}
	return x, nil
}

// Solve solves a*x = b and returns x. a must be square.
func Solve(a, b *Matrix) (*Matrix, error) {
	return LUDecompose(a).Solve(b)
}

// Inverse returns a^-1.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}

// Det returns the determinant of a square matrix.
func Det(a *Matrix) float64 {
	return LUDecompose(a).Det()
}
