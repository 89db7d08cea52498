package mat

import (
	"math"
	"sort"
)

// SingularValues returns the singular values of a in descending order, using
// the one-sided Jacobi method on A (or A^T when that is shorter). One-sided
// Jacobi is slower than Golub-Kahan bidiagonalization but is simple,
// unconditionally convergent in practice, and highly accurate for the small
// matrices used in controller synthesis.
func SingularValues(a *Matrix) []float64 {
	m, n := a.rows, a.cols
	if m == 0 || n == 0 {
		return nil
	}
	u := a.Clone()
	if m < n {
		u = a.T()
		m, n = n, m
	}
	// One-sided Jacobi: orthogonalize pairs of columns of u until all pairs
	// are numerically orthogonal.
	const maxSweeps = 60
	eps := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					alpha += float64(up * up)
					beta += float64(uq * uq)
					gamma += float64(up * uq)
				}
				if gamma == 0 {
					continue
				}
				if math.Abs(gamma) > eps*math.Sqrt(alpha*beta) {
					off++
				} else {
					continue
				}
				// Jacobi rotation that zeroes the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+float64(zeta*zeta)))
				c := 1 / math.Sqrt(1+float64(t*t))
				s := c * t
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, float64(c*up)-float64(s*uq))
					u.Set(i, q, float64(s*up)+float64(c*uq))
				}
			}
		}
		if off == 0 {
			break
		}
	}
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			v := u.At(i, j)
			s += float64(v * v)
		}
		sv[j] = math.Sqrt(s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}

// MaxSingularValue returns the largest singular value (spectral norm) of a.
func MaxSingularValue(a *Matrix) float64 {
	sv := SingularValues(a)
	if len(sv) == 0 {
		return 0
	}
	return sv[0]
}
