package mat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNoConvergence is returned when an iterative algorithm exceeds its
// iteration budget.
var ErrNoConvergence = errors.New("mat: iteration did not converge")

// ErrNotFinite is returned when a matrix holds a NaN or infinite entry,
// which has no meaningful spectrum.
var ErrNotFinite = errors.New("mat: matrix has a non-finite entry")

// Eigenvalues returns the eigenvalues of the square matrix a as complex
// numbers, in no particular order. It uses balancing, Householder reduction
// to upper Hessenberg form, and the Francis double-shift QR algorithm.
// A NaN or infinite entry gives ErrNotFinite.
func Eigenvalues(a *Matrix) ([]complex128, error) {
	var ws EigWork
	if err := ws.eigen(a); err != nil || a.rows == 0 {
		return nil, err
	}
	out := make([]complex128, a.rows)
	for i := range out {
		out[i] = complex(ws.wr[i], ws.wi[i])
	}
	return out, nil
}

// SpectralRadius returns max |lambda_i| over the eigenvalues of a.
func SpectralRadius(a *Matrix) (float64, error) {
	var ws EigWork
	return ws.SpectralRadius(a)
}

// EigWork holds the buffers of an eigenvalue computation, so that repeated
// spectral radii of same-sized matrices (the μ lower bound's certification
// step) allocate nothing once the buffers have grown. The zero value is
// ready to use; an EigWork must not be shared between goroutines.
type EigWork struct {
	h      []float64 // working copy of the matrix, row-major
	wr, wi []float64 // real and imaginary parts of the eigenvalues
}

// SpectralRadius returns SpectralRadius(a), bit for bit, reusing the
// workspace's buffers.
func (ws *EigWork) SpectralRadius(a *Matrix) (float64, error) {
	if err := ws.eigen(a); err != nil {
		return 0, err
	}
	var r float64
	for i := range ws.wr {
		if m := cmplx.Abs(complex(ws.wr[i], ws.wi[i])); m > r {
			r = m
		}
	}
	return r, nil
}

// eigen computes the eigenvalues of a into ws.wr and ws.wi, leaving a
// untouched.
func (ws *EigWork) eigen(a *Matrix) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Eigenvalues of non-square %dx%d", a.rows, a.cols))
	}
	for _, v := range a.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNotFinite
		}
	}
	n := a.rows
	ws.h = grow(ws.h, n*n)
	ws.wr, ws.wi = grow(ws.wr, n), grow(ws.wi, n)
	copy(ws.h, a.data)
	balance(ws.h, n)
	hessenberg(ws.h, n)
	return hqr(ws.h, n, ws.wr, ws.wi)
}

// balance applies the Parlett-Reinsch balancing procedure in place to the
// row-major n×n matrix d, scaling rows and columns by powers of two so that
// their norms are comparable. Balancing is a similarity transform, so
// eigenvalues are unchanged.
func balance(d []float64, n int) {
	const radix = 2.0
	sqrdx := radix * radix
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			var r, c float64
			row := d[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(d[j*n+i])
					r += math.Abs(row[j])
				}
			}
			// A zero norm needs no scaling. An infinite one (finite entries
			// whose sum overflows) cannot be balanced: scaling never makes
			// it comparable, and dividing an infinite c would not end.
			if c == 0 || r == 0 || math.IsInf(c, 1) || math.IsInf(r, 1) {
				continue
			}
			g := r / radix
			f := 1.0
			s := c + r
			for c < g {
				f *= radix
				c *= sqrdx
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= sqrdx
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				for j := range row {
					row[j] *= g
				}
				for j := 0; j < n; j++ {
					d[j*n+i] *= f
				}
			}
		}
	}
}

// hessenberg reduces the row-major n×n matrix d to upper Hessenberg form in
// place using stabilized elementary similarity transformations (Gaussian
// elimination with pivoting).
func hessenberg(d []float64, n int) {
	for m := 1; m < n-1; m++ {
		var x float64
		i := m
		for j := m; j < n; j++ {
			if math.Abs(d[j*n+m-1]) > math.Abs(x) {
				x = d[j*n+m-1]
				i = j
			}
		}
		rowM := d[m*n : (m+1)*n]
		if i != m {
			rowI := d[i*n : (i+1)*n]
			for j := m - 1; j < n; j++ {
				rowI[j], rowM[j] = rowM[j], rowI[j]
			}
			for j := 0; j < n; j++ {
				d[j*n+i], d[j*n+m] = d[j*n+m], d[j*n+i]
			}
		}
		if x != 0 {
			for i := m + 1; i < n; i++ {
				rowI := d[i*n : (i+1)*n]
				y := rowI[m-1]
				if y == 0 {
					continue
				}
				y /= x
				rowI[m-1] = y
				for j := m; j < n; j++ {
					rowI[j] -= float64(y * rowM[j])
				}
				for j := 0; j < n; j++ {
					d[j*n+m] += float64(y * d[j*n+i])
				}
			}
		}
	}
	// Zero the entries below the first subdiagonal (they hold multipliers).
	for i := 2; i < n; i++ {
		clear(d[i*n : i*n+i-1])
	}
}

// hqr finds all eigenvalues of the row-major n×n upper Hessenberg matrix d
// using the Francis double-shift QR algorithm (Numerical Recipes' hqr),
// writing their real and imaginary parts to wr and wi. d is overwritten.
func hqr(d []float64, n int, wr, wi []float64) error {
	var anorm float64
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j < n; j++ {
			anorm += math.Abs(d[i*n+j])
		}
	}
	nn := n - 1
	t := 0.0
	for nn >= 0 {
		its := 0
		var l int
		for {
			// Look for a single small subdiagonal element.
			for l = nn; l >= 1; l-- {
				s := math.Abs(d[(l-1)*n+l-1]) + math.Abs(d[l*n+l])
				if s == 0 {
					s = anorm
				}
				if math.Abs(d[l*n+l-1])+s == s {
					d[l*n+l-1] = 0
					break
				}
			}
			x := d[nn*n+nn]
			if l == nn {
				// One root found.
				wr[nn] = x + t
				wi[nn] = 0
				nn--
				break
			}
			y := d[(nn-1)*n+nn-1]
			w := float64(d[nn*n+nn-1] * d[(nn-1)*n+nn])
			if l == nn-1 {
				// Two roots found.
				p := float64(0.5 * (y - x))
				q := float64(p*p) + w
				z := math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 {
					// Real pair.
					if p >= 0 {
						z = p + z
					} else {
						z = p - z
					}
					wr[nn-1] = x + z
					wr[nn] = wr[nn-1]
					if z != 0 {
						wr[nn] = x - w/z
					}
					wi[nn-1], wi[nn] = 0, 0
				} else {
					// Complex pair.
					wr[nn-1] = x + p
					wr[nn] = x + p
					wi[nn-1] = -z
					wi[nn] = z
				}
				nn -= 2
				break
			}
			// No roots found; continue iteration.
			if its == 60 {
				return ErrNoConvergence
			}
			var p, q, r, z float64
			if its == 10 || its == 20 {
				// Exceptional shift.
				t += x
				for i := 0; i <= nn; i++ {
					d[i*n+i] -= x
				}
				s := math.Abs(d[nn*n+nn-1]) + math.Abs(d[(nn-1)*n+nn-2])
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			var m int
			for m = nn - 2; m >= l; m-- {
				z = d[m*n+m]
				r = x - z
				s := y - z
				p = (float64(r*s)-w)/d[(m+1)*n+m] + d[m*n+m+1]
				q = d[(m+1)*n+m+1] - z - r - s
				r = d[(m+2)*n+m+1]
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u := float64(math.Abs(d[m*n+m-1]) * (math.Abs(q) + math.Abs(r)))
				v := float64(math.Abs(p) * (math.Abs(d[(m-1)*n+m-1]) + math.Abs(z) + math.Abs(d[(m+1)*n+m+1])))
				if u+v == v {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				d[i*n+i-2] = 0
				if i != m+2 {
					d[i*n+i-3] = 0
				}
			}
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = d[k*n+k-1]
					q = d[(k+1)*n+k-1]
					r = 0
					if k != nn-1 {
						r = d[(k+2)*n+k-1]
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x != 0 {
						p /= x
						q /= x
						r /= x
					}
				}
				s := math.Sqrt(float64(p*p) + float64(q*q) + float64(r*r))
				if p < 0 {
					s = -s
				}
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						d[k*n+k-1] = -d[k*n+k-1]
					}
				} else {
					d[k*n+k-1] = -s * x
				}
				p += s
				x = p / s
				y := q / s
				z = r / s
				q /= p
				r /= p
				rowK, rowK1 := d[k*n:(k+1)*n], d[(k+1)*n:(k+2)*n]
				for j := k; j <= nn; j++ {
					p = rowK[j] + float64(q*rowK1[j])
					if k != nn-1 {
						p += float64(r * d[(k+2)*n+j])
						d[(k+2)*n+j] -= float64(p * z)
					}
					rowK1[j] -= float64(p * y)
					rowK[j] -= float64(p * x)
				}
				mmin := nn
				if nn > k+3 {
					mmin = k + 3
				}
				for i := l; i <= mmin; i++ {
					row := d[i*n : (i+1)*n]
					p = float64(x*row[k]) + float64(y*row[k+1])
					if k != nn-1 {
						p += float64(z * row[k+2])
						row[k+2] -= float64(p * r)
					}
					row[k+1] -= float64(p * q)
					row[k] -= p
				}
			}
		}
	}
	return nil
}
