package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CMatrix is a dense, row-major matrix of complex128 values. It is used for
// frequency-domain computations (transfer matrices evaluated on the unit
// circle) in the robust-control layer.
type CMatrix struct {
	rows, cols int
	data       []complex128
}

// CNew returns an r×c complex matrix backed by data (not copied).
func CNew(r, c int, data []complex128) *CMatrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: complex data length %d does not match %dx%d", len(data), r, c))
	}
	return &CMatrix{rows: r, cols: c, data: data}
}

// CZeros returns a new r×c complex matrix of zeros.
func CZeros(r, c int) *CMatrix {
	return CNew(r, c, make([]complex128, r*c))
}

// CIdentity returns the n×n complex identity.
func CIdentity(n int) *CMatrix {
	m := CZeros(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// ToComplex converts a real matrix to a complex one.
func ToComplex(a *Matrix) *CMatrix {
	out := CZeros(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = complex(a.data[i], 0)
	}
	return out
}

// Rows returns the number of rows.
func (m *CMatrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CMatrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *CMatrix) At(i, j int) complex128 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: complex index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *CMatrix) Set(i, j int, v complex128) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: complex index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	m.data[i*m.cols+j] = v
}

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	d := make([]complex128, len(m.data))
	copy(d, m.data)
	return CNew(m.rows, m.cols, d)
}

// Add returns m + b.
func (m *CMatrix) Add(b *CMatrix) *CMatrix {
	m.sameShape(b, "Add")
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// CMul returns x·y as Go's complex multiplication computes it on amd64,
// (xr·yr − xi·yi) + (xr·yi + xi·yr)i, with each real product rounded on its
// own so that no architecture fuses it into a multiply-add.
func CMul(x, y complex128) complex128 {
	xr, xi, yr, yi := real(x), imag(x), real(y), imag(y)
	return complex(float64(xr*yr)-float64(xi*yi), float64(xr*yi)+float64(xi*yr))
}

// Scale returns s*m.
func (m *CMatrix) Scale(s complex128) *CMatrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] = CMul(out.data[i], s)
	}
	return out
}

// Mul returns the product m*b.
func (m *CMatrix) Mul(b *CMatrix) *CMatrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: complex Mul mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := CZeros(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mv := m.data[i*m.cols+k]
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += CMul(mv, bv)
			}
		}
	}
	return out
}

// ConjT returns the conjugate transpose m^H.
func (m *CMatrix) ConjT() *CMatrix {
	out := CZeros(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return out
}

func (m *CMatrix) sameShape(b *CMatrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: complex %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// CSolve solves a*x = b for complex square a using Gaussian elimination with
// partial pivoting.
func CSolve(a, b *CMatrix) (*CMatrix, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: CSolve non-square %dx%d", a.rows, a.cols))
	}
	if b.rows != a.rows {
		panic(fmt.Sprintf("mat: CSolve row mismatch %d vs %d", b.rows, a.rows))
	}
	n := a.rows
	lu := a.Clone()
	x := b.Clone()
	scale := 0.0
	for _, v := range lu.data {
		if av := cmplx.Abs(v); av > scale {
			scale = av
		}
	}
	for k := 0; k < n; k++ {
		p := k
		max := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > max {
				max, p = a, i
			}
		}
		if max < 1e-14*scale || max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[k*n+j] = lu.data[k*n+j], lu.data[p*n+j]
			}
			for j := 0; j < x.cols; j++ {
				x.data[p*x.cols+j], x.data[k*x.cols+j] = x.data[k*x.cols+j], x.data[p*x.cols+j]
			}
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			if f == 0 {
				continue
			}
			lu.Set(i, k, 0)
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= CMul(f, lu.data[k*n+j])
			}
			for j := 0; j < x.cols; j++ {
				x.data[i*x.cols+j] -= CMul(f, x.data[k*x.cols+j])
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		pivot := lu.At(k, k)
		for j := 0; j < x.cols; j++ {
			x.data[k*x.cols+j] /= pivot
		}
		for i := 0; i < k; i++ {
			f := lu.At(i, k)
			if f == 0 {
				continue
			}
			for j := 0; j < x.cols; j++ {
				x.data[i*x.cols+j] -= CMul(f, x.data[k*x.cols+j])
			}
		}
	}
	return x, nil
}

// CInverse returns the inverse of the complex square matrix a.
func CInverse(a *CMatrix) (*CMatrix, error) {
	return CSolve(a, CIdentity(a.rows))
}

// AllFinite reports whether every entry of m has a finite real and
// imaginary part.
func (m *CMatrix) AllFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(real(v)) || math.IsInf(real(v), 0) || math.IsNaN(imag(v)) || math.IsInf(imag(v), 0) {
			return false
		}
	}
	return true
}

// CMaxSingularValue returns the largest singular value of the complex matrix
// m, computed by power iteration on m^H m. For the small matrices used here
// (dimension < 50) this converges in a handful of iterations. A matrix with
// a non-finite entry has no finite largest singular value: the result is
// +Inf.
func CMaxSingularValue(m *CMatrix) float64 {
	var ws SVWork
	return ws.MaxSingularValue(m, math.Inf(1))
}

// SVWork holds the buffers of the σ_max power iteration, so that repeated
// evaluations on same-sized matrices (the D-scaling descent of the μ upper
// bound) allocate nothing once the buffers have grown. The zero value is
// ready to use; an SVWork must not be shared between goroutines.
type SVWork struct {
	h    []complex128 // m^H m, row-major
	v, w []complex128 // current and next iterate
}

// grow returns buf resliced to n entries, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// MaxSingularValue returns CMaxSingularValue(m), bit for bit, except that
// it gives up as soon as the running estimate reaches stop and returns that
// estimate instead. The estimate ‖H v‖ of the power iteration on the
// Hermitian positive semidefinite H = m^H m never decreases (Cauchy–Schwarz:
// ‖H v‖² = <v, H² v> ≤ ‖H² v‖ for unit v), so a result at or above stop
// means σ_max(m) is at or above stop too, up to rounding. Pass +Inf to run
// to convergence.
func (ws *SVWork) MaxSingularValue(m *CMatrix, stop float64) float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	if !m.AllFinite() {
		return math.Inf(1)
	}
	// h = m^H m (n×n Hermitian positive semidefinite), accumulated in the
	// order ConjT().Mul(m) uses, skipping the same zero entries.
	n := m.cols
	ws.h = grow(ws.h, n*n)
	h := ws.h
	for i := range h {
		h[i] = 0
	}
	for i := 0; i < n; i++ {
		hrow := h[i*n : (i+1)*n]
		for k := 0; k < m.rows; k++ {
			mv := cmplx.Conj(m.data[k*m.cols+i])
			if mv == 0 {
				continue
			}
			for j, bv := range m.data[k*m.cols : (k+1)*m.cols] {
				hrow[j] += CMul(mv, bv)
			}
		}
	}
	// Deterministic start vector with nonzero projection on the dominant
	// eigenvector in all but adversarial cases.
	ws.v, ws.w = grow(ws.v, n), grow(ws.w, n)
	v, w := ws.v, ws.w
	for i := range v {
		v[i] = complex(1+float64(i%3), float64(i%2))
	}
	normalizeC(v)
	lambda := 0.0
	for iter := 0; iter < 500; iter++ {
		hv(w, h, v)
		nl := normalizeC(w)
		v, w = w, v
		if nl == 0 {
			return 0
		}
		if math.Abs(nl-lambda) <= 1e-12*math.Max(1, nl) {
			lambda = nl
			break
		}
		lambda = nl
		if s := math.Sqrt(nl); s >= stop {
			return s
		}
	}
	return math.Sqrt(lambda)
}

// hv sets w = h·v for the row-major n×n h, n = len(v). It runs three rows
// at a time with one accumulator per row, so the rows' additions overlap
// instead of waiting on one another; each row still sums its terms in j
// order, giving the bits of a row-by-row loop. (Four rows run out of
// registers on amd64 and spill.)
func hv(w, h, v []complex128) {
	n := len(v)
	i := 0
	for ; i+3 <= n; i += 3 {
		r0 := h[i*n:][:n]
		r1 := h[(i+1)*n:][:n]
		r2 := h[(i+2)*n:][:n]
		var s0, s1, s2 complex128
		for j, x := range v {
			s0 += CMul(r0[j], x)
			s1 += CMul(r1[j], x)
			s2 += CMul(r2[j], x)
		}
		w[i], w[i+1], w[i+2] = s0, s1, s2
	}
	for ; i < n; i++ {
		row := h[i*n:][:n]
		var s complex128
		for j, x := range v {
			s += CMul(row[j], x)
		}
		w[i] = s
	}
}

// normalizeC scales v to unit 2-norm in place and returns the norm it had
// (0 leaves v untouched). Dividing the parts separately gives the bits
// v[i] /= complex(nrm, 0) gives on every nonzero part: Go's Smith division
// by a real divisor reduces to these two divisions.
func normalizeC(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += float64(real(x)*real(x)) + float64(imag(x)*imag(x))
	}
	nrm := math.Sqrt(s)
	if nrm == 0 {
		return 0
	}
	for i, x := range v {
		v[i] = complex(real(x)/nrm, imag(x)/nrm)
	}
	return nrm
}
