// Package mat provides the dense linear algebra kernels used throughout the
// Yukta library: real and complex matrices, LU and QR factorizations,
// eigenvalue computation via the shifted Hessenberg QR algorithm, one-sided
// Jacobi SVD, and the associated solves and norms.
//
// The package is deliberately small and self-contained (stdlib only). The
// matrices involved in controller synthesis are tiny (tens of rows), so the
// implementations favour numerical robustness and clarity over blocking or
// cache tuning.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix. Use New, Zeros, Identity or
// FromRows to construct matrices with content.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns an r×c matrix backed by data, which must have length r*c and is
// used directly (not copied). It panics on size mismatch.
func New(r, c int, data []float64) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// Zeros returns a new r×c matrix of zeros.
func Zeros(r, c int) *Matrix {
	return New(r, c, make([]float64, r*c))
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d []float64) *Matrix {
	m := Zeros(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	m := Zeros(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// ColVector returns a len(v)×1 column matrix holding a copy of v.
func ColVector(v []float64) *Matrix {
	m := Zeros(len(v), 1)
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return New(m.rows, m.cols, d)
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := Zeros(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.sameShape(b, "Add")
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.sameShape(b, "Sub")
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := Zeros(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += float64(mv * bv)
			}
		}
	}
	return out
}

// MulVec returns m*v as a new slice of length m.Rows().
func (m *Matrix) MulVec(v []float64) []float64 {
	return m.MulVecTo(make([]float64, m.rows), v)
}

// MulVecTo computes m*v into dst, which must not alias v, and returns it.
// dst is grown when its capacity is insufficient; passing a reusable scratch
// slice makes repeated products allocation-free — the 500 ms control loop
// steps controller state machines through this path.
//
// It runs four rows at a time with one accumulator per row, so the rows'
// additions overlap instead of waiting on one another; each row still sums
// its terms in column order, giving the bits of a row-by-row loop.
func (m *Matrix) MulVecTo(dst, v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	if cap(dst) < m.rows {
		dst = make([]float64, m.rows)
	}
	dst = dst[:m.rows]
	n := len(v)
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		r0 := m.data[i*n:][:n]
		r1 := m.data[(i+1)*n:][:n]
		r2 := m.data[(i+2)*n:][:n]
		r3 := m.data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += float64(r0[j] * x)
			s1 += float64(r1[j] * x)
			s2 += float64(r2[j] * x)
			s3 += float64(r3[j] * x)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.rows; i++ {
		row := m.data[i*n:][:n]
		var s float64
		for j, x := range v {
			s += float64(row[j] * x)
		}
		dst[i] = s
	}
	return dst
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Slice returns a copy of the submatrix with rows [r0,r1) and columns [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: Slice [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := Zeros(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetSlice copies src into m starting at row r0, column c0.
func (m *Matrix) SetSlice(r0, c0 int, src *Matrix) {
	if r0 < 0 || c0 < 0 || r0+src.rows > m.rows || c0+src.cols > m.cols {
		panic(fmt.Sprintf("mat: SetSlice %dx%d at (%d,%d) out of range %dx%d",
			src.rows, src.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+src.cols], src.data[i*src.cols:(i+1)*src.cols])
	}
}

// HStack returns [m | b] (horizontal concatenation).
func (m *Matrix) HStack(b *Matrix) *Matrix {
	if m.rows != b.rows {
		panic(fmt.Sprintf("mat: HStack row mismatch %d vs %d", m.rows, b.rows))
	}
	out := Zeros(m.rows, m.cols+b.cols)
	out.SetSlice(0, 0, m)
	out.SetSlice(0, m.cols, b)
	return out
}

// VStack returns [m; b] (vertical concatenation).
func (m *Matrix) VStack(b *Matrix) *Matrix {
	if m.cols != b.cols {
		panic(fmt.Sprintf("mat: VStack col mismatch %d vs %d", m.cols, b.cols))
	}
	out := Zeros(m.rows+b.rows, m.cols)
	out.SetSlice(0, 0, m)
	out.SetSlice(m.rows, 0, b)
	return out
}

// BlockDiag returns the block-diagonal matrix diag(blocks...).
func BlockDiag(blocks ...*Matrix) *Matrix {
	var r, c int
	for _, b := range blocks {
		r += b.rows
		c += b.cols
	}
	out := Zeros(r, c)
	r, c = 0, 0
	for _, b := range blocks {
		out.SetSlice(r, c, b)
		r += b.rows
		c += b.cols
	}
	return out
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm sqrt(sum m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Trace returns the sum of diagonal entries of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Trace of non-square %dx%d", m.rows, m.cols))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// Equal reports whether m and b have the same shape and all entries differ by
// at most tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging and logs.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .5g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
