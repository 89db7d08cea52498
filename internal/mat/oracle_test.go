package mat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Bit-identity oracle for the dense kernels. The ref* functions are the
// implementations every identified model and synthesized controller was
// first produced with, kept verbatim: they read and write entries through
// At and Set, and σ_max forms one row of h·v at a time. The production
// kernels index the backing slice directly and run σ_max's product three
// rows at a time; neither may change a bit of any result. MulVecTo, the
// controllers' state-space product, runs four rows at a time and is held to
// its one-row loop, refMulVecTo.

func refEigenvalues(a *Matrix) ([]complex128, error) {
	if a.rows != a.cols {
		panic("mat: Eigenvalues of non-square matrix")
	}
	n := a.rows
	if n == 0 {
		return nil, nil
	}
	h := a.Clone()
	refBalance(h)
	refHessenberg(h)
	return refHqr(h)
}

func refBalance(a *Matrix) {
	const radix = 2.0
	n := a.rows
	sqrdx := radix * radix
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			var r, c float64
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(a.At(j, i))
					r += math.Abs(a.At(i, j))
				}
			}
			if c == 0 || r == 0 {
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
				for j := 0; j < n; j++ {
					a.Set(i, j, a.At(i, j)*g)
				}
				for j := 0; j < n; j++ {
					a.Set(j, i, a.At(j, i)*f)
				}
			}
		}
	}
}

func refHessenberg(a *Matrix) {
	n := a.rows
	for m := 1; m < n-1; m++ {
		var x float64
		i := m
		for j := m; j < n; j++ {
			if math.Abs(a.At(j, m-1)) > math.Abs(x) {
				x = a.At(j, m-1)
				i = j
			}
		}
		if i != m {
			for j := m - 1; j < n; j++ {
				v := a.At(i, j)
				a.Set(i, j, a.At(m, j))
				a.Set(m, j, v)
			}
			for j := 0; j < n; j++ {
				v := a.At(j, i)
				a.Set(j, i, a.At(j, m))
				a.Set(j, m, v)
			}
		}
		if x != 0 {
			for i := m + 1; i < n; i++ {
				y := a.At(i, m-1)
				if y == 0 {
					continue
				}
				y /= x
				a.Set(i, m-1, y)
				for j := m; j < n; j++ {
					a.Set(i, j, a.At(i, j)-y*a.At(m, j))
				}
				for j := 0; j < n; j++ {
					a.Set(j, m, a.At(j, m)+y*a.At(j, i))
				}
			}
		}
	}
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			a.Set(i, j, 0)
		}
	}
}

func refHqr(a *Matrix) ([]complex128, error) {
	n := a.rows
	wr := make([]float64, n)
	wi := make([]float64, n)

	var anorm float64
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j < n; j++ {
			anorm += math.Abs(a.At(i, j))
		}
	}
	nn := n - 1
	t := 0.0
	for nn >= 0 {
		its := 0
		var l int
		for {
			for l = nn; l >= 1; l-- {
				s := math.Abs(a.At(l-1, l-1)) + math.Abs(a.At(l, l))
				if s == 0 {
					s = anorm
				}
				if math.Abs(a.At(l, l-1))+s == s {
					a.Set(l, l-1, 0)
					break
				}
			}
			x := a.At(nn, nn)
			if l == nn {
				wr[nn] = x + t
				wi[nn] = 0
				nn--
				break
			}
			y := a.At(nn-1, nn-1)
			w := a.At(nn, nn-1) * a.At(nn-1, nn)
			if l == nn-1 {
				p := 0.5 * (y - x)
				q := p*p + w
				z := math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 {
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
					wr[nn-1] = x + p
					wr[nn] = x + p
					wi[nn-1] = -z
					wi[nn] = z
				}
				nn -= 2
				break
			}
			if its == 60 {
				return nil, ErrNoConvergence
			}
			var p, q, r, z float64
			if its == 10 || its == 20 {
				t += x
				for i := 0; i <= nn; i++ {
					a.Set(i, i, a.At(i, i)-x)
				}
				s := math.Abs(a.At(nn, nn-1)) + math.Abs(a.At(nn-1, nn-2))
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			var m int
			for m = nn - 2; m >= l; m-- {
				z = a.At(m, m)
				r = x - z
				s := y - z
				p = (r*s-w)/a.At(m+1, m) + a.At(m, m+1)
				q = a.At(m+1, m+1) - z - r - s
				r = a.At(m+2, m+1)
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u := math.Abs(a.At(m, m-1)) * (math.Abs(q) + math.Abs(r))
				v := math.Abs(p) * (math.Abs(a.At(m-1, m-1)) + math.Abs(z) + math.Abs(a.At(m+1, m+1)))
				if u+v == v {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				a.Set(i, i-2, 0)
				if i != m+2 {
					a.Set(i, i-3, 0)
				}
			}
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = a.At(k, k-1)
					q = a.At(k+1, k-1)
					r = 0
					if k != nn-1 {
						r = a.At(k+2, k-1)
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x != 0 {
						p /= x
						q /= x
						r /= x
					}
				}
				s := math.Sqrt(p*p + q*q + r*r)
				if p < 0 {
					s = -s
				}
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						a.Set(k, k-1, -a.At(k, k-1))
					}
				} else {
					a.Set(k, k-1, -s*x)
				}
				p += s
				x = p / s
				y := q / s
				z = r / s
				q /= p
				r /= p
				for j := k; j <= nn; j++ {
					p = a.At(k, j) + q*a.At(k+1, j)
					if k != nn-1 {
						p += r * a.At(k+2, j)
						a.Set(k+2, j, a.At(k+2, j)-p*z)
					}
					a.Set(k+1, j, a.At(k+1, j)-p*y)
					a.Set(k, j, a.At(k, j)-p*x)
				}
				mmin := nn
				if nn > k+3 {
					mmin = k + 3
				}
				for i := l; i <= mmin; i++ {
					p = x*a.At(i, k) + y*a.At(i, k+1)
					if k != nn-1 {
						p += z * a.At(i, k+2)
						a.Set(i, k+2, a.At(i, k+2)-p*r)
					}
					a.Set(i, k+1, a.At(i, k+1)-p*q)
					a.Set(i, k, a.At(i, k)-p)
				}
			}
		}
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(wr[i], wi[i])
	}
	return out, nil
}

func refQRDecompose(a *Matrix) *QR {
	m, n := a.rows, a.cols
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag, m: m, n: n}
}

func refSolveLS(f *QR, b *Matrix) (*Matrix, error) {
	if !f.FullRank() {
		return nil, ErrSingular
	}
	x := b.Clone()
	for k := 0; k < f.n; k++ {
		head := f.qr.At(k, k)
		if head == 0 {
			continue
		}
		for j := 0; j < x.cols; j++ {
			var s float64
			for i := k; i < f.m; i++ {
				s += f.qr.At(i, k) * x.At(i, j)
			}
			s = -s / head
			for i := k; i < f.m; i++ {
				x.Set(i, j, x.At(i, j)+s*f.qr.At(i, k))
			}
		}
	}
	out := x.Slice(0, f.n, 0, x.cols)
	for k := f.n - 1; k >= 0; k-- {
		for j := 0; j < out.cols; j++ {
			out.Set(k, j, out.At(k, j)/f.rdiag[k])
		}
		for i := 0; i < k; i++ {
			rik := f.qr.At(i, k)
			if rik == 0 {
				continue
			}
			for j := 0; j < out.cols; j++ {
				out.Set(i, j, out.At(i, j)-rik*out.At(k, j))
			}
		}
	}
	return out, nil
}

// refMaxSingularValue is SVWork.MaxSingularValue with its one-row h·v
// loop and fresh buffers.
func refMaxSingularValue(m *CMatrix, stop float64) float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	if !m.AllFinite() {
		return math.Inf(1)
	}
	n := m.cols
	h := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		hrow := h[i*n : (i+1)*n]
		for k := 0; k < m.rows; k++ {
			mv := cmplx.Conj(m.data[k*m.cols+i])
			if mv == 0 {
				continue
			}
			for j, bv := range m.data[k*m.cols : (k+1)*m.cols] {
				hrow[j] += mv * bv
			}
		}
	}
	v, w := make([]complex128, n), make([]complex128, n)
	for i := range v {
		v[i] = complex(1+float64(i%3), float64(i%2))
	}
	normalizeC(v)
	lambda := 0.0
	for iter := 0; iter < 500; iter++ {
		for i := 0; i < n; i++ {
			var s complex128
			for j, hv := range h[i*n : (i+1)*n] {
				s += hv * v[j]
			}
			w[i] = s
		}
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

// kernelCase is a quick-generated test matrix: r×c with r from c to c+30
// (square when the case is for eigenvalues), c from 1 to 24 so that every
// residue of σ_max's row block occurs. Its entries are dense, of rank below
// c, sprinkled with exact zeros, or scaled by row and column factors in
// 1e-6…1e6, in combination.
type kernelCase struct {
	a  *Matrix
	ca *CMatrix // a complex matrix of a's order for σ_max
}

// Generate implements quick.Generator.
func (kernelCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := 1 + r.Intn(24)
	rows := c
	if r.Intn(2) == 0 {
		rows += r.Intn(31)
	}
	rowScale, colScale := make([]float64, rows), make([]float64, c)
	for i := range rowScale {
		rowScale[i] = math.Pow(10, -6+12*r.Float64())
	}
	for j := range colScale {
		colScale[j] = math.Pow(10, -6+12*r.Float64())
	}
	rankK := -1
	if r.Intn(3) == 0 {
		rankK = r.Intn(c)
	}
	zeros, scaled := r.Intn(3) == 0, r.Intn(3) == 0
	fill := func(rows int, entry func() float64) []float64 {
		d := make([]float64, rows*c)
		if rankK >= 0 {
			// Rank k < c as the product of rows×k and k×c factors.
			f, g := make([]float64, rows*rankK), make([]float64, rankK*c)
			for i := range f {
				f[i] = entry()
			}
			for i := range g {
				g[i] = entry()
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < c; j++ {
					for k := 0; k < rankK; k++ {
						d[i*c+j] += f[i*rankK+k] * g[k*c+j]
					}
				}
			}
		} else {
			for i := range d {
				d[i] = entry()
			}
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < c; j++ {
				if zeros && r.Intn(10) < 3 {
					d[i*c+j] = 0
				}
				if scaled {
					d[i*c+j] *= rowScale[i] * colScale[j]
				}
			}
		}
		return d
	}
	a := New(rows, c, fill(rows, r.NormFloat64))
	re, im := fill(c, r.NormFloat64), fill(c, r.NormFloat64)
	ca := CZeros(c, c)
	for i := range ca.data {
		ca.data[i] = complex(re[i], im[i])
	}
	return reflect.ValueOf(kernelCase{a: a, ca: ca})
}

// square returns the leading c×c block of the case's matrix.
func (k kernelCase) square() *Matrix {
	return k.a.Slice(0, k.a.cols, 0, k.a.cols)
}

func kernelConfig(seed int64, count int) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameEig(got []complex128, gotErr error, want []complex128, wantErr error) bool {
	if gotErr != wantErr || len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return false
		}
	}
	return true
}

// TestEigenvaluesMatchOracle asserts the eigenvalues, the spectral radius
// and a reused workspace's spectral radius are bit-identical to the
// reference, and that the input is left untouched.
func TestEigenvaluesMatchOracle(t *testing.T) {
	var ws EigWork
	f := func(c kernelCase) bool {
		a := c.square()
		orig := a.Clone()
		want, wantErr := refEigenvalues(a)
		got, err := Eigenvalues(a)
		if !sameEig(got, err, want, wantErr) || !sameBits(a.data, orig.data) {
			return false
		}
		var wantRho float64
		for _, l := range want {
			if m := cmplx.Abs(l); m > wantRho {
				wantRho = m
			}
		}
		r1, err1 := SpectralRadius(a)
		r2, err2 := ws.SpectralRadius(a)
		return err1 == wantErr && err2 == wantErr &&
			math.Float64bits(r1) == math.Float64bits(wantRho) && math.Float64bits(r2) == math.Float64bits(wantRho)
	}
	if err := quick.Check(f, kernelConfig(1, 600)); err != nil {
		t.Fatal(err)
	}
}

// TestEigenvaluesExceptionalShiftsMatchOracle covers the iterations random
// matrices seldom reach: on cyclic matrices (eigenvalues spread evenly round
// a circle) the Francis shift stalls, and a few percent of them need the
// exceptional shifts at iterations 10 and 20 to deflate.
func TestEigenvaluesExceptionalShiftsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 800; trial++ {
		n := 2 + rng.Intn(23)
		step := 1 + rng.Intn(3)
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			w := 1.0
			switch trial % 3 {
			case 1:
				w = 0.5 + rng.Float64()
			case 2:
				if rng.Intn(2) == 0 {
					w = -1
				}
			}
			a.Set((i+step)%n, i, w)
		}
		if rng.Intn(2) == 0 {
			a.Set(rng.Intn(n), rng.Intn(n), 1e-8*rng.NormFloat64())
		}
		want, wantErr := refEigenvalues(a)
		got, err := Eigenvalues(a)
		if !sameEig(got, err, want, wantErr) {
			t.Fatalf("trial %d (%dx%d): got %v, %v; reference %v, %v", trial, n, n, got, err, want, wantErr)
		}
	}
}

// TestEigenvaluesNoConvergenceMatchesOracle pins the ErrNoConvergence path:
// finite entries large enough to overflow the QR sweep's intermediate
// products leave no subdiagonal small, so both the reference and the
// production kernel give up after 60 iterations on the same block. (The
// entries stay below 2^1000 so that no row or column sum overflows: the
// reference's balancing never returns from an infinite column sum.)
func TestEigenvaluesNoConvergenceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	failures := 0
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		a := Zeros(n, n)
		for i := range a.data {
			a.data[i] = math.Ldexp(rng.NormFloat64(), 900+rng.Intn(100))
		}
		want, wantErr := refEigenvalues(a)
		got, err := Eigenvalues(a)
		if !sameEig(got, err, want, wantErr) {
			t.Fatalf("trial %d: got %v, %v; reference %v, %v", trial, got, err, want, wantErr)
		}
		if errors.Is(wantErr, ErrNoConvergence) {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no trial reached ErrNoConvergence; the test does not exercise the path")
	}
}

// TestQRMatchesOracle asserts the factorization and the least-squares
// solution are bit-identical to the reference.
func TestQRMatchesOracle(t *testing.T) {
	f := func(c kernelCase, nrhs uint8) bool {
		got, want := QRDecompose(c.a), refQRDecompose(c.a)
		if !sameBits(got.qr.data, want.qr.data) || !sameBits(got.rdiag, want.rdiag) {
			return false
		}
		b := Zeros(c.a.rows, 1+int(nrhs%4))
		rng := rand.New(rand.NewSource(int64(nrhs)))
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		x, err := got.SolveLS(b)
		rx, rerr := refSolveLS(want, b)
		if err != rerr {
			return false
		}
		return err != nil || (x.rows == rx.rows && x.cols == rx.cols && sameBits(x.data, rx.data))
	}
	if err := quick.Check(f, kernelConfig(2, 600)); err != nil {
		t.Fatal(err)
	}
}

// TestMaxSingularValueMatchesOracle asserts the row-blocked σ_max is
// bit-identical to the one-row loop, to convergence and with an early
// stop, through a workspace reused across orders.
func TestMaxSingularValueMatchesOracle(t *testing.T) {
	var ws SVWork
	f := func(c kernelCase) bool {
		full := refMaxSingularValue(c.ca, math.Inf(1))
		if math.Float64bits(ws.MaxSingularValue(c.ca, math.Inf(1))) != math.Float64bits(full) {
			return false
		}
		stop := 0.5 * full
		return math.Float64bits(ws.MaxSingularValue(c.ca, stop)) == math.Float64bits(refMaxSingularValue(c.ca, stop))
	}
	if err := quick.Check(f, kernelConfig(3, 600)); err != nil {
		t.Fatal(err)
	}
}

// refMulVecTo is MulVecTo as it was before the row blocking: one row, one
// accumulator at a time.
func refMulVecTo(m *Matrix, dst, v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	if cap(dst) < m.rows {
		dst = make([]float64, m.rows)
	}
	dst = dst[:m.rows]
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return dst
}

// mulVecEntries returns n quick-generated entries: normals over seven
// decades, and one in six drawn from NaN, ±Inf, −0 and +0.
func mulVecEntries(r *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	d := make([]float64, n)
	for i := range d {
		if r.Intn(6) == 0 {
			d[i] = special[r.Intn(len(special))]
		} else {
			d[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		}
	}
	return d
}

// TestMulVecToMatchesOracle asserts the row-blocked MulVecTo is
// bit-identical to the one-row loop at every order from 0×0 to 13×13, so
// every remainder of the four-row block occurs with every column count,
// through one dst reused with spare capacity and stale contents.
func TestMulVecToMatchesOracle(t *testing.T) {
	dst := make([]float64, 0, 16)
	backing := &dst[:1][0]
	for rows := 0; rows <= 13; rows++ {
		for cols := 0; cols <= 13; cols++ {
			f := func(data, v []float64) bool {
				m := New(rows, cols, data)
				full := dst[:cap(dst)]
				for i := range full {
					full[i] = math.NaN()
				}
				dst = m.MulVecTo(dst, v)
				return len(dst) == rows && &dst[:1][0] == backing &&
					sameBits(dst, refMulVecTo(m, nil, v))
			}
			cfg := kernelConfig(int64(rows*14+cols), 20)
			cfg.Values = func(args []reflect.Value, r *rand.Rand) {
				args[0] = reflect.ValueOf(mulVecEntries(r, rows*cols))
				args[1] = reflect.ValueOf(mulVecEntries(r, cols))
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatalf("%d×%d: %v", rows, cols, err)
			}
		}
	}
}
