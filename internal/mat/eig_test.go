package mat

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// eigenWithin runs Eigenvalues on a and fails the test if it has not
// returned within a few seconds.
func eigenWithin(t *testing.T, a *Matrix) ([]complex128, error) {
	t.Helper()
	type result struct {
		eig []complex128
		err error
	}
	done := make(chan result, 1)
	go func() {
		eig, err := Eigenvalues(a)
		done <- result{eig, err}
	}()
	select {
	case r := <-done:
		return r.eig, r.err
	case <-time.After(5 * time.Second):
		t.Fatalf("Eigenvalues(%v) did not return", a.data)
		return nil, nil
	}
}

// TestEigenvaluesNonFinite asserts a NaN or infinite entry gives
// ErrNotFinite at once: an infinite entry used to hang the balancing loop,
// and a NaN one gave NaN eigenvalues and a spectral radius of 0.
func TestEigenvaluesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []*Matrix{
			FromRows([][]float64{{0, 1}, {bad, 0}}),
			FromRows([][]float64{{0, bad}, {1, 0}}),
			FromRows([][]float64{{bad}}),
			FromRows([][]float64{{0.5, 0, 0}, {0, 0.2, 0}, {0, 0, bad}}),
		} {
			if _, err := eigenWithin(t, a); !errors.Is(err, ErrNotFinite) {
				t.Fatalf("Eigenvalues(%v) error = %v, want ErrNotFinite", a.data, err)
			}
			if r, err := SpectralRadius(a); !errors.Is(err, ErrNotFinite) || r != 0 {
				t.Fatalf("SpectralRadius(%v) = %v, %v; want 0, ErrNotFinite", a.data, r, err)
			}
		}
	}
}

// TestEigenvaluesOverflowingNormReturns asserts finite entries whose column
// sum overflows no longer hang the balancing loop.
func TestEigenvaluesOverflowingNormReturns(t *testing.T) {
	big := math.MaxFloat64 / 1.5
	a := FromRows([][]float64{{0, 1, 0}, {big, 0, 0}, {big, 0, 0}})
	eig, err := eigenWithin(t, a)
	if err == nil && len(eig) != 3 {
		t.Fatalf("got %d eigenvalues, want 3", len(eig))
	}
}

// eigenStructureOK reports whether eig is what hqr produces for an n×n
// matrix: n values, each real (imaginary part +0) or the first of a
// complex-conjugate pair that sits next to its partner.
func eigenStructureOK(eig []complex128, n int) bool {
	if len(eig) != n {
		return false
	}
	for i := 0; i < n; {
		if math.Float64bits(imag(eig[i])) == 0 {
			i++
			continue
		}
		if i+1 >= n ||
			math.Float64bits(real(eig[i])) != math.Float64bits(real(eig[i+1])) ||
			math.Float64bits(imag(eig[i+1])) != math.Float64bits(-imag(eig[i])) {
			return false
		}
		i += 2
	}
	return true
}

// FuzzEigenvalues builds a small square matrix from bytes: the first byte
// sets the order (1…6), each entry takes 8 bytes as raw float64 bits or,
// when the next byte is even, a small integer. Eigenvalues must return (it
// may neither hang nor panic). Non-finite input gives ErrNotFinite; finite
// input gives n eigenvalues, real or in adjacent conjugate pairs, or
// ErrNoConvergence.
func FuzzEigenvalues(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 0, 0, 2, 0, 3})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8})
	f.Add([]byte{4, 0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%6
		data = data[1:]
		a := Zeros(n, n)
		finite := true
		for i := range a.data {
			switch {
			case len(data) >= 2 && data[0]%2 == 0:
				a.data[i] = float64(int8(data[1]))
				data = data[2:]
			case len(data) >= 9:
				a.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
				data = data[9:]
			}
			if math.IsNaN(a.data[i]) || math.IsInf(a.data[i], 0) {
				finite = false
			}
		}
		eig, err := Eigenvalues(a)
		switch {
		case !finite:
			if !errors.Is(err, ErrNotFinite) {
				t.Fatalf("non-finite %v: error %v, want ErrNotFinite", a.data, err)
			}
		case errors.Is(err, ErrNoConvergence):
		case err != nil:
			t.Fatalf("finite %v: unexpected error %v", a.data, err)
		case !eigenStructureOK(eig, n):
			t.Fatalf("finite %v: eigenvalues %v are neither real nor conjugate pairs", a.data, eig)
		}
	})
}

// BenchmarkEigenvalues times the eigenvalues of a seeded 24×24 matrix laid
// out as the real embedding [Re −Im; Im Re] of a 12×12 complex matrix, the
// μ lower bound's certification step at the hardware layer's Δ order.
func BenchmarkEigenvalues(b *testing.B) {
	const n = 12
	rng := rand.New(rand.NewSource(1))
	a := Zeros(2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			a.Set(i, j, re)
			a.Set(i, n+j, -im)
			a.Set(n+i, j, im)
			a.Set(n+i, n+j, re)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQRDecompose times the factorization of identification's largest
// regression: 2516 samples of 57 regressors (the monolithic model's lagged
// outputs and inputs plus the intercept).
func BenchmarkQRDecompose(b *testing.B) {
	a := randMatrix(rand.New(rand.NewSource(1)), 2516, 57)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		qrSink = QRDecompose(a)
	}
}

// qrSink keeps BenchmarkQRDecompose's result live.
var qrSink *QR
