package robust

import (
	"math"
	"math/cmplx"
	"slices"
	"sync/atomic"

	"yukta/internal/mat"
)

// MuLowerBound returns a lower bound on the structured singular value μ(M)
// for the scalar complex uncertainty structure, via the standard power
// iteration: μ(M) = max over diagonal unitary U of ρ(U M), and the
// iteration seeks a fixed point of the associated alignment condition. The
// returned value is the largest |λ| found; together with MuUpperBound it
// brackets μ, and the gap indicates how conservative the D-scaling bound is
// (MATLAB's mussv reports the same pair).
func MuLowerBound(m *mat.CMatrix) float64 {
	n := m.Rows()
	if n != m.Cols() {
		panic("robust: MuLowerBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	// The iterate vectors, the certified scaled copy um and the eigenvalue
	// buffers are reused across restarts and iterations; md is m's entries.
	md := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			md[i*n+j] = m.At(i, j)
		}
	}
	b := make([]complex128, n)
	next := make([]complex128, n)
	a := make([]complex128, n)
	um := make([]complex128, n*n)
	ws := newEmbedWork(n)
	best := 0.0
	// Several deterministic restarts: the power iteration for μ is not
	// globally convergent, so restart from varied phase patterns. Each
	// restart's candidate is *certified* by evaluating ρ(U M) for the
	// explicit diagonal unitary U the iteration aligned — U is a feasible
	// worst-case uncertainty direction, so ρ(U M) is always a valid lower
	// bound (μ(M) = max over diagonal unitary U of ρ(U M) for this
	// structure), even when the iteration has not converged.
	for restart := 0; restart < 4; restart++ {
		for i := range b {
			theta := 2 * math.Pi * float64(i*(restart+1)) / float64(n+1)
			b[i] = cmplx.Exp(complex(0, theta))
		}
		normalizeVec(b)
		for iter := 0; iter < 60; iter++ {
			// a = M b, then align the uncertainty phases and iterate with
			// b ← normalized phase-aligned a.
			mulVec(a, md, b)
			if vecNorm(a) == 0 {
				break
			}
			for i := range next {
				ph := cmplx.Conj(mat.CMul(phase(a[i]), cmplx.Conj(phase(b[i]))))
				next[i] = mat.CMul(a[i], ph)
			}
			normalizeVec(next)
			// Certify this iterate: U aligns M's output phases back onto b.
			for i := 0; i < n; i++ {
				u := mat.CMul(phase(b[i]), cmplx.Conj(phase(a[i])))
				for j := 0; j < n; j++ {
					um[i*n+j] = mat.CMul(u, md[i*n+j])
				}
			}
			if rho := ws.spectralRadius(um); rho > best {
				best = rho
			}
			var diff float64
			for i := range b {
				diff += cmplx.Abs(next[i] - b[i])
			}
			b, next = next, b
			if diff < 1e-9 {
				break
			}
		}
	}
	// ρ(M) itself (U = I) is always a valid lower bound too.
	if rho := ws.spectralRadius(md); rho > best {
		best = rho
	}
	return best
}

// embedWork computes ρ of complex n×n matrices through the real 2n×2n
// embedding [Re −Im; Im Re], reusing the embedding and eigenvalue buffers.
type embedWork struct {
	n   int
	re  []float64   // row-major backing store of emb
	emb *mat.Matrix // the 2n×2n embedding
	eig mat.EigWork
}

func newEmbedWork(n int) embedWork {
	re := make([]float64, 4*n*n)
	return embedWork{n: n, re: re, emb: mat.New(2*n, 2*n, re)}
}

// spectralRadius returns ρ of the row-major n×n complex matrix md (0 when
// the eigenvalue iteration fails).
func (ws *embedWork) spectralRadius(md []complex128) float64 {
	n, nn, re := ws.n, 2*ws.n, ws.re
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := md[i*n+j]
			re[i*nn+j] = real(v)
			re[i*nn+n+j] = -imag(v)
			re[(n+i)*nn+j] = imag(v)
			re[(n+i)*nn+n+j] = real(v)
		}
	}
	rho, err := ws.eig.SpectralRadius(ws.emb)
	if err != nil {
		return 0
	}
	return rho
}

// lowerSlack sizes lowerCap's rounding allowance: the eigenvalue solver
// returns the spectrum of a matrix within a backward error of about n·u (u
// the unit roundoff, 1.1e-16) of its norm, and the slack is 10⁶ times that
// at the Δ blocks' order, n ≤ 24 in the real embedding.
const lowerSlack = 1e-8

// lowerCap returns a number that MuLowerBound(m) cannot exceed, given a
// positive diagonal scaling d of m; perronScaling(m) makes it tight. Each
// candidate the lower bound certifies is ρ(U M) for a diagonal unitary U,
// and since D U M D⁻¹ = U D M D⁻¹ with U norm-preserving,
//
//	ρ(U M) = ρ(D U M D⁻¹) ≤ σ_max(D M D⁻¹) ≤ ‖D M D⁻¹‖_F.
//
// The computed ρ is exact for a matrix a backward error E away, which D
// scales by at most κ(D) = max d / min d; the allowance
// lowerSlack·(‖D M D⁻¹‖_F + κ(D)·‖M‖_F) covers ‖D E D⁻¹‖ and the
// rounding of the norms themselves (DESIGN.md §19). Without D the cap is
// ‖M‖_F, too loose to skip most grid points.
func lowerCap(m *mat.CMatrix, d []float64) float64 {
	if len(d) == 0 {
		return 0
	}
	// Hypot accumulates each norm without squaring an entry, so a tiny
	// response cannot underflow to a zero cap.
	var scaled, plain float64
	for i := range d {
		for j := range d {
			a := cmplx.Abs(m.At(i, j))
			scaled = math.Hypot(scaled, a*(d[i]/d[j]))
			plain = math.Hypot(plain, a)
		}
	}
	kappa := slices.Max(d) / slices.Min(d)
	return scaled + float64(lowerSlack*(scaled+float64(kappa*plain)))
}

// peakLower returns the largest MuLowerBound over the responses gs, whose
// caps (lowerCap) bound them, and how many it computed (DESIGN.md §19).
// MuLowerBound starts at 0 and rises only on a larger value, so it is
// never NaN and every value it returns is final.
func peakLower(gs []*mat.CMatrix, caps []float64) (lo float64, lowers int) {
	var ran atomic.Int64
	lo = peakOver(caps, func(i int, _ *muPeak) (float64, bool) {
		ran.Add(1)
		return MuLowerBound(gs[i]), true
	})
	return lo, int(ran.Load())
}

func phase(v complex128) complex128 {
	a := cmplx.Abs(v)
	if a == 0 {
		return 1
	}
	return v / complex(a, 0)
}

// mulVec sets out = M v for the row-major n×n M held in md, n = len(v).
func mulVec(out, md, v []complex128) {
	n := len(v)
	for i := range out {
		var s complex128
		for j, x := range v {
			s += mat.CMul(md[i*n+j], x)
		}
		out[i] = s
	}
}

func vecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += float64(real(x)*real(x)) + float64(imag(x)*imag(x))
	}
	return math.Sqrt(s)
}

func normalizeVec(v []complex128) {
	n := vecNorm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= complex(n, 0)
	}
}
