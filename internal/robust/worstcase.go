package robust

import (
	"math"
	"math/cmplx"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// WorstCaseGain bounds the worst-case gain of an uncertain system given in
// Δ-N form: sys maps [w_Δ (nd); w_perf] → [f_Δ (nd); z_perf], and the
// uncertainty block Δ (nd scalar complex channels, each bounded by delta)
// closes the upper loop. The returned value bounds
//
//	max over ||Δ|| <= delta of || F_u(N, Δ) ||∞
//
// using the standard skewed-μ grid bound: at each frequency the worst-case
// gain is the largest γ such that μ of the loop with the performance channel
// scaled by 1/γ reaches 1, found by bisection on γ.
//
// This is the analysis MATLAB's wcgain performs; the paper's claim that an
// SSV design "keeps all visible outputs z within bounds B of the targets for
// all possible model inaccuracies smaller than the specified Δ" is exactly
// WorstCaseGain(N, nd, delta) <= 1 for the bounds-scaled performance channel.
func WorstCaseGain(sys *lti.StateSpace, nd int, delta float64) (float64, error) {
	if nd < 0 || nd > sys.Inputs() || nd > sys.Outputs() {
		return 0, ErrSynthesis
	}
	const grid = 64
	worst := 0.0
	for i := 0; i <= grid; i++ {
		theta := math.Pi * float64(i) / grid
		g, err := sys.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil {
			return math.Inf(1), nil
		}
		if v := worstCaseGainAt(g, nd, delta); v > worst {
			worst = v
		}
	}
	return worst, nil
}

// worstCaseGainAt computes the frequency-local worst-case gain by bisection
// on the performance scaling.
func worstCaseGainAt(g *mat.CMatrix, nd int, delta float64) float64 {
	rows, cols := g.Rows(), g.Cols()
	np := rows - nd // performance outputs
	nq := cols - nd // performance inputs
	if np <= 0 || nq <= 0 {
		return 0
	}
	// Nominal gain of the performance block is a lower limit.
	perf := mat.CZeros(np, nq)
	for i := 0; i < np; i++ {
		for j := 0; j < nq; j++ {
			perf.Set(i, j, g.At(nd+i, nd+j))
		}
	}
	lo := mat.CMaxSingularValue(perf)
	if nd == 0 || delta == 0 {
		return lo
	}
	// Robust stability first: if μ of the Δ-facing block times delta
	// reaches 1 the worst-case gain is unbounded.
	dblock := mat.CZeros(nd, nd)
	for i := 0; i < nd; i++ {
		for j := 0; j < nd; j++ {
			dblock.Set(i, j, g.At(i, j))
		}
	}
	if MuUpperBound(dblock)*delta >= 1 {
		return math.Inf(1)
	}
	// Bisection on gamma: the uncertain loop's gain exceeds gamma iff
	// μ_skewed(M(gamma)) >= 1, where M scales the Δ rows/cols by delta and
	// the performance rows/cols by 1/sqrt(gamma) each.
	exceeds := func(gamma float64) bool {
		m := mat.CZeros(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				v := g.At(i, j)
				if i < nd {
					v = mat.CMul(v, complex(math.Sqrt(delta), 0))
				} else {
					v = mat.CMul(v, complex(1/math.Sqrt(gamma), 0))
				}
				if j < nd {
					v = mat.CMul(v, complex(math.Sqrt(delta), 0))
				} else {
					v = mat.CMul(v, complex(1/math.Sqrt(gamma), 0))
				}
				m.Set(i, j, v)
			}
		}
		return MuUpperBound(m) >= 1
	}
	hiGuess := math.Max(lo, 1e-6)
	for iter := 0; iter < 60 && exceeds(hiGuess); iter++ {
		hiGuess *= 2
	}
	loGuess := math.Max(lo, 1e-9)
	for iter := 0; iter < 40; iter++ {
		mid := math.Sqrt(loGuess * hiGuess)
		if exceeds(mid) {
			loGuess = mid
		} else {
			hiGuess = mid
		}
		if hiGuess/loGuess < 1.01 {
			break
		}
	}
	return hiGuess
}
