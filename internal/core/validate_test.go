package core

import (
	"math"
	"slices"
	"testing"

	"yukta/internal/mat"
	"yukta/internal/robust"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameMatrixBits(a, b *mat.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !sameBits(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// TestValidatedControllersMatchEagerSynthesis asserts that the validation
// ladder, which synthesizes its candidates without the μ lower bound and
// bounds only the design it keeps, returns bit for bit what eager
// robust.Synthesize returns at the kept design's penalty floor: the same K
// and the same Report, lower bound included.
func TestValidatedControllersMatchEagerSynthesis(t *testing.T) {
	p := testPlatform(t)
	hp, op := DefaultHWParams(), DefaultOSParams()
	hw, err := p.HWControllerValidated(hp)
	if err != nil {
		t.Fatal(err)
	}
	os, err := p.OSControllerValidated(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		layer string
		ctl   *robust.Controller
		spec  func(minPenalty float64) *robust.Spec
	}{
		{"HW", hw, func(pen float64) *robust.Spec { return p.hwSpec(hp, pen) }},
		{"OS", os, func(pen float64) *robust.Spec { return p.osSpec(op, pen) }},
	} {
		r := c.ctl.Report
		if !(r.SSV <= 1) || r.SSVLower <= 0 {
			t.Fatalf("%s: validated design not certified (SSV %v, lower %v); the lower bound goes unchecked", c.layer, r.SSV, r.SSVLower)
		}
		// Synthesize doubles the penalty from its floor at every step.
		floor := r.ControlPenalty / math.Ldexp(1, r.Iterations-1)
		if !slices.Contains(validationPenalties, floor) {
			t.Fatalf("%s: penalty %v after %d steps has floor %v, not on the validation ladder", c.layer, r.ControlPenalty, r.Iterations, floor)
		}
		eager, err := robust.Synthesize(c.spec(floor))
		if err != nil {
			t.Fatal(err)
		}
		e := eager.Report
		if !sameBits([]float64{r.SSV, r.SSVLower, r.MinS, r.ControlPenalty}, []float64{e.SSV, e.SSVLower, e.MinS, e.ControlPenalty}) ||
			!sameBits(r.GuaranteedBounds, e.GuaranteedBounds) || r.Iterations != e.Iterations || r.StateDim != e.StateDim {
			t.Fatalf("%s: validated report %+v, eager report %+v", c.layer, r, e)
		}
		for _, m := range [][2]*mat.Matrix{
			{c.ctl.K.A, eager.K.A}, {c.ctl.K.B, eager.K.B}, {c.ctl.K.C, eager.K.C}, {c.ctl.K.D, eager.K.D},
		} {
			if !sameMatrixBits(m[0], m[1]) {
				t.Fatalf("%s: validated and eager controller realizations differ", c.layer)
			}
		}
	}
}
