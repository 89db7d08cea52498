package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"yukta/internal/lti"
	"yukta/internal/mat"
	"yukta/internal/robust"
)

// synthesisFingerprint is the SHA-256 TestSynthesisFingerprint computes. It
// was taken before the μ sweep learned to skip descents that cannot set its
// peak (DESIGN.md §17), so it pins every identified model and synthesized
// controller to the bits they had then. The packages
// TestIdentificationHasNoFusedMultiplyAdd checks fuse no multiply-add on
// arm64, but math.Exp is not portable: on amd64 it takes a fused
// multiply-add path when the CPU has AVX and FMA, and under
// GODEBUG=cpu.fma=off this test reads 14d0c0b3… instead; arm64 computes it
// with another algorithm. So the digest holds on amd64 hosts with FMA
// (ROADMAP item 2).
const synthesisFingerprint = "1df067b0f544b4008ed9e735ffc37813588f0d35b78b8248d7330792a6d308a0"

// TestSynthesisFingerprint hashes the Float64bits of the five identified
// models and of K.{A,B,C,D} and every Report field of the validated HW and
// OS controllers, the three LQG designs, eager SynthesizeHWSSV and
// DesignHWAtPenalty at ρ = 1, 2, 4, 8 and 16. A system is hashed as its
// four matrices and Ts, a matrix as its dimensions followed by its entries
// in row-major order, every word as 8 little-endian bytes.
func TestSynthesisFingerprint(t *testing.T) {
	p := testPlatform(t)
	hp, op := DefaultHWParams(), DefaultOSParams()
	var ctls []*robust.Controller
	add := func(c ...*robust.Controller) {
		ctls = append(ctls, c...)
	}
	must := func(c *robust.Controller, err error) *robust.Controller {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	add(must(p.HWControllerValidated(hp)), must(p.OSControllerValidated(op)), must(p.MonolithicLQGController()))
	hw, os, err := p.DecoupledLQGControllers()
	if err != nil {
		t.Fatal(err)
	}
	add(hw, os, must(p.SynthesizeHWSSV(hp)))
	for _, rho := range []float64{1, 2, 4, 8, 16} {
		add(must(p.DesignHWAtPenalty(hp, rho)))
	}

	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	num := func(x float64) { word(math.Float64bits(x)) }
	matrix := func(m *mat.Matrix) {
		word(uint64(m.Rows()))
		word(uint64(m.Cols()))
		for i := 0; i < m.Rows(); i++ {
			for _, x := range m.Row(i) {
				num(x)
			}
		}
	}
	system := func(s *lti.StateSpace) {
		matrix(s.A)
		matrix(s.B)
		matrix(s.C)
		matrix(s.D)
		num(s.Ts)
	}
	for _, m := range []*lti.StateSpace{p.HW, p.OS, p.HWOnly, p.OSOnly, p.Mono} {
		system(m)
	}
	for _, c := range ctls {
		system(c.K)
		r := c.Report
		num(r.SSV)
		num(r.SSVLower)
		num(r.MinS)
		word(uint64(len(r.GuaranteedBounds)))
		for _, b := range r.GuaranteedBounds {
			num(b)
		}
		word(uint64(r.Iterations))
		num(r.ControlPenalty)
		word(uint64(r.StateDim))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != synthesisFingerprint {
		t.Fatalf("synthesis fingerprint %s, want %s: an identified model or a synthesized controller changed bits", got, synthesisFingerprint)
	}
}
