package sysid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"yukta/internal/mat"
)

func TestScalingRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mn := rng.NormFloat64() * 100
		span := math.Abs(rng.NormFloat64()*100) + 0.1
		s := Scaling{Min: mn, Max: mn + span}
		x := mn + rng.Float64()*span
		back := s.Denormalize(s.Normalize(x))
		return math.Abs(back-x) < 1e-9*(1+math.Abs(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalingEndpoints(t *testing.T) {
	s := Scaling{Min: 0.2, Max: 2.0}
	if n := s.Normalize(0.2); math.Abs(n+1) > 1e-12 {
		t.Fatalf("Normalize(Min) = %v, want -1", n)
	}
	if n := s.Normalize(2.0); math.Abs(n-1) > 1e-12 {
		t.Fatalf("Normalize(Max) = %v, want 1", n)
	}
	if n := s.Normalize(1.1); math.Abs(n) > 1e-12 {
		t.Fatalf("Normalize(mid) = %v, want 0", n)
	}
	// A 0.1 step on the 1.8 range is 2*0.1/1.8 in normalized units.
	if q := s.QuantumNormalized(0.1); math.Abs(q-2*0.1/1.8) > 1e-12 {
		t.Fatalf("QuantumNormalized = %v", q)
	}
}

func TestScalingDegenerate(t *testing.T) {
	s := Scaling{Min: 1, Max: 1}
	if s.Normalize(1) != 0 || s.QuantumNormalized(0.1) != 0 {
		t.Fatal("degenerate scaling must map to zero")
	}
}

// synthData generates data from a known ARX system plus optional noise.
func synthData(rng *rand.Rand, n int, noise float64) (*Dataset, *Model) {
	true_ := &Model{
		NY: 2, NU: 2, Ts: 0.5,
		A: []*mat.Matrix{
			mat.FromRows([][]float64{{0.5, 0.1}, {0.0, 0.4}}),
			mat.FromRows([][]float64{{0.1, 0.0}, {0.05, 0.1}}),
		},
		B: []*mat.Matrix{
			mat.FromRows([][]float64{{0.3, 0.0}, {0.1, 0.2}}),
			mat.FromRows([][]float64{{0.1, 0.05}, {0.0, 0.1}}),
		},
	}
	d := &Dataset{}
	yHist := [][]float64{{0, 0}, {0, 0}}
	uHist := [][]float64{{0, 0}, {0, 0}}
	u1 := prbs(n, 3, 0.8, rng)
	u2 := prbs(n, 5, 0.8, rng)
	for t := 0; t < n; t++ {
		u := []float64{u1[t], u2[t]}
		y := make([]float64, 2)
		for k := 0; k < 2; k++ {
			ay := true_.A[k].MulVec(yHist[len(yHist)-1-k])
			for i := range y {
				y[i] += ay[i]
			}
		}
		bu := true_.B[0].MulVec(u)
		b1 := true_.B[1].MulVec(uHist[len(uHist)-1])
		for i := range y {
			y[i] += bu[i] + b1[i] + noise*rng.NormFloat64()
		}
		d.Append(u, y)
		yHist = append(yHist, y)
		uHist = append(uHist, u)
	}
	return d, true_
}

func TestIdentifyRecoversKnownSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, true_ := synthData(rng, 600, 0)
	m, err := Identify(d, Orders{NA: 2, NB: 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for k := range true_.A {
		if !m.A[k].Equal(true_.A[k], 1e-6) {
			t.Fatalf("A[%d] mismatch:\n%v\nwant\n%v", k, m.A[k], true_.A[k])
		}
	}
	for k := range true_.B {
		if !m.B[k].Equal(true_.B[k], 1e-6) {
			t.Fatalf("B[%d] mismatch:\n%v\nwant\n%v", k, m.B[k], true_.B[k])
		}
	}
}

func TestIdentifyNoisyStillAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, true_ := synthData(rng, 3000, 0.05)
	m, err := Identify(d, Orders{NA: 2, NB: 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for k := range true_.A {
		if !m.A[k].Equal(true_.A[k], 0.05) {
			t.Fatalf("noisy A[%d] off:\n%v\nwant\n%v", k, m.A[k], true_.A[k])
		}
	}
	met, err := m.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	for j, r2 := range met.R2 {
		if r2 < 0.9 {
			t.Fatalf("R2[%d] = %v, want > 0.9", j, r2)
		}
	}
}

func TestStateSpaceMatchesARXSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, _ := synthData(rng, 400, 0)
	m, err := Identify(d, Orders{NA: 2, NB: 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ss := m.StateSpace()
	if ss.Inputs() != 2 || ss.Outputs() != 2 {
		t.Fatalf("state space shape %dx%d", ss.Outputs(), ss.Inputs())
	}
	// Drive both representations with the same input; outputs must agree.
	u := make([][]float64, 50)
	for t := range u {
		u[t] = []float64{math.Sin(float64(t) * 0.3), math.Cos(float64(t) * 0.17)}
	}
	ySS, err := ss.Simulate(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	// ARX recursion with zero history.
	yARX := make([][]float64, len(u))
	hist := &Dataset{}
	hist.Append([]float64{0, 0}, []float64{0, 0})
	hist.Append([]float64{0, 0}, []float64{0, 0})
	for t := range u {
		y := make([]float64, 2)
		nHist := hist.Len()
		for k := 1; k <= 2; k++ {
			ay := m.A[k-1].MulVec(hist.Y[nHist-k])
			for i := range y {
				y[i] += ay[i]
			}
		}
		b0 := m.B[0].MulVec(u[t])
		b1 := m.B[1].MulVec(hist.U[nHist-1])
		for i := range y {
			y[i] += b0[i] + b1[i]
		}
		yARX[t] = y
		hist.Append(u[t], y)
	}
	for ti := range u {
		for j := 0; j < 2; j++ {
			if math.Abs(ySS[ti][j]-yARX[ti][j]) > 1e-9 {
				t.Fatalf("t=%d output %d: SS %v vs ARX %v", ti, j, ySS[ti][j], yARX[ti][j])
			}
		}
	}
}

func TestIdentifyOrder4Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, _ := synthData(rng, 800, 0.01)
	m, err := Identify(d, PaperOrders, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.A) != 4 || len(m.B) != 4 {
		t.Fatalf("orders %d/%d, want 4/4", len(m.A), len(m.B))
	}
	ss := m.StateSpace()
	// 4 output lags * 2 outputs + 3 input lags * 2 inputs = 14 states.
	if ss.Order() != 14 {
		t.Fatalf("state order %d, want 14", ss.Order())
	}
}

func TestReducedStateSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, _ := synthData(rng, 800, 0.01)
	m, err := Identify(d, PaperOrders, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m.Stabilize()
	red := m.ReducedStateSpace(8)
	if red.Order() > 8 && m.StateSpace().IsStable() {
		t.Fatalf("reduction kept %d states", red.Order())
	}
}

func TestIdentifyErrors(t *testing.T) {
	if _, err := Identify(&Dataset{}, PaperOrders, 0.5); err == nil {
		t.Fatal("expected error on empty dataset")
	}
	d := &Dataset{}
	for i := 0; i < 5; i++ {
		d.Append([]float64{0}, []float64{0})
	}
	if _, err := Identify(d, PaperOrders, 0.5); err == nil {
		t.Fatal("expected error on too-short dataset")
	}
	if _, err := Identify(d, Orders{NA: 0, NB: 1}, 0.5); err == nil {
		t.Fatal("expected error on zero order")
	}
}

func TestStabilize(t *testing.T) {
	m := &Model{
		NY: 1, NU: 1, Ts: 0.5,
		A: []*mat.Matrix{mat.New(1, 1, []float64{1.3})},
		B: []*mat.Matrix{mat.New(1, 1, []float64{1})},
	}
	if m.StateSpace().IsStable() {
		t.Fatal("test premise broken: model should start unstable")
	}
	m.Stabilize()
	if !m.StateSpace().IsStable() {
		t.Fatal("Stabilize failed to produce a stable model")
	}
}

// prbs returns a pseudo-random binary sequence of length n taking values
// ±amplitude, holding each value for hold samples: the standard black-box
// identification input, persistently exciting across a wide frequency band.
func prbs(n, hold int, amplitude float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	v := amplitude
	for i := 0; i < n; i++ {
		if i%hold == 0 {
			if rng.Intn(2) == 0 {
				v = amplitude
			} else {
				v = -amplitude
			}
		}
		out[i] = v
	}
	return out
}

func TestPRBSProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq := prbs(1000, 4, 0.7, rng)
	for i, v := range seq {
		if v != 0.7 && v != -0.7 {
			t.Fatalf("PRBS[%d] = %v, want ±0.7", i, v)
		}
	}
	// Holds for 4 samples.
	for i := 0; i+3 < len(seq); i += 4 {
		if seq[i] != seq[i+1] || seq[i] != seq[i+3] {
			t.Fatalf("PRBS does not hold at %d", i)
		}
	}
	// Roughly balanced.
	var pos int
	for _, v := range seq {
		if v > 0 {
			pos++
		}
	}
	if pos < 300 || pos > 700 {
		t.Fatalf("PRBS unbalanced: %d positive of %d", pos, len(seq))
	}
}
