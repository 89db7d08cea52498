package workload

import (
	"math"
	"testing"
)

func TestNewAppValidation(t *testing.T) {
	ok := []Phase{{WorkFrac: 1, Threads: 4, MemBound: 0.2, IPCBig: 1, IPCLittle: 0.5}}
	if _, err := NewApp("x", 0, ok); err == nil {
		t.Fatal("expected error for zero total")
	}
	if _, err := NewApp("x", 10, nil); err == nil {
		t.Fatal("expected error for no phases")
	}
	bad := []Phase{{WorkFrac: 0.5, Threads: 4, MemBound: 0.2, IPCBig: 1, IPCLittle: 0.5}}
	if _, err := NewApp("x", 10, bad); err == nil {
		t.Fatal("expected error for fractions not summing to 1")
	}
	bad2 := []Phase{{WorkFrac: 1, Threads: 0, MemBound: 0.2, IPCBig: 1, IPCLittle: 0.5}}
	if _, err := NewApp("x", 10, bad2); err == nil {
		t.Fatal("expected error for zero threads")
	}
}

func TestAppPhaseProgression(t *testing.T) {
	a := MustLookup("blackscholes")
	// Starts in the single-thread ramp phase.
	if p := a.Profile(); p.Threads != 1 {
		t.Fatalf("initial threads = %d, want 1", p.Threads)
	}
	// Consume past 5% of the work: switches to 8 threads.
	a.Advance(a.Total() * 0.06)
	if p := a.Profile(); p.Threads != 8 {
		t.Fatalf("parallel-phase threads = %d, want 8", p.Threads)
	}
	if a.Done() {
		t.Fatal("not done yet")
	}
	a.Advance(a.Total())
	if !a.Done() {
		t.Fatal("should be done")
	}
	if p := a.Profile(); p.Threads != 0 {
		t.Fatalf("done profile threads = %d, want 0", p.Threads)
	}
}

func TestAppAdvanceConservation(t *testing.T) {
	a := MustLookup("gamess")
	total := a.Total()
	var consumed float64
	for !a.Done() {
		step := 37.5
		if r := a.Remaining(); step > r {
			step = r
		}
		a.Advance(step)
		consumed += step
	}
	if math.Abs(consumed-total) > 1e-9 {
		t.Fatalf("consumed %v, total %v", consumed, total)
	}
	a.Reset()
	if a.Done() || a.Remaining() != total {
		t.Fatal("reset did not rewind")
	}
}

func TestAppAdvanceNegativeIgnored(t *testing.T) {
	a := MustLookup("mcf")
	a.Advance(-10)
	if a.Remaining() != a.Total() {
		t.Fatal("negative advance must be ignored")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("doom3"); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestLookupReturnsFreshInstances(t *testing.T) {
	a := MustLookup("mcf")
	a.Advance(a.Total())
	b := MustLookup("mcf")
	if b.Done() {
		t.Fatal("Lookup must return fresh instances")
	}
}

func TestSuitesComplete(t *testing.T) {
	if len(EvaluationSPEC()) != 6 {
		t.Fatalf("want 6 SPEC programs, got %d", len(EvaluationSPEC()))
	}
	if len(EvaluationPARSEC()) != 8 {
		t.Fatalf("want 8 PARSEC programs, got %d", len(EvaluationPARSEC()))
	}
	if len(TrainingSet()) != 6 {
		t.Fatalf("want 6 training programs, got %d", len(TrainingSet()))
	}
	for _, n := range append(append(EvaluationSPEC(), EvaluationPARSEC()...), TrainingSet()...) {
		if _, err := Lookup(n); err != nil {
			t.Fatalf("catalog missing %s: %v", n, err)
		}
	}
	// Training set must not overlap the evaluation set (paper §V-A).
	eval := map[string]bool{}
	for _, n := range append(EvaluationSPEC(), EvaluationPARSEC()...) {
		eval[n] = true
	}
	for _, n := range TrainingSet() {
		if eval[n] {
			t.Fatalf("training app %s overlaps evaluation set", n)
		}
	}
}

func TestMixAggregation(t *testing.T) {
	mixes := HeterogeneousMixes()
	if len(mixes) != 4 {
		t.Fatalf("want 4 mixes, got %d", len(mixes))
	}
	blmc := mixes[0]
	if blmc.Name() != "blmc" {
		t.Fatalf("first mix %s, want blmc", blmc.Name())
	}
	p := blmc.Profile()
	// blackscholes contributes 1 thread (ramp phase) + mcf 4 copies.
	if p.Threads != 5 {
		t.Fatalf("initial mix threads = %d, want 5", p.Threads)
	}
	// MemBound must lie between the components'.
	if p.MemBound <= 0.10 || p.MemBound >= 0.78 {
		t.Fatalf("mix membound %v outside component range", p.MemBound)
	}
}

func TestMixCompletesBothComponents(t *testing.T) {
	m := NewMix("test", MustLookup("mcf"), MustLookup("gamess"))
	total := m.Total()
	steps := 0
	for !m.Done() && steps < 100000 {
		m.Advance(10)
		steps++
	}
	if !m.Done() {
		t.Fatal("mix never completed")
	}
	if m.Remaining() != 0 {
		t.Fatalf("remaining %v after done", m.Remaining())
	}
	if total <= 0 {
		t.Fatal("total must be positive")
	}
}

func TestMixProfileDropsFinishedComponents(t *testing.T) {
	m := NewMix("test", MustLookup("mcf"), MustLookup("gamess"))
	// Run until mcf (the small one) finishes.
	for steps := 0; steps < 100000; steps++ {
		p := m.Profile()
		if p.Threads == 8 {
			// Only gamess (8 copies) remains: profile must match gamess.
			if math.Abs(p.MemBound-0.08) > 1e-9 {
				t.Fatalf("after mcf done, membound %v, want 0.08", p.MemBound)
			}
			return
		}
		m.Advance(20)
		if m.Done() {
			break
		}
	}
	t.Fatal("never reached single-component state")
}

func TestHalfThreadsMixes(t *testing.T) {
	// Mix components use 4 threads (4-threaded PARSEC / 4 SPEC copies).
	m := HeterogeneousMixes()[3] // mcga
	p := m.Profile()
	if p.Threads != 8 {
		t.Fatalf("mcga threads = %d, want 8 (4+4)", p.Threads)
	}
}

func TestCappedWorkload(t *testing.T) {
	c := NewCapped(MustLookup("gamess"))
	if c.Profile().Threads != 8 {
		t.Fatalf("uncapped threads = %d, want 8", c.Profile().Threads)
	}
	c.SetCap(3)
	if c.Profile().Threads != 3 {
		t.Fatalf("capped threads = %d, want 3", c.Profile().Threads)
	}
	if c.Cap() != 3 {
		t.Fatalf("cap = %d", c.Cap())
	}
	c.SetCap(0)
	if c.Profile().Threads != 1 {
		t.Fatal("cap must clamp to >= 1")
	}
	// Work accounting passes through.
	before := c.Remaining()
	c.Advance(10)
	if c.Remaining() >= before {
		t.Fatal("Advance did not consume work")
	}
	c.Reset()
	if c.Remaining() != c.Total() {
		t.Fatal("Reset did not rewind")
	}
	if c.Name() != "gamess+cap" {
		t.Fatalf("name %q", c.Name())
	}
}
