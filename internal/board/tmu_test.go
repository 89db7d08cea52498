package board

import (
	"testing"
	"time"

	"yukta/internal/workload"
)

// hotApp returns a compute-bound 8-thread app that drives the big cluster
// well past the emergency thresholds at full tilt.
func hotApp(t *testing.T) *workload.App {
	t.Helper()
	a, err := workload.NewApp("hot", 1e6, []workload.Phase{
		{WorkFrac: 1, Threads: 8, MemBound: 0.05, IPCBig: 1.8, IPCLittle: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTMUSustainedViolationRequired(t *testing.T) {
	// A short power spike must not trip the firmware: the violation has to
	// persist for EmergencyHold.
	cfg := DefaultConfig()
	b := New(cfg)
	w := hotApp(t)
	b.Place(Placement{ThreadsBig: 8, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	// Run hot for less than the hold time, then drop to a safe point.
	b.Run(w, cfg.EmergencyHold/2)
	b.SetBigFreq(0.8)
	s := b.Run(w, 2*time.Second)
	if s.EmergencyEvents != 0 {
		t.Fatalf("spike shorter than the hold period tripped the firmware (%d events)", s.EmergencyEvents)
	}
}

func TestTMUThrottleAndRelease(t *testing.T) {
	cfg := DefaultConfig()
	b := New(cfg)
	w := hotApp(t)
	b.Place(Placement{ThreadsBig: 8, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	// Sustained full blast: firmware must engage and cap the frequency.
	var s Sensors
	for i := 0; i < 20; i++ {
		s = b.Run(w, 500*time.Millisecond)
	}
	if s.EmergencyEvents == 0 || !s.Throttled {
		t.Fatalf("firmware did not engage under sustained violation (events=%d)", s.EmergencyEvents)
	}
	capped := b.EffectiveBigFreq()
	if capped >= cfg.Big.FreqMaxGHz {
		t.Fatal("no frequency cap applied")
	}
	// Back off to a clearly safe operating point: the cap must release
	// gradually and eventually clear.
	b.SetBigFreq(0.6)
	b.SetBigCores(1)
	for i := 0; i < 120; i++ {
		s = b.Run(w, 500*time.Millisecond)
		if !s.Throttled {
			break
		}
	}
	if s.Throttled {
		t.Fatalf("cap never released after sustained safe operation (eff=%v)", b.EffectiveBigFreq())
	}
	// After release the requested frequency is honoured again.
	b.SetBigFreq(1.0)
	if got := b.EffectiveBigFreq(); got != 1.0 {
		t.Fatalf("effective frequency %v after release, want 1.0", got)
	}
}

func TestTMULittleClusterIndependent(t *testing.T) {
	// Overdriving only the little cluster must cap little, not big.
	cfg := DefaultConfig()
	cfg.LittlePowerEmergencyW = 0.05 // force a little-cluster violation
	b := New(cfg)
	w := hotApp(t)
	b.SetBigFreq(0.5)
	b.SetBigCores(1)
	b.Place(Placement{ThreadsBig: 0, ThreadsLittle: 8, ThreadsPerBigCore: 1, ThreadsPerLittleCore: 2})
	var s Sensors
	for i := 0; i < 20; i++ {
		s = b.Run(w, 500*time.Millisecond)
	}
	if s.EmergencyEvents == 0 {
		t.Fatal("little-cluster violation not detected")
	}
	if b.EffectiveLittleFreq() >= cfg.Little.FreqMaxGHz {
		t.Fatal("little cluster not capped")
	}
	if b.EffectiveBigFreq() < b.BigFreq() {
		t.Fatal("big cluster capped by a little-cluster violation")
	}
}

func TestThermalEmergencyCapsBig(t *testing.T) {
	// Force a thermal violation with modest power by raising the thermal
	// resistance: the firmware's thermal path must cap the big cluster.
	cfg := DefaultConfig()
	cfg.ThermalRCW = 20
	b := New(cfg)
	w := hotApp(t)
	b.Place(Placement{ThreadsBig: 8, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	b.SetBigFreq(1.2) // below the power threshold at 4 cores…
	var s Sensors
	for i := 0; i < 120; i++ {
		s = b.Run(w, 500*time.Millisecond)
		if s.Throttled {
			break
		}
	}
	if !s.Throttled {
		t.Fatalf("thermal emergency never engaged at T=%.1f", s.TempC)
	}
	if b.EffectiveBigFreq() >= 1.2 {
		t.Fatal("thermal emergency did not cap the big cluster")
	}
}

func TestSensorWindowAveraging(t *testing.T) {
	// The power sensor reports the average over its update window, so a
	// half-window burst shows up diluted.
	cfg := DefaultConfig()
	b := New(cfg)
	w := hotApp(t)
	b.Place(Placement{ThreadsBig: 8, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	b.SetBigFreq(2.0)
	s := b.Run(w, 2*time.Second)
	high := s.BigPowerW
	b.SetBigFreq(0.2)
	s = b.Run(w, 2*time.Second)
	low := s.BigPowerW
	if high <= low {
		t.Fatalf("sensor did not track power: high=%v low=%v", high, low)
	}
	if low <= 0 {
		t.Fatal("sensor reads zero under load")
	}
}

func TestBoardStringer(t *testing.T) {
	b := New(DefaultConfig())
	if s := b.String(); len(s) < 10 {
		t.Fatalf("String() too short: %q", s)
	}
}

func TestDVFSTransitionStall(t *testing.T) {
	// Thrashing the frequency every interval loses throughput relative to a
	// steady setting at the average frequency.
	run := func(thrash bool) float64 {
		cfg := DefaultConfig()
		cfg.DVFSTransition = 20 * time.Millisecond // exaggerate for the test
		b := New(cfg)
		w := hotApp(t)
		b.SetBigCores(2)
		b.Place(Placement{ThreadsBig: 8, ThreadsPerBigCore: 4, ThreadsPerLittleCore: 1})
		var total float64
		for i := 0; i < 40; i++ {
			if thrash {
				if i%2 == 0 {
					b.SetBigFreq(1.0)
				} else {
					b.SetBigFreq(1.2)
				}
			} else {
				b.SetBigFreq(1.1)
			}
			s := b.Run(w, 500*time.Millisecond)
			total += s.BIPS
		}
		return total
	}
	steady := run(false)
	thrash := run(true)
	if thrash >= steady {
		t.Fatalf("DVFS thrash (%v) should not beat steady (%v)", thrash, steady)
	}
}

func TestForcedEmergencyThrottleEngagesAndRecovers(t *testing.T) {
	// A forced thermal event at a safe operating point must walk through the
	// normal firmware dynamics: hold before engaging, cap while forced, and
	// step-wise release once the forced window has passed.
	cfg := DefaultConfig()
	b := New(cfg)
	w := hotApp(t)
	b.SetBigCores(2)
	b.SetBigFreq(1.0)
	b.Place(Placement{ThreadsBig: 4, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	// Settle well below every real threshold first.
	s := b.Run(w, 4*time.Second)
	if s.Throttled || s.EmergencyEvents != 0 {
		t.Fatalf("operating point not safe before forcing (events=%d)", s.EmergencyEvents)
	}

	b.ForceEmergencyThrottle(5 * time.Second)
	for i := 0; i < 10; i++ {
		s = b.Run(w, 500*time.Millisecond)
	}
	if s.EmergencyEvents == 0 || !s.Throttled {
		t.Fatalf("forced violation did not engage the firmware (events=%d)", s.EmergencyEvents)
	}
	if b.EffectiveBigFreq() >= 1.0 {
		t.Fatalf("forced thermal emergency did not cap the big cluster (eff=%v)", b.EffectiveBigFreq())
	}
	capped := b.EffectiveBigFreq()

	// After the forced window the real temperature is still safe, so the cap
	// must release gradually and fully recover.
	released := false
	for i := 0; i < 60; i++ {
		s = b.Run(w, 500*time.Millisecond)
		if !s.Throttled {
			released = true
			break
		}
	}
	if !released {
		t.Fatalf("cap never released after the forced window (eff=%v)", b.EffectiveBigFreq())
	}
	if b.EffectiveBigFreq() <= capped {
		t.Fatal("effective frequency did not recover after release")
	}
	if got := b.EffectiveBigFreq(); got != 1.0 {
		t.Fatalf("effective frequency %v after recovery, want the requested 1.0", got)
	}
}

func TestForcedThrottleShorterThanHoldIsIgnored(t *testing.T) {
	// The firmware needs a sustained violation: a forced event shorter than
	// EmergencyHold must not trip it.
	cfg := DefaultConfig()
	b := New(cfg)
	w := hotApp(t)
	b.SetBigCores(2)
	b.SetBigFreq(1.0)
	b.Place(Placement{ThreadsBig: 4, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	b.Run(w, 4*time.Second)

	b.ForceEmergencyThrottle(cfg.EmergencyHold / 2)
	var s Sensors
	for i := 0; i < 10; i++ {
		s = b.Run(w, 500*time.Millisecond)
	}
	if s.EmergencyEvents != 0 || s.Throttled {
		t.Fatalf("sub-hold forced event tripped the firmware (events=%d)", s.EmergencyEvents)
	}
	// Non-positive durations are ignored outright.
	b.ForceEmergencyThrottle(0)
	b.ForceEmergencyThrottle(-time.Second)
	if s = b.Run(w, time.Second); s.EmergencyEvents != 0 {
		t.Fatal("non-positive forced duration tripped the firmware")
	}
}

func TestForcedThrottleDurationsAccumulate(t *testing.T) {
	// Two forced events whose union is sustained must engage even though each
	// alone is shorter than the hold.
	cfg := DefaultConfig()
	b := New(cfg)
	w := hotApp(t)
	b.SetBigCores(2)
	b.SetBigFreq(1.0)
	b.Place(Placement{ThreadsBig: 4, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	b.Run(w, 4*time.Second)

	b.ForceEmergencyThrottle(600 * time.Millisecond)
	b.ForceEmergencyThrottle(600 * time.Millisecond)
	var s Sensors
	for i := 0; i < 6; i++ {
		s = b.Run(w, 500*time.Millisecond)
	}
	if s.EmergencyEvents == 0 {
		t.Fatal("back-to-back forced events did not accumulate into a sustained violation")
	}
}
