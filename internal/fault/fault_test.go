package fault

import (
	"math"
	"testing"
	"time"

	"yukta/internal/board"
	"yukta/internal/workload"
)

// tapTrace runs n synthetic sensor intervals through a fresh injector and
// returns the observed readings.
func tapTrace(p Plan, key string, n int) []board.Sensors {
	in := p.NewInjector(key)
	out := make([]board.Sensors, n)
	for i := range out {
		out[i] = in.TapSensors(board.Sensors{
			TimeS: float64(i), BigPowerW: 2.5, LittlePowerW: 0.25,
			TempC: 65, BIPS: 4, BIPSBig: 3, BIPSLittle: 1,
		})
	}
	return out
}

func sensorsEqual(a, b board.Sensors) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(a.BigPowerW, b.BigPowerW) && eq(a.LittlePowerW, b.LittlePowerW) &&
		eq(a.TempC, b.TempC) && eq(a.BIPS, b.BIPS) &&
		eq(a.BIPSBig, b.BIPSBig) && eq(a.BIPSLittle, b.BIPSLittle)
}

func TestInjectorSensorSequenceDeterministic(t *testing.T) {
	p := Preset(42, 1)
	a := tapTrace(p, "ssv|mcf", 300)
	b := tapTrace(p, "ssv|mcf", 300)
	for i := range a {
		if !sensorsEqual(a[i], b[i]) {
			t.Fatalf("interval %d: %+v vs %+v — sensor faults not deterministic", i, a[i], b[i])
		}
	}
	c := tapTrace(p, "lqg|mcf", 300)
	same := true
	for i := range a {
		if !sensorsEqual(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different run keys produced identical fault sequences")
	}
}

func TestInjectorDropoutAndStale(t *testing.T) {
	p := Plan{Seed: 1, Dropout: DropoutFault{DropProb: 0.2, StaleProb: 0.2, MaxStale: 3}}
	in := p.NewInjector("k")
	drops, stales := 0, 0
	for i := 0; i < 500; i++ {
		s := in.TapSensors(board.Sensors{BigPowerW: float64(i), LittlePowerW: float64(i) / 10})
		if math.IsNaN(s.BigPowerW) {
			if !math.IsNaN(s.LittlePowerW) {
				t.Fatal("dropout must lose both power readings")
			}
			drops++
		} else if s.BigPowerW != float64(i) {
			if s.BigPowerW >= float64(i) {
				t.Fatalf("stale reading %v is not from an earlier window (i=%d)", s.BigPowerW, i)
			}
			stales++
		}
	}
	st := in.Stats()
	if drops == 0 || stales == 0 {
		t.Fatalf("expected both drops and stales, got %d/%d", drops, stales)
	}
	if st.DroppedReadings != drops || st.StaleReadings != stales {
		t.Fatalf("stats %+v disagree with observed %d drops / %d stales", st, drops, stales)
	}
}

func TestInjectorActuatorFaultsStayOnGrid(t *testing.T) {
	p := Plan{Seed: 9, Actuator: ActuatorFault{HoldProb: 0.3, FreqStepProb: 0.3, CoreOffProb: 0.3}}
	in := p.NewInjector("k")
	held, skewed := 0, 0
	for i := 0; i < 400; i++ {
		got := in.TapBigFreq(1.5, 1.0, 0.1)
		switch got {
		case 1.0:
			held++
		case 1.4, 1.6:
			skewed++
		case 1.5:
		default:
			t.Fatalf("freq tap returned off-grid value %v", got)
		}
		n := in.TapBigCores(3, 2)
		if n < 2 || n > 4 {
			t.Fatalf("core tap returned %d for request 3 (current 2)", n)
		}
	}
	if held == 0 || skewed == 0 {
		t.Fatalf("expected both holds and skews, got %d/%d", held, skewed)
	}
	st := in.Stats()
	if st.HeldCommands == 0 || st.SkewedCommands == 0 {
		t.Fatalf("stats not counting actuator faults: %+v", st)
	}
	// An already-satisfied command must never be perturbed.
	for i := 0; i < 100; i++ {
		if got := in.TapLittleFreq(0.8, 0.8, 0.1); got != 0.8 {
			t.Fatalf("no-op write perturbed to %v", got)
		}
	}
}

func TestInjectorForcedThrottleSchedule(t *testing.T) {
	p := Plan{Seed: 4, Thermal: ThermalFault{MeanPeriodS: 2, DurationS: 0.5}}
	in := p.NewInjector("k")
	b := board.New(board.DefaultConfig())
	w, err := workload.NewApp("idle", 1e9, []workload.Phase{
		{WorkFrac: 1, Threads: 1, MemBound: 0.2, IPCBig: 1, IPCLittle: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for b.TimeS() < 30 {
		in.Advance(b)
		b.Run(w, 500*time.Millisecond)
	}
	if got := in.Stats().ForcedThrottles; got < 5 {
		t.Fatalf("expected ≈15 forced events over 30 s with mean period 2 s, got %d", got)
	}

	// A plan with no thermal class must never force events.
	in2 := (Plan{Seed: 4}).NewInjector("k")
	in2.Advance(b)
	if in2.Stats().ForcedThrottles != 0 {
		t.Fatal("empty plan forced a throttle event")
	}
}

func TestPresetScalingAndEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	if Preset(1, 0).Enabled() {
		t.Fatal("intensity-0 preset reports enabled")
	}
	half, full := Preset(1, 0.5), Preset(1, 1)
	if !half.Enabled() || !full.Enabled() {
		t.Fatal("nonzero presets report disabled")
	}
	if half.Noise.PowerStdW >= full.Noise.PowerStdW {
		t.Fatal("noise magnitude not increasing with intensity")
	}
	if half.Thermal.MeanPeriodS <= full.Thermal.MeanPeriodS {
		t.Fatal("thermal event rate not increasing with intensity")
	}
}

func TestPlanDisturbWrapsDeterministically(t *testing.T) {
	mk := func() workload.Workload {
		w, err := workload.NewApp("app", 100, []workload.Phase{
			{WorkFrac: 1, Threads: 8, MemBound: 0.2, IPCBig: 1.5, IPCLittle: 0.7},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	p := Preset(7, 1)
	trace := func() []int {
		dw := p.Disturb(mk(), "ssv|app")
		out := make([]int, 120)
		for i := range out {
			out[i] = dw.Profile().Threads
			dw.Advance(1)
		}
		return out
	}
	a, b := trace(), trace()
	perturbed := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %d vs %d — phase disturbance not deterministic", i, a[i], b[i])
		}
		if a[i] != 8 {
			perturbed = true
		}
	}
	if !perturbed {
		t.Fatal("full-intensity preset never perturbed the profile over 120 G work")
	}
	if w := (Plan{Seed: 7}).Disturb(mk(), "k"); w.Name() != "app" {
		t.Fatal("empty plan Disturb should pass the workload through")
	}
	if _, ok := (Plan{Seed: 7}).Disturb(mk(), "k").(*workload.Disturbed); ok {
		t.Fatal("empty plan Disturb should not wrap")
	}
}

// TestEndToEndBoardWithTaps attaches an injector to a real board and checks
// the whole faulted sensor/actuator path reproduces byte-identically.
func TestEndToEndBoardWithTaps(t *testing.T) {
	run := func() ([]board.Sensors, Stats) {
		p := Preset(99, 1)
		in := p.NewInjector("heur|app")
		w, err := workload.NewApp("app", 1e9, []workload.Phase{
			{WorkFrac: 1, Threads: 8, MemBound: 0.3, IPCBig: 1.5, IPCLittle: 0.7},
		})
		if err != nil {
			t.Fatal(err)
		}
		b := board.New(board.DefaultConfig())
		b.AttachSensorTap(in)
		b.AttachActuatorTap(in)
		var trace []board.Sensors
		freq := 1.0
		for i := 0; i < 60; i++ {
			in.Advance(b)
			b.SetBigFreq(freq)
			b.SetBigCores(1 + i%4)
			freq += 0.1
			if freq > 2.0 {
				freq = 1.0
			}
			trace = append(trace, b.Run(w, 500*time.Millisecond))
		}
		return trace, in.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", sa, sb)
	}
	if sa.HeldCommands == 0 && sa.SkewedCommands == 0 {
		t.Fatalf("no actuator faults delivered end-to-end: %+v", sa)
	}
	for i := range a {
		if !sensorsEqual(a[i], b[i]) {
			t.Fatalf("interval %d differs across identical runs", i)
		}
	}
}
