// Package fault is the deterministic fault-injection layer of the
// robustness experiments (DESIGN.md "Fault model & robustness methodology").
// A Plan declares which fault classes are active and how intense they are; a
// per-run Injector, derived from the plan's seed and the run's identity,
// corrupts the board's sensor and actuator paths through the board package's
// SensorTap/ActuatorTap hooks, schedules forced firmware emergency-throttle
// events, and perturbs the workload's phase structure.
//
// Determinism is the design center: every Injector owns private RNG streams
// (one per fault class) seeded from (Plan.Seed, run key), so a given
// (plan, scheme, app) run sees a byte-identical fault sequence no matter how
// many experiment workers run concurrently or in what order the scheduler
// interleaves them. Nothing in this package shares mutable state between
// runs.
package fault

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"yukta/internal/board"
	"yukta/internal/workload"
)

// NoiseFault adds zero-mean Gaussian noise to the sensor view a controller
// receives, with occasional burst episodes during which the noise is
// amplified (modeling supply transients coupling into the INA231 sense
// lines).
type NoiseFault struct {
	// PowerStdW is the noise std on the big-cluster power reading, in
	// watts; the little-cluster reading gets a tenth of it (its sense
	// resistor sees a tenth of the current).
	PowerStdW float64
	// TempStdC is the noise std on the temperature reading, in °C.
	TempStdC float64
	// PerfStdFrac is the relative noise std on the three BIPS counters
	// (perf-counter multiplexing error).
	PerfStdFrac float64
	// BurstProb is the per-interval probability that a burst episode
	// starts; during a burst every noise draw is scaled by BurstGain for
	// BurstLen intervals.
	BurstProb float64
	// BurstGain is the noise amplification during a burst.
	BurstGain float64
	// BurstLen is the burst length in control intervals.
	BurstLen int
}

// DropoutFault drops or latches the power-sensor readings, modeling the
// 260 ms sensor-refresh latency jittering past a control interval (stale)
// and outright failed reads (dropped).
type DropoutFault struct {
	// DropProb is the per-interval probability that both power readings
	// are lost; the controller observes NaN.
	DropProb float64
	// StaleProb is the per-interval probability that a staleness episode
	// starts: the previously delivered readings are re-delivered for
	// 1..MaxStale intervals.
	StaleProb float64
	// MaxStale bounds the length of a staleness episode, in intervals.
	MaxStale int
}

// ActuatorFault perturbs the DVFS/hotplug command path.
type ActuatorFault struct {
	// HoldProb is the per-write probability that the command is not
	// applied this interval and the actuator keeps its current value — a
	// lost cpufreq/hotplug write, equivalently a one-interval actuator
	// lag (the controller reissues its command next interval).
	HoldProb float64
	// FreqStepProb is the per-write probability that a DVFS command lands
	// one step away from the requested operating point (quantization
	// error in the firmware's table lookup).
	FreqStepProb float64
	// CoreOffProb is the per-write probability that a hotplug command
	// lands one core away from the requested count.
	CoreOffProb float64
}

// ThermalFault schedules forced firmware emergency-throttle events: for the
// event's duration the TMU treats the thermal path as violated regardless
// of the real hot-spot temperature (a misreading thermal diode, or an
// externally imposed thermal cap).
type ThermalFault struct {
	// MeanPeriodS is the mean simulated time between events, in seconds;
	// inter-arrival gaps are exponential.
	MeanPeriodS float64
	// DurationS is the forced-violation duration per event, in seconds.
	DurationS float64
}

// Plan declares a fault-injection campaign. The zero value injects nothing.
// A Plan is an immutable description: the same Plan value may be shared by
// any number of concurrent runs, each deriving its own Injector.
type Plan struct {
	// Seed is the campaign's base seed. Every run derives independent
	// per-class RNG streams from (Seed, run key), so a fixed seed gives a
	// byte-identical fault sequence per run at any experiment parallelism.
	Seed int64

	// Noise configures Gaussian/burst sensor noise.
	Noise NoiseFault
	// Dropout configures dropped and stale power-sensor readings.
	Dropout DropoutFault
	// Actuator configures lag and quantization error on DVFS/hotplug
	// commands.
	Actuator ActuatorFault
	// Thermal configures forced TMU emergency-throttle events.
	Thermal ThermalFault
	// Phase configures mid-run workload phase disturbances (executed by
	// workload.Disturbed).
	Phase workload.Disturbance
}

// Enabled reports whether any fault class would inject anything.
func (p Plan) Enabled() bool {
	return p.Noise != (NoiseFault{}) || p.Dropout != (DropoutFault{}) ||
		p.Actuator != (ActuatorFault{}) || p.Thermal != (ThermalFault{}) ||
		p.Phase != (workload.Disturbance{})
}

// Preset returns the calibrated fault plan at intensity s, the knob the
// robustness sweep turns. Intensity 0 returns the empty plan; intensity 1 is
// the harshest point of the sweep (see DESIGN.md for the calibration
// rationale per class). Probabilities and magnitudes scale linearly with s.
func Preset(seed int64, s float64) Plan {
	if s <= 0 {
		return Plan{Seed: seed}
	}
	return Plan{
		Seed: seed,
		Noise: NoiseFault{
			PowerStdW:   0.2 * s,
			TempStdC:    0.2 * s,
			PerfStdFrac: 0.03 * s,
			BurstProb:   0.02 * s,
			BurstGain:   3,
			BurstLen:    4,
		},
		Dropout: DropoutFault{
			DropProb:  0.08 * s,
			StaleProb: 0.12 * s,
			MaxStale:  3,
		},
		Actuator: ActuatorFault{
			HoldProb:     0.15 * s,
			FreqStepProb: 0.15 * s,
			CoreOffProb:  0.05 * s,
		},
		Thermal: ThermalFault{
			MeanPeriodS: 50 / s,
			DurationS:   3 * s,
		},
		Phase: workload.Disturbance{
			MeanPeriodG: 400 / s,
			DurationG:   40,
			ThreadFrac:  1 - float64(0.1*s),
			MemBoundAdd: 0.15 * s,
		},
	}
}

// Stats counts the faults an Injector actually delivered during one run.
type Stats struct {
	// DroppedReadings counts intervals whose power readings were lost.
	DroppedReadings int
	// StaleReadings counts intervals whose power readings were re-delivered
	// from an earlier window.
	StaleReadings int
	// HeldCommands counts actuator writes that were ignored (lag).
	HeldCommands int
	// SkewedCommands counts actuator writes that landed off the requested
	// level (quantization error).
	SkewedCommands int
	// ForcedThrottles counts forced TMU emergency-throttle events.
	ForcedThrottles int
}

// Injector applies one run's fault sequence. It implements the board
// package's SensorTap and ActuatorTap interfaces and schedules thermal
// events through Advance. An Injector belongs to exactly one run (one
// board) and is not safe for concurrent use — which is the point: per-run
// ownership is what makes the fault sequence independent of experiment
// parallelism.
type Injector struct {
	plan Plan

	// Independent streams per fault class, so one class's draw count never
	// perturbs another class's sequence.
	noiseRNG, dropRNG, actRNG, thermRNG *rand.Rand

	// Sensor-path state.
	burstLeft          int
	staleLeft          int
	staleBig, staleLit float64
	prevBig, prevLit   float64
	havePrev           bool

	// Thermal-event schedule.
	nextEventS float64

	stats Stats
}

// RunKey builds the canonical run key for a (scheme, app) pair, optionally
// qualified by a fleet board index. The separator is a NUL byte, which
// neither scheme names nor app names contain, so the encoding is injective:
// distinct pairs can never alias to the same key (a plain "|" separator
// would let ("x|y", "z") and ("x", "y|z") collide and share fault streams).
//
// Fleet runs pass the board's index so N boards running the same
// (scheme, app) draw N independent fault streams. Board 0 (or an absent
// index) encodes identically to the historical two-argument key, preserving
// common-random-numbers pairing between a fleet's board 0 and the solo run
// of the same (scheme, app) — and keeping every previously recorded fault
// sequence byte-identical. Non-zero indices append a NUL-separated decimal
// suffix, which cannot collide with any (scheme, app) pair whose names are
// NUL-free.
func RunKey(scheme, app string, boardIndex ...int) string {
	key := scheme + "\x00" + app
	for _, idx := range boardIndex {
		if idx != 0 {
			key += "\x00" + strconv.Itoa(idx)
		}
	}
	return key
}

// RunKeyPath builds the run key for a board inside a hierarchical fleet:
// nodePath is the board's leaf coordinator path in the topology tree and
// boardIndex its leaf-local index. An empty path encodes identically to
// RunKey(scheme, app, boardIndex), so a one-level tree's boards draw
// byte-identical fault streams to the flat fleet (and board 0 keeps its
// common-random-numbers pairing with the solo run). A non-empty path is
// appended as a NUL-separated "@"-prefixed segment: topology node paths
// never contain NUL ("/"-joined IDs from a NUL-free charset) and never
// start with "@", while flat keys' trailing segments are pure decimal board
// indices — so tree keys can alias neither a flat key nor a tree key from
// a different (path, index) pair.
func RunKeyPath(scheme, app, nodePath string, boardIndex int) string {
	if nodePath == "" {
		return RunKey(scheme, app, boardIndex)
	}
	key := scheme + "\x00" + app + "\x00@" + nodePath
	if boardIndex != 0 {
		key += "\x00" + strconv.Itoa(boardIndex)
	}
	return key
}

// ClassNames lists the isolated fault-class presets PresetClass accepts, in
// the order the per-class tables report them, plus the combined "all".
func ClassNames() []string {
	return []string{"noise", "dropout", "actuator", "thermal", "phase", "all"}
}

// ValidClass reports whether name is one of the isolated fault-class presets
// PresetClass accepts (see ClassNames). Boundary layers — the serve daemon's
// session-create endpoint — use it to reject unknown classes with an error
// instead of PresetClass's silent empty plan.
func ValidClass(name string) bool {
	for _, c := range ClassNames() {
		if name == c {
			return true
		}
	}
	return false
}

// PresetClass returns the Preset plan at intensity s restricted to a single
// fault class ("all" returns the full preset; see ClassNames). Unknown class
// names return the empty plan. Isolating classes is how the supervised
// degradation table attributes wins and losses per failure mode.
func PresetClass(seed int64, s float64, class string) Plan {
	full := Preset(seed, s)
	out := Plan{Seed: seed}
	switch class {
	case "noise":
		out.Noise = full.Noise
	case "dropout":
		out.Dropout = full.Dropout
	case "actuator":
		out.Actuator = full.Actuator
	case "thermal":
		out.Thermal = full.Thermal
	case "phase":
		out.Phase = full.Phase
	case "all":
		return full
	}
	return out
}

// derive builds a per-class seed from the plan seed, the run key and a
// class tag, via FNV-1a.
func derive(seed int64, runKey string, class string) int64 {
	h := fnv.New64a()
	h.Write([]byte(runKey))
	h.Write([]byte{0})
	h.Write([]byte(class))
	return seed ^ int64(h.Sum64())
}

// NewInjector derives the run's injector from the plan seed and the run key
// (conventionally RunKey(scheme, app)). Equal (plan, key) pairs yield
// identical fault sequences.
func (p Plan) NewInjector(runKey string) *Injector {
	in := &Injector{
		plan:     p,
		noiseRNG: rand.New(rand.NewSource(derive(p.Seed, runKey, "noise"))),
		dropRNG:  rand.New(rand.NewSource(derive(p.Seed, runKey, "dropout"))),
		actRNG:   rand.New(rand.NewSource(derive(p.Seed, runKey, "actuator"))),
		thermRNG: rand.New(rand.NewSource(derive(p.Seed, runKey, "thermal"))),
	}
	if p.Thermal.MeanPeriodS > 0 && p.Thermal.DurationS > 0 {
		in.nextEventS = in.thermRNG.ExpFloat64() * p.Thermal.MeanPeriodS
	} else {
		in.nextEventS = math.Inf(1)
	}
	return in
}

// Disturb wraps w with the plan's workload phase disturbance, seeded from
// the same (seed, run key) derivation as the injector streams. A plan with
// no phase class returns w unchanged.
func (p Plan) Disturb(w workload.Workload, runKey string) workload.Workload {
	if p.Phase == (workload.Disturbance{}) {
		return w
	}
	return workload.NewDisturbed(w, p.Phase, derive(p.Seed, runKey, "phase"))
}

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// Advance runs the thermal-event schedule up to the board's current time.
// The runner calls it once per control interval, before stepping the board.
func (in *Injector) Advance(b *board.Board) {
	for b.TimeS() >= in.nextEventS {
		b.ForceEmergencyThrottle(time.Duration(in.plan.Thermal.DurationS * float64(time.Second)))
		in.stats.ForcedThrottles++
		in.nextEventS += in.plan.Thermal.DurationS + float64(in.thermRNG.ExpFloat64()*in.plan.Thermal.MeanPeriodS)
	}
}

// TapSensors implements board.SensorTap: Gaussian/burst noise on every
// reading, then dropout/staleness on the power readings.
func (in *Injector) TapSensors(s board.Sensors) board.Sensors {
	n := in.plan.Noise
	gain := 1.0
	if n.BurstProb > 0 {
		if in.burstLeft > 0 {
			in.burstLeft--
			gain = n.BurstGain
		} else if in.noiseRNG.Float64() < n.BurstProb {
			in.burstLeft = n.BurstLen - 1
			gain = n.BurstGain
		}
	}
	if n.PowerStdW > 0 {
		s.BigPowerW = math.Max(0, s.BigPowerW+float64(in.noiseRNG.NormFloat64()*n.PowerStdW*gain))
		s.LittlePowerW = math.Max(0, s.LittlePowerW+in.noiseRNG.NormFloat64()*n.PowerStdW*gain/10)
	}
	if n.TempStdC > 0 {
		s.TempC += float64(in.noiseRNG.NormFloat64() * n.TempStdC * gain)
	}
	if n.PerfStdFrac > 0 {
		s.BIPS = math.Max(0, s.BIPS*(1+float64(in.noiseRNG.NormFloat64()*n.PerfStdFrac*gain)))
		s.BIPSBig = math.Max(0, s.BIPSBig*(1+float64(in.noiseRNG.NormFloat64()*n.PerfStdFrac*gain)))
		s.BIPSLittle = math.Max(0, s.BIPSLittle*(1+float64(in.noiseRNG.NormFloat64()*n.PerfStdFrac*gain)))
	}

	d := in.plan.Dropout
	switch {
	case in.staleLeft > 0:
		in.staleLeft--
		s.BigPowerW, s.LittlePowerW = in.staleBig, in.staleLit
		in.stats.StaleReadings++
	case d.DropProb > 0 && in.dropRNG.Float64() < d.DropProb:
		s.BigPowerW, s.LittlePowerW = math.NaN(), math.NaN()
		in.stats.DroppedReadings++
	case d.StaleProb > 0 && in.havePrev && in.dropRNG.Float64() < d.StaleProb:
		in.staleLeft = in.dropRNG.Intn(maxInt(d.MaxStale, 1))
		in.staleBig, in.staleLit = in.prevBig, in.prevLit
		s.BigPowerW, s.LittlePowerW = in.prevBig, in.prevLit
		in.stats.StaleReadings++
	}
	if !math.IsNaN(s.BigPowerW) {
		in.prevBig, in.prevLit = s.BigPowerW, s.LittlePowerW
		in.havePrev = true
	}
	return s
}

// tapLevel applies the hold/offset command faults shared by all four
// actuator channels; step is the channel's level granularity.
func (in *Injector) tapLevel(requested, current, step float64, offProb float64) float64 {
	a := in.plan.Actuator
	if requested == current {
		return requested
	}
	if a.HoldProb > 0 && in.actRNG.Float64() < a.HoldProb {
		in.stats.HeldCommands++
		return current
	}
	if offProb > 0 && in.actRNG.Float64() < offProb {
		in.stats.SkewedCommands++
		if in.actRNG.Float64() < 0.5 {
			return requested - step
		}
		return requested + step
	}
	return requested
}

// TapBigCores implements board.ActuatorTap.
func (in *Injector) TapBigCores(requested, current int) int {
	return int(in.tapLevel(float64(requested), float64(current), 1, in.plan.Actuator.CoreOffProb))
}

// TapLittleCores implements board.ActuatorTap.
func (in *Injector) TapLittleCores(requested, current int) int {
	return int(in.tapLevel(float64(requested), float64(current), 1, in.plan.Actuator.CoreOffProb))
}

// TapBigFreq implements board.ActuatorTap.
func (in *Injector) TapBigFreq(requested, current, step float64) float64 {
	return in.tapLevel(requested, current, step, in.plan.Actuator.FreqStepProb)
}

// TapLittleFreq implements board.ActuatorTap.
func (in *Injector) TapLittleFreq(requested, current, step float64) float64 {
	return in.tapLevel(requested, current, step, in.plan.Actuator.FreqStepProb)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
