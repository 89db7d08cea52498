package board

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"yukta/internal/workload"
)

// Placement is the thread-scheduling decision the OS layer actuates on: how
// many threads go to the big cluster (the rest run on the little cluster)
// and the average number of threads packed onto each non-idle core of each
// cluster (paper Table III).
type Placement struct {
	// ThreadsBig is the number of threads assigned to the big cluster.
	ThreadsBig int
	// ThreadsLittle records the OS layer's intent for the little cluster;
	// the physics derives the actual little-cluster load from the workload's
	// runnable threads minus ThreadsBig, but hardware controllers read this
	// field as the coordination signal.
	ThreadsLittle int
	// ThreadsPerBigCore is the average thread packing per busy big core.
	ThreadsPerBigCore float64
	// ThreadsPerLittleCore is the average packing per busy little core.
	ThreadsPerLittleCore float64
}

// Sensors is what the board exposes to controllers at a control interval:
// the 260 ms power sensor readings, the hot-spot temperature, and
// perf-counter instruction rates accumulated since the previous control
// invocation.
type Sensors struct {
	// TimeS is the simulated wall-clock time of the reading, in seconds.
	TimeS float64

	// BigPowerW and LittlePowerW are the held values of the power sensors
	// (they update every Config.PowerSensorPeriod). Under fault injection a
	// dropped reading is reported as NaN and a stale reading repeats an
	// earlier window's value.
	BigPowerW, LittlePowerW float64

	// TempC is the hot-spot temperature reading in °C.
	TempC float64

	// BIPS values are derived from performance counters over the last
	// control interval.
	BIPS, BIPSBig, BIPSLittle float64

	// Throttled reports whether firmware emergency throttling is currently
	// engaged on either cluster.
	Throttled bool

	// ThermalThrottled reports whether specifically the thermal emergency
	// path is engaged (the per-path trip state is readable on real boards via
	// the cooling-device sysfs). A thermal emergency reported while the
	// temperature reading is cool is the signature of a misreading diode or
	// an externally forced cap — the supervisory layer keys on exactly that
	// inconsistency.
	ThermalThrottled bool

	// EmergencyEvents counts firmware emergency activations so far.
	EmergencyEvents int

	// PowerCapW is the board power budget currently imposed by the fleet
	// layer (0 = uncapped). It is part of the sensor vocabulary so fleet
	// budget policies and per-board controllers read the same view.
	PowerCapW float64

	// BudgetThrottled reports whether the budget governor is holding the
	// big-cluster frequency ceiling below maximum to enforce PowerCapW.
	// Distinct from Throttled: budget capping is an expected, externally
	// imposed constraint, not a firmware emergency.
	BudgetThrottled bool
}

// SensorTap intercepts the sensor view a controller receives at the end of
// a control interval. The board's internal physics and latched sensor state
// are never modified — only the Sensors struct handed to the caller of Run
// passes through the tap. The fault-injection layer uses this to model
// noisy, dropped and stale sensor readings (DESIGN.md "Fault model").
type SensorTap interface {
	// TapSensors receives the clean sensor view and returns the (possibly
	// corrupted) view the controller will observe.
	TapSensors(s Sensors) Sensors
}

// ActuatorTap intercepts actuator writes on their way to the board, so a
// fault layer can model lagging, lost or misapplied DVFS/hotplug commands.
// Each method receives the requested value (already clamped/quantized to the
// actuator's grid), the value currently in effect, and — for frequencies —
// the DVFS step size; it returns the value that actually takes effect. The
// board re-clamps and re-quantizes the returned value, so a tap can never
// drive an actuator outside its physical range; a non-finite frequency from
// a tap leaves the frequency in effect unchanged and counts as an actuator
// mismatch.
type ActuatorTap interface {
	// TapBigCores intercepts big-cluster hotplug writes.
	TapBigCores(requested, current int) int
	// TapLittleCores intercepts little-cluster hotplug writes.
	TapLittleCores(requested, current int) int
	// TapBigFreq intercepts big-cluster DVFS writes (GHz).
	TapBigFreq(requested, current, step float64) float64
	// TapLittleFreq intercepts little-cluster DVFS writes (GHz).
	TapLittleFreq(requested, current, step float64) float64
}

// Board is a simulated ODROID XU3.
type Board struct {
	cfg Config

	// Actuator state (what cpufreq/hotplug files would hold).
	bigCores, littleCores int
	bigFreq, littleFreq   float64
	place                 Placement

	// Physics state.
	tempC   float64
	nowS    float64
	energyJ float64

	// Sensor state.
	sensedBigW, sensedLittleW float64
	windowBigE, windowLittleE float64 // energy in current sensor window
	windowStartS              float64

	// Perf counters.
	instTotal, instBig, instLittle float64 // Ginst, cumulative

	// Migration bookkeeping.
	migStallS float64

	noise *rand.Rand

	// Fault-injection taps (nil = clean board).
	sensorTap SensorTap
	actTap    ActuatorTap

	// actMismatches counts actuator writes whose applied value differed from
	// the requested one (see ActuatorMismatches).
	actMismatches int

	tmu    tmu
	budget budget

	// Operating-point cache: opBig and opLittle were computed from opKey
	// (valid once opValid is set); Run recomputes them when the key changes.
	opKey           opKey
	opBig, opLittle opPoint
	opValid         bool
}

// New returns a board in its power-on state: all cores online at maximum
// frequency, ambient temperature.
func New(cfg Config) *Board {
	b := &Board{
		cfg:         cfg,
		bigCores:    cfg.Big.MaxCores,
		littleCores: cfg.Little.MaxCores,
		bigFreq:     cfg.Big.FreqMaxGHz,
		littleFreq:  cfg.Little.FreqMaxGHz,
		tempC:       cfg.AmbientC,
		place: Placement{
			ThreadsBig:           0,
			ThreadsPerBigCore:    1,
			ThreadsPerLittleCore: 1,
		},
	}
	if cfg.SensorNoiseStd > 0 {
		b.noise = rand.New(rand.NewSource(cfg.SensorNoiseSeed + 1))
	}
	b.tmu = newTMU(cfg)
	b.budget = newBudget(cfg)
	return b
}

// Config returns the board's configuration.
func (b *Board) Config() Config { return b.cfg }

// AttachSensorTap installs t on the sensor read path (nil detaches). The tap
// sees every Sensors struct Run returns, in order, exactly once per control
// interval.
func (b *Board) AttachSensorTap(t SensorTap) { b.sensorTap = t }

// AttachActuatorTap installs t on the actuator write path (nil detaches).
// The tap sees every SetBigCores/SetLittleCores/SetBigFreq/SetLittleFreq
// call, in call order.
func (b *Board) AttachActuatorTap(t ActuatorTap) { b.actTap = t }

// ForceEmergencyThrottle makes the firmware treat the next d of simulated
// time as a sustained thermal violation, regardless of the actual hot-spot
// temperature — the fault model's forced TMU emergency-throttle event. The
// usual firmware dynamics apply: the violation must persist for
// EmergencyHold before the cap engages, and after the forced window passes
// (and the real temperature is safe) the cap releases one step at a time.
func (b *Board) ForceEmergencyThrottle(d time.Duration) {
	if d > 0 {
		b.tmu.forcedS += d.Seconds()
	}
}

// quantizeFreq clamps f into the cluster's range and rounds to the step grid.
// A non-finite f is rejected the way cpufreq rejects an unparsable write:
// the result is cur, the frequency already in effect.
func quantizeFreq(c ClusterConfig, f, cur float64) float64 {
	if !finite(f) {
		return cur
	}
	if f < c.FreqMinGHz {
		f = c.FreqMinGHz
	}
	if f > c.FreqMaxGHz {
		f = c.FreqMaxGHz
	}
	steps := math.Round((f - c.FreqMinGHz) / c.FreqStepGHz)
	// Round to a clean multiple: operating points are exact firmware table
	// entries, not accumulated floating-point sums.
	return math.Round((c.FreqMinGHz+float64(steps*c.FreqStepGHz))*1e6) / 1e6
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// SetBigCores hotplugs the big cluster to n cores (1..4).
func (b *Board) SetBigCores(n int) {
	r := clampInt(n, 1, b.cfg.Big.MaxCores)
	n = r
	if b.actTap != nil {
		n = clampInt(b.actTap.TapBigCores(n, b.bigCores), 1, b.cfg.Big.MaxCores)
	}
	if n != r {
		b.actMismatches++
	}
	b.bigCores = n
}

// SetLittleCores hotplugs the little cluster to n cores (1..4).
func (b *Board) SetLittleCores(n int) {
	r := clampInt(n, 1, b.cfg.Little.MaxCores)
	n = r
	if b.actTap != nil {
		n = clampInt(b.actTap.TapLittleCores(n, b.littleCores), 1, b.cfg.Little.MaxCores)
	}
	if n != r {
		b.actMismatches++
	}
	b.littleCores = n
}

// SetBigFreq requests a big-cluster frequency in GHz; the value is clamped
// and quantized to the DVFS grid, and a non-finite value leaves the
// frequency unchanged. An actual change stalls the board briefly (the PLL
// relock / voltage ramp of a real cpufreq transition).
func (b *Board) SetBigFreq(ghz float64) {
	r := quantizeFreq(b.cfg.Big, ghz, b.bigFreq)
	f, ok := r, true
	if b.actTap != nil {
		t := b.actTap.TapBigFreq(f, b.bigFreq, b.cfg.Big.FreqStepGHz)
		f, ok = quantizeFreq(b.cfg.Big, t, b.bigFreq), finite(t)
	}
	if f != r || !ok {
		b.actMismatches++
	}
	if f != b.bigFreq {
		b.migStallS += b.cfg.DVFSTransition.Seconds()
	}
	b.bigFreq = f
}

// SetLittleFreq requests a little-cluster frequency in GHz.
func (b *Board) SetLittleFreq(ghz float64) {
	r := quantizeFreq(b.cfg.Little, ghz, b.littleFreq)
	f, ok := r, true
	if b.actTap != nil {
		t := b.actTap.TapLittleFreq(f, b.littleFreq, b.cfg.Little.FreqStepGHz)
		f, ok = quantizeFreq(b.cfg.Little, t, b.littleFreq), finite(t)
	}
	if f != r || !ok {
		b.actMismatches++
	}
	if f != b.littleFreq {
		b.migStallS += b.cfg.DVFSTransition.Seconds()
	}
	b.littleFreq = f
}

// ActuatorMismatches counts actuator writes whose applied value differed
// from the (clamped, quantized) requested value — the read-back verification
// a real governor performs against sysfs after each write. On a clean board
// the applied value is the requested value by construction, so a non-zero
// delta across a control interval is positive evidence of an actuation
// fault (a lost or misapplied DVFS/hotplug command).
func (b *Board) ActuatorMismatches() int { return b.actMismatches }

// ActuatorState is a read-only snapshot of the board's operating point:
// the commanded (requested) actuator settings next to the applied
// (effective, post-firmware-cap) ones, plus the thread placement split. The
// flight recorder captures one per control interval — the commanded/applied
// divergence is how firmware overrides show up in a trace.
type ActuatorState struct {
	// BigCores and LittleCores are the hotplug states per cluster.
	BigCores, LittleCores int
	// BigFreqGHz and LittleFreqGHz are the requested frequencies (GHz).
	BigFreqGHz, LittleFreqGHz float64
	// EffBigFreqGHz and EffLittleFreqGHz are the applied frequencies after
	// firmware throttle caps (GHz).
	EffBigFreqGHz, EffLittleFreqGHz float64
	// ThreadsBig is the number of threads placed on the big cluster.
	ThreadsBig int
}

// ActuatorState snapshots the commanded-vs-applied operating point.
func (b *Board) ActuatorState() ActuatorState {
	return ActuatorState{
		BigCores:         b.bigCores,
		LittleCores:      b.littleCores,
		BigFreqGHz:       b.bigFreq,
		LittleFreqGHz:    b.littleFreq,
		EffBigFreqGHz:    b.EffectiveBigFreq(),
		EffLittleFreqGHz: b.EffectiveLittleFreq(),
		ThreadsBig:       b.place.ThreadsBig,
	}
}

// BigCores returns the hotplug state of the big cluster.
func (b *Board) BigCores() int { return b.bigCores }

// LittleCores returns the hotplug state of the little cluster.
func (b *Board) LittleCores() int { return b.littleCores }

// BigFreq returns the requested big-cluster frequency (GHz).
func (b *Board) BigFreq() float64 { return b.bigFreq }

// LittleFreq returns the requested little-cluster frequency (GHz).
func (b *Board) LittleFreq() float64 { return b.littleFreq }

// EffectiveBigFreq returns the frequency after firmware throttle caps and
// the fleet budget-governor ceiling (the minimum of all three authorities).
//
// The builtin min has math.Min's NaN and ±0 semantics and compiles inline.
func (b *Board) EffectiveBigFreq() float64 {
	return min(b.bigFreq, b.tmu.bigCap, b.budget.capGHz)
}

// EffectiveLittleFreq returns the little frequency after firmware caps.
func (b *Board) EffectiveLittleFreq() float64 { return min(b.littleFreq, b.tmu.littleCap) }

// Place sets the thread placement. Changing the placement charges the
// migration penalty for every thread whose cluster assignment changes.
func (b *Board) Place(p Placement) {
	// The negated comparisons also catch NaN, whose packing would make the
	// busy-core count platform-defined.
	if !(p.ThreadsPerBigCore >= 1) {
		p.ThreadsPerBigCore = 1
	}
	if !(p.ThreadsPerLittleCore >= 1) {
		p.ThreadsPerLittleCore = 1
	}
	if p.ThreadsBig < 0 {
		p.ThreadsBig = 0
	}
	if p.ThreadsLittle < 0 {
		p.ThreadsLittle = 0
	}
	moved := absInt(p.ThreadsBig - b.place.ThreadsBig)
	b.migStallS += float64(float64(moved) * b.cfg.MigrationPenalty.Seconds())
	b.place = p
}

// ChargeMigrations charges the migration/cache-warmup penalty for n thread
// migrations that occurred without a placement-count change (e.g. a
// round-robin scheduler rotating thread-to-core assignments).
func (b *Board) ChargeMigrations(n int) {
	if n > 0 {
		b.migStallS += float64(float64(n) * b.cfg.MigrationPenalty.Seconds())
	}
}

// Placement returns the current thread placement.
func (b *Board) Placement() Placement { return b.place }

// TimeS returns the simulated wall-clock time in seconds.
func (b *Board) TimeS() float64 { return b.nowS }

// EnergyJ returns the cumulative energy in joules.
func (b *Board) EnergyJ() float64 { return b.energyJ }

// TempC returns the instantaneous hot-spot temperature.
func (b *Board) TempC() float64 { return b.tempC }

// opKey is every input of the two clusters' operating points: the workload
// profile, the effective frequencies, the hotplug state and the placement.
// Leakage also depends on the temperature; Run applies that factor per
// substep on top of the cached points.
type opKey struct {
	prof                  workload.Profile
	fBig, fLittle         float64
	bigCores, littleCores int
	place                 Placement
}

// opPoint is one cluster's temperature-independent operating point.
type opPoint struct {
	rateGIPS float64 // instructions per second (billions)
	dynW     float64 // busy + idle dynamic power
	leakW    float64 // leakage at 50 °C, before the temperature factor
}

// evalOps computes both clusters' operating points for k.
func (b *Board) evalOps(k opKey) (big, little opPoint) {
	p := k.prof
	threadsBig := clampInt(k.place.ThreadsBig, 0, p.Threads)
	threadsLittle := p.Threads - threadsBig

	// First pass estimates busy cores for contention.
	totalBusy := busyCores(threadsBig, k.place.ThreadsPerBigCore, k.bigCores) +
		busyCores(threadsLittle, k.place.ThreadsPerLittleCore, k.littleCores)

	big = b.evalCluster(b.cfg.Big, k.bigCores, k.fBig, threadsBig,
		k.place.ThreadsPerBigCore, p.IPCBig, p.MemBound, totalBusy)
	little = b.evalCluster(b.cfg.Little, k.littleCores, k.fLittle, threadsLittle,
		k.place.ThreadsPerLittleCore, p.IPCLittle, p.MemBound, totalBusy)
	return big, little
}

// evalCluster computes one cluster's operating point.
func (b *Board) evalCluster(c ClusterConfig, coresOn int, freq float64, threads int,
	tpcWanted float64, ipc, memBound float64, totalBusy int) opPoint {

	v := c.VoltBase + float64(c.VoltPerGHz*freq)

	busy := busyCores(threads, tpcWanted, coresOn)
	var tpc float64 // threads per busy core
	if busy > 0 {
		tpc = float64(threads) / float64(busy)
	}

	// Memory-boundedness inflated by bandwidth contention across all busy
	// cores on the chip.
	mb := memBound * (1 + float64(b.cfg.MemContentionPerCore*float64(maxInt(totalBusy-1, 0))))
	if mb > 0.92 {
		mb = 0.92
	}

	// Roofline per-core rate: ipc*f at the reference frequency, saturating
	// toward the bandwidth ceiling as f grows.
	var ratePerCore float64
	if busy > 0 && ipc > 0 {
		ratePerCore = ipc * freq / ((1 - mb) + mb*freq/c.RefFreqGHz)
	}
	mux := 1.0
	if tpc > 1 {
		mux = math.Pow(b.cfg.MuxEfficiency, tpc-1)
	}

	// Power: busy cores burn full dynamic power weighted by stall activity;
	// idle-but-on cores burn the idle activity; all on cores leak.
	activity := (1 - mb) + float64(mb*c.StallPowerFactor)
	pBusy := float64(float64(busy) * c.CdynWPerV2GHz * v * v * freq * activity)
	pIdle := float64(float64(coresOn-busy) * c.CdynWPerV2GHz * v * v * freq * c.IdleActivity)
	return opPoint{
		rateGIPS: float64(busy) * ratePerCore * mux,
		dynW:     pBusy + pIdle,
		leakW:    float64(coresOn) * c.StaticBaseW,
	}
}

// busyCores is the number of cores threads occupy at tpc threads per core.
func busyCores(threads int, tpc float64, coresOn int) int {
	if threads <= 0 {
		return 0
	}
	return clampInt(int(math.Ceil(float64(threads)/tpc)), 1, coresOn)
}

// Run advances the board by dt while executing w, and returns the sensor
// view a controller invoked at the end of the interval would observe.
//
// The clusters' operating points are recomputed only when their inputs
// (opKey) change — a phase change, an actuator or placement write, or a
// firmware or budget cap step. Actuator and placement writes happen only
// between calls and caps move only when a governor reaches its step period,
// so the full key is rebuilt and compared on entry and after such a step;
// every other substep compares just the workload profile.
//
// A substep is refresh (the operating point), leak (the temperature's
// leakage factor), integrate (everything else).
func (b *Board) Run(w workload.Workload, dt time.Duration) Sensors {
	iv := b.begin(w, dt)
	for i := 0; i < iv.steps; i++ {
		b.refresh(&iv)
		b.integrate(&iv, b.leak())
	}
	return b.end(&iv)
}

// RunPair advances two distinct boards, each running its own workload, by
// dt, exactly as a.Run(wa, dt) and c.Run(wc, dt) would: every sensor field,
// energy, temperature and time bit for bit. Only the instruction order
// changes. Each substep's leakage factor exp((T−50)/scale) depends on the
// temperature the previous substep produced, so one board's physics is a
// latency-bound chain; RunPair refreshes both operating points, issues
// both boards' Exp calls back to back and then integrates both, so the CPU
// overlaps the two independent chains (DESIGN §13). A board with more
// substeps (a smaller SimStep) runs its tail alone, and a board whose
// clusters' leakage scales differ computes its second factor in integrate.
func RunPair(a, c *Board, wa, wc workload.Workload, dt time.Duration) (Sensors, Sensors) {
	ia, ic := a.begin(wa, dt), c.begin(wc, dt)
	n := min(ia.steps, ic.steps)
	for i := 0; i < n; i++ {
		a.refresh(&ia)
		c.refresh(&ic)
		leakA, leakC := a.leak(), c.leak()
		a.integrate(&ia, leakA)
		c.integrate(&ic, leakC)
	}
	for i := n; i < ia.steps; i++ {
		a.refresh(&ia)
		a.integrate(&ia, a.leak())
	}
	for i := n; i < ic.steps; i++ {
		c.refresh(&ic)
		c.integrate(&ic, c.leak())
	}
	return a.end(&ia), c.end(&ic)
}

// interval is one board's bookkeeping for one Run or RunPair call: the
// workload, the substep size and count, the sensor period, whether the
// operating-point key must be rebuilt, and the instructions retired so far.
type interval struct {
	w                   workload.Workload
	stepS, sensorS      float64
	steps               int
	rekey               bool // the key's non-profile inputs may have moved
	instT, instB, instL float64
}

// begin starts an interval of length dt running w.
func (b *Board) begin(w workload.Workload, dt time.Duration) interval {
	stepS := b.cfg.SimStep.Seconds()
	nSteps := int(math.Round(dt.Seconds() / stepS))
	if nSteps < 1 {
		nSteps = 1
	}
	return interval{
		w:       w,
		stepS:   stepS,
		sensorS: b.cfg.PowerSensorPeriod.Seconds() - 1e-9,
		steps:   nSteps,
		rekey:   true,
	}
}

// refresh brings the cached operating points up to date for the next
// substep. The common case, no rekey and an unchanged profile, is one
// compare; anything else takes the outlined reop.
func (b *Board) refresh(iv *interval) {
	prof := iv.w.Profile()
	if iv.rekey || prof != b.opKey.prof {
		b.reop(iv.rekey, prof)
	}
}

// reop recomputes the operating points whose key moved: with rekey, the
// full key is rebuilt and compared; without, only the profile changed.
func (b *Board) reop(rekey bool, prof workload.Profile) {
	if !rekey {
		b.opKey.prof = prof
		b.opBig, b.opLittle = b.evalOps(b.opKey)
		return
	}
	k := opKey{
		prof:        prof,
		fBig:        b.EffectiveBigFreq(),
		fLittle:     b.EffectiveLittleFreq(),
		bigCores:    b.bigCores,
		littleCores: b.littleCores,
		place:       b.place,
	}
	if !b.opValid || k != b.opKey {
		b.opBig, b.opLittle = b.evalOps(k)
		b.opKey, b.opValid = k, true
	}
}

// leak returns the big cluster's leakage factor exp((T−50)/scale) at the
// current temperature.
func (b *Board) leak() float64 {
	return math.Exp((b.tempC - 50) / b.cfg.Big.StaticTempScaleC)
}

// integrate advances one substep given the big cluster's leakage factor:
// energy, the thermal RC, the power-sensor window, and the firmware and
// budget governors.
func (b *Board) integrate(iv *interval, leakBig float64) {
	// Equal leakage scales (the default) give the same exponent, and so
	// the same factor, for both clusters.
	leakLittle := leakBig
	if b.cfg.Little.StaticTempScaleC != b.cfg.Big.StaticTempScaleC {
		leakLittle = math.Exp((b.tempC - 50) / b.cfg.Little.StaticTempScaleC)
	}
	stepS := iv.stepS
	// (pBusy+pIdle) + (coresOn·StaticBaseW)·exp is the operation order
	// the golden traces were recorded with; keep it.
	bigW := b.opBig.dynW + float64(b.opBig.leakW*leakBig)
	littleW := b.opLittle.dynW + float64(b.opLittle.leakW*leakLittle)

	// Migration stalls eat into this step's execution.
	execS := stepS
	if b.migStallS > 0 {
		if b.migStallS >= stepS {
			b.migStallS -= stepS
			execS = 0
		} else {
			execS = stepS - b.migStallS
			b.migStallS = 0
		}
	}

	gB := float64(b.opBig.rateGIPS * execS)
	gL := float64(b.opLittle.rateGIPS * execS)
	iv.w.Advance(gB + gL)
	iv.instB += gB
	iv.instL += gL
	iv.instT += gB + gL

	pTotal := bigW + littleW + b.cfg.BasePowerW
	b.energyJ += float64(pTotal * stepS)
	b.windowBigE += float64(bigW * stepS)
	b.windowLittleE += float64(littleW * stepS)

	// Thermal RC integration.
	tss := b.cfg.AmbientC + float64(b.cfg.ThermalRCW*pTotal)
	b.tempC += stepS * (tss - b.tempC) / b.cfg.ThermalTauS

	b.nowS += stepS

	// Power sensors latch the window average every sensor period.
	if b.nowS-b.windowStartS >= iv.sensorS {
		win := b.nowS - b.windowStartS
		b.sensedBigW = b.windowBigE / win
		b.sensedLittleW = b.windowLittleE / win
		if b.noise != nil {
			b.sensedBigW = math.Max(0, b.sensedBigW+float64(b.noise.NormFloat64()*b.cfg.SensorNoiseStd))
			b.sensedLittleW = math.Max(0, b.sensedLittleW+b.noise.NormFloat64()*b.cfg.SensorNoiseStd/10)
		}
		b.windowBigE, b.windowLittleE = 0, 0
		b.windowStartS = b.nowS
	}

	// Firmware emergency management sees instantaneous physics. The
	// governors' timers advance here every substep; their actions run
	// only when a step period elapses, the only time a cap can move.
	t := &b.tmu
	t.sinceStepS += stepS
	// A forced event (Board.ForceEmergencyThrottle) makes the thermal path
	// see a violation for its duration regardless of the real temperature.
	forced := t.forcedS > 0
	if forced {
		t.forcedS -= stepS
	}
	track(bigW > b.cfg.BigPowerEmergencyW, stepS, &t.overBigS, &t.underBigS)
	track(littleW > b.cfg.LittlePowerEmergencyW, stepS, &t.overLittleS, &t.underLittleS)
	track(forced || b.tempC > b.cfg.TempEmergencyC, stepS, &t.overTempS, &t.underTempS)
	iv.rekey = false
	if t.sinceStepS >= t.stepPeriod {
		t.act(b, bigW, littleW)
		iv.rekey = true
	}
	// The budget governor enforces the board-level power cap on the
	// total draw, after (and never overriding) the emergency paths.
	if g := &b.budget; g.capW > 0 {
		g.sinceStepS += stepS
		track(pTotal > g.capW, stepS, &g.overS, &g.underS)
		if g.sinceStepS >= g.stepPeriod {
			g.act(b, pTotal)
			iv.rekey = true
		}
	}
}

// track advances a governor's sustained-violation and sustained-safe
// timers by dt: the one that matches over grows, the other restarts.
func track(over bool, dt float64, overS, underS *float64) {
	if over {
		*overS += dt
		*underS = 0
	} else {
		*underS += dt
		*overS = 0
	}
}

// end closes the interval: it folds the retired instructions into the
// perf counters and returns the (tapped) sensor view.
func (b *Board) end(iv *interval) Sensors {
	b.instTotal += iv.instT
	b.instBig += iv.instB
	b.instLittle += iv.instL

	intervalS := float64(iv.steps) * iv.stepS
	tempRead := b.tempC
	if b.noise != nil {
		tempRead += b.noise.NormFloat64() * b.cfg.SensorNoiseStd / 10
	}
	s := Sensors{
		TimeS:            b.nowS,
		BigPowerW:        b.sensedBigW,
		LittlePowerW:     b.sensedLittleW,
		TempC:            tempRead,
		BIPS:             iv.instT / intervalS,
		BIPSBig:          iv.instB / intervalS,
		BIPSLittle:       iv.instL / intervalS,
		Throttled:        b.tmu.engagedBig || b.tmu.engagedLittle || b.tmu.engagedTemp,
		ThermalThrottled: b.tmu.engagedTemp,
		EmergencyEvents:  b.tmu.events,
		PowerCapW:        b.budget.capW,
		BudgetThrottled:  b.budget.engaged,
	}
	if b.sensorTap != nil {
		s = b.sensorTap.TapSensors(s)
	}
	return s
}

// String summarizes the board state for logs.
func (b *Board) String() string {
	return fmt.Sprintf("board[t=%.1fs big=%dc@%.1fGHz little=%dc@%.1fGHz T=%.1fC E=%.1fJ]",
		b.nowS, b.bigCores, b.bigFreq, b.littleCores, b.littleFreq, b.tempC, b.energyJ)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
