package core

import (
	"fmt"
	"math"

	"yukta/internal/board"
	"yukta/internal/heuristic"
	"yukta/internal/lqgctl"
	"yukta/internal/optimizer"
	"yukta/internal/ssvctl"
	"yukta/internal/supervisor"
)

// Session is one run's controller stack: it is invoked once per control
// interval (500 ms, §V-A) with the current sensor view and the number of
// runnable application threads, and actuates on the board.
type Session interface {
	Step(s board.Sensors, b *board.Board, threads int)
}

// Scheme names a controller stack and knows how to build a fresh Session
// (controllers are stateful, so every run needs its own).
type Scheme struct {
	// Name labels the scheme in every table.
	Name string
	// FaultKey, when non-empty, overrides the identity used to derive this
	// scheme's fault-injection RNG streams (fault.RunKey); empty uses Name.
	// Decorator schemes set it to their primary's identity so decorated and
	// bare runs face the same fault realization — a paired (common random
	// numbers) comparison that measures the decorator, not stream luck.
	FaultKey string
	// New builds a fresh Session for one run.
	New func() (Session, error)
}

// faultKey returns the identity fault streams are derived from.
func (s Scheme) faultKey() string {
	if s.FaultKey != "" {
		return s.FaultKey
	}
	return s.Name
}

// Scheme names, matching the paper's Table IV and §VI-B.
const (
	NameCoordHeur  = "Coordinated heuristic"
	NameDecoupHeur = "Decoupled heuristic"
	NameYuktaHW    = "Yukta: HW SSV+OS heuristic"
	NameYuktaFull  = "Yukta: HW SSV+OS SSV"
	NameDecoupLQG  = "Decoupled HW LQG+OS LQG"
	NameMonoLQG    = "Monolithic LQG"
)

// exdProxy returns the instantaneous E×D rate (total power over squared
// performance — E×D is proportional to Power/Perf², §IV-D).
func exdProxy(s board.Sensors, base float64) float64 {
	perf := s.BIPS
	if perf < 0.3 {
		perf = 0.3
	}
	return (s.BigPowerW + s.LittlePowerW + base) / (perf * perf)
}

// ssvHealth converts an SSV runtime's health snapshot to the supervisor's
// shape.
func ssvHealth(h ssvctl.Health) supervisor.Health {
	return supervisor.Health{GuardbandStreak: h.ExceedStreak,
		HeldSteps: h.HeldSteps, Railed: h.Railed, NonFinite: h.NonFinite}
}

// lqgHealth converts an LQG runtime's health snapshot to the supervisor's
// shape. The LQG runtime carries no guardband monitor (nothing was
// synthesized to guarantee), so its streak is always zero.
func lqgHealth(h lqgctl.Health) supervisor.Health {
	return supervisor.Health{
		HeldSteps: h.HeldSteps, Railed: h.Railed, NonFinite: h.NonFinite}
}

// mergeHealth combines two layers' health snapshots: boolean conditions OR,
// held counters add, streaks take the worst layer.
func mergeHealth(a, b supervisor.Health) supervisor.Health {
	return supervisor.Health{
		GuardbandStreak: maxInt(a.GuardbandStreak, b.GuardbandStreak),
		HeldSteps:       a.HeldSteps + b.HeldSteps,
		Railed:          a.Railed || b.Railed,
		NonFinite:       a.NonFinite || b.NonFinite,
	}
}

// maxInt returns the larger of a and b.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// costGuard keeps the E×D hill-climbing search sane under sensor dropout: a
// non-finite sample (the fault layer reports dropped power readings as NaN)
// is replaced by the last finite sample, so the optimizer pauses on a stale
// cost for the dropped interval instead of having its EMA poisoned forever.
type costGuard struct {
	last float64
	have bool
}

// guard returns exd if finite, otherwise the last finite sample seen (or a
// neutral constant before any good sample has arrived).
func (g *costGuard) guard(exd float64) float64 {
	if math.IsNaN(exd) || math.IsInf(exd, 0) {
		if g.have {
			return g.last
		}
		return 1
	}
	g.last, g.have = exd, true
	return exd
}

// ---- Heuristic schemes -------------------------------------------------

type heurSession struct {
	hw interface {
		Step(board.Sensors, *board.Board)
	}
	os interface {
		Step(board.Sensors, *board.Board, int)
	}
}

func (h *heurSession) Step(s board.Sensors, b *board.Board, threads int) {
	h.hw.Step(s, b)
	h.os.Step(s, b, threads)
}

// CoordinatedHeuristic is the paper's baseline scheme (Table IV a).
func (p *Platform) CoordinatedHeuristic() Scheme {
	return Scheme{Name: NameCoordHeur, New: func() (Session, error) {
		return &heurSession{
			hw: &heuristic.CoordinatedHW{Lim: p.Lim},
			os: &heuristic.CoordinatedOS{},
		}, nil
	}}
}

// DecoupledHeuristic is Table IV (b).
func (p *Platform) DecoupledHeuristic() Scheme {
	return Scheme{Name: NameDecoupHeur, New: func() (Session, error) {
		return &heurSession{
			hw: &heuristic.DecoupledHW{Lim: p.Lim},
			os: heuristic.DecoupledOS{},
		}, nil
	}}
}

// ---- SSV hardware layer -------------------------------------------------

// hwOptimizer builds the §IV-D optimizer for the hardware controller's
// targets [Perf, Power_big, Power_little]; the temperature target is held at
// a fixed safe value.
func (p *Platform) hwOptimizer() (*optimizer.Optimizer, error) {
	perfHi := p.Data.OutScales[outBIPS].Max * 0.9
	return optimizer.New(optimizer.Config{
		Initial:         []float64{7, 2.9, 0.25},
		UpStep:          []float64{0.7, 0.06, 0.008},
		DownStep:        []float64{0.25, 0.15, 0.02},
		Lo:              []float64{0.5, 0.5, 0.05},
		Hi:              []float64{perfHi, p.Lim.BigPowerW * 0.95, p.Lim.LittlePowerW * 0.92},
		SettleIntervals: 5,
		Smoothing:       0.7,
	})
}

const tempTargetC = 77 // fixed temperature target: bound ±3-4 °C keeps T below the 79 °C limit

type hwSSVSession struct {
	rt      *ssvctl.Runtime
	opt     *optimizer.Optimizer
	base    float64
	perfEMA float64
	cost    costGuard

	// Ablation switches (normal operation leaves both false).
	noExternals    bool // feed zeros instead of the OS layer's signals
	noConditioning bool // do not feed the applied command back

	// frozen pauses the E×D target search (supervisory freeze while firmware
	// throttling owns the operating point); targets hold at their last value.
	frozen bool

	// ceilBig/ceilLit cap the frequency commands before they reach the board
	// (the supervisory no-raise authority clamp); non-positive means
	// unlimited, so the zero value is an unclamped session. The cap sits in
	// the command path, not after it, so a clamped session settles at the
	// ceiling instead of thrashing the DVFS transition stall by re-raising
	// every interval.
	ceilBig, ceilLit float64

	// Per-step scratch (the control loop runs every 500 ms; see the
	// BenchmarkControllerStep allocation budget).
	tg      []float64
	targets [4]float64
	meas    [4]float64
	ext     [3]float64
	applied [4]float64
}

func (h *hwSSVSession) setSearchFrozen(f bool) { h.frozen = f }

func (h *hwSSVSession) setFreqCeiling(bigGHz, littleGHz float64) {
	h.ceilBig, h.ceilLit = bigGHz, littleGHz
}

func (h *hwSSVSession) reseed(s board.Sensors, b *board.Board) {
	h.applied = [4]float64{float64(b.BigCores()), float64(b.LittleCores()),
		b.EffectiveBigFreq(), b.EffectiveLittleFreq()}
	_ = h.rt.Reseed(h.applied[:])
	h.perfEMA = 0
	h.cost = costGuard{}
}

func (h *hwSSVSession) controllerHealth() supervisor.Health { return ssvHealth(h.rt.Health()) }

func (h *hwSSVSession) Step(s board.Sensors, b *board.Board, threads int) {
	tg := h.tg
	if !h.frozen || tg == nil {
		tg = h.opt.UpdateInto(h.tg, h.cost.guard(exdProxy(s, h.base)))
		h.tg = tg
	}
	// Reference governor: the optimizer raises the performance target from
	// the *measured* performance (§IV-D "keeps increasing Perf_0"), so the
	// reference never runs far ahead of what the plant is delivering — a
	// huge standing error would distort the controller's multi-output
	// compromise and violate the synthesis' TargetScale assumption.
	if h.perfEMA == 0 {
		h.perfEMA = s.BIPS
	}
	h.perfEMA = float64(0.7*h.perfEMA) + float64(0.3*s.BIPS)
	perfT := tg[0]
	if cap := h.perfEMA + 3.0; perfT > cap {
		perfT = cap
	}
	h.targets = [4]float64{perfT, tg[1], tg[2], tempTargetC}
	if err := h.rt.SetTargets(h.targets[:]); err != nil {
		return
	}
	p := b.Placement()
	h.meas = [4]float64{s.BIPS, s.BigPowerW, s.LittlePowerW, s.TempC}
	h.ext = [3]float64{float64(p.ThreadsBig), p.ThreadsPerBigCore, p.ThreadsPerLittleCore}
	if h.noExternals {
		h.ext = [3]float64{0, 1, 1} // pretend nothing is known about the OS layer
	}
	// What the hardware actually ran at during the measured interval,
	// including firmware throttle caps.
	h.applied = [4]float64{float64(b.BigCores()), float64(b.LittleCores()),
		b.EffectiveBigFreq(), b.EffectiveLittleFreq()}
	applied := h.applied[:]
	if h.noConditioning {
		applied = nil
	}
	u, err := h.rt.Step(h.meas[:], h.ext[:], applied)
	if err != nil {
		return
	}
	if h.ceilBig > 0 && u[2] > h.ceilBig {
		u[2] = h.ceilBig
	}
	if h.ceilLit > 0 && u[3] > h.ceilLit {
		u[3] = h.ceilLit
	}
	applyHW(b, u)
}

// newHWSSVSession assembles the SSV hardware layer from a synthesized
// controller.
func (p *Platform) newHWSSVSession(hp HWParams) (*hwSSVSession, error) {
	ctl, err := p.HWControllerValidated(hp)
	if err != nil {
		return nil, fmt.Errorf("core: HW SSV synthesis: %w", err)
	}
	rt, err := p.NewHWRuntime(ctl)
	if err != nil {
		return nil, err
	}
	opt, err := p.hwOptimizer()
	if err != nil {
		return nil, err
	}
	return &hwSSVSession{rt: rt, opt: opt, base: p.Cfg.BasePowerW}, nil
}

// YuktaHWSSVOSHeuristic is Table IV (c): SSV hardware controller plus the
// coordinated heuristic OS controller.
func (p *Platform) YuktaHWSSVOSHeuristic(hp HWParams) Scheme {
	return Scheme{Name: NameYuktaHW, New: func() (Session, error) {
		hw, err := p.newHWSSVSession(hp)
		if err != nil {
			return nil, err
		}
		return &splitSession{
			hw: hw,
			os: &heurOSAdapter{os: &heuristic.CoordinatedOS{}},
		}, nil
	}}
}

// ---- SSV software layer -------------------------------------------------

// osOptimizer builds the optimizer for the software controller's targets
// [Perf_little, Perf_big, ΔSC]. In the performance-seeking direction the
// ΔSC target moves toward zero/negative (spread threads over the on cores);
// in the power-saving direction it rises (pack threads on the big cluster so
// the HW layer can gate cores). The OS optimizer deliberately runs at a
// slower cadence than the HW optimizer so the two searches do not chase each
// other's transients (§III-D).
func (p *Platform) osOptimizer() (*optimizer.Optimizer, error) {
	hiL := p.Data.OutScales[outBIPSLittle].Max
	hiB := p.Data.OutScales[outBIPSBig].Max
	return optimizer.New(optimizer.Config{
		Initial:         []float64{1.5, 6.5, -1},
		UpStep:          []float64{0.1, 0.4, -0.15},
		DownStep:        []float64{0.04, 0.15, -0.15},
		Lo:              []float64{0, 0.2, -3},
		Hi:              []float64{hiL, hiB * 0.95, 3},
		SettleIntervals: 9,
		Smoothing:       0.7,
	})
}

type osSSVSession struct {
	rt     *ssvctl.Runtime
	opt    *optimizer.Optimizer
	base   float64
	emaL   float64
	emaB   float64
	inited bool
	cost   costGuard

	noExternals    bool
	noConditioning bool

	// frozen pauses the E×D target search (supervisory freeze).
	frozen bool

	// Per-step scratch buffers.
	tg      []float64
	meas    [3]float64
	ext     [4]float64
	applied [3]float64
}

func (o *osSSVSession) setSearchFrozen(f bool) { o.frozen = f }

func (o *osSSVSession) reseed(s board.Sensors, b *board.Board) {
	pl := b.Placement()
	o.applied = [3]float64{float64(pl.ThreadsBig), pl.ThreadsPerBigCore, pl.ThreadsPerLittleCore}
	_ = o.rt.Reseed(o.applied[:])
	o.inited = false
	o.cost = costGuard{}
}

func (o *osSSVSession) controllerHealth() supervisor.Health { return ssvHealth(o.rt.Health()) }

func (o *osSSVSession) Step(s board.Sensors, b *board.Board, threads int) {
	tg := o.tg
	if !o.frozen || tg == nil {
		tg = o.opt.UpdateInto(o.tg, o.cost.guard(exdProxy(s, o.base)))
		o.tg = tg
	}
	// Reference governor, as in the hardware layer: cluster performance
	// targets track measured values instead of running open-loop ahead.
	if !o.inited {
		o.emaL, o.emaB = s.BIPSLittle, s.BIPSBig
		o.inited = true
	}
	o.emaL = float64(0.7*o.emaL) + float64(0.3*s.BIPSLittle)
	o.emaB = float64(0.7*o.emaB) + float64(0.3*s.BIPSBig)
	if cap := o.emaL + 1.0; tg[0] > cap {
		tg[0] = cap
	}
	if cap := o.emaB + 2.5; tg[1] > cap {
		tg[1] = cap
	}
	if err := o.rt.SetTargets(tg); err != nil {
		return
	}
	o.meas = [3]float64{s.BIPSLittle, s.BIPSBig, deltaSpareCompute(b, threads)}
	o.ext = [4]float64{float64(b.BigCores()), float64(b.LittleCores()), b.BigFreq(), b.LittleFreq()}
	if o.noExternals {
		o.ext = [4]float64{2.5, 2.5, 1.1, 0.8} // mid-range guesses, no coordination
	}
	pl := b.Placement()
	o.applied = [3]float64{float64(pl.ThreadsBig), pl.ThreadsPerBigCore, pl.ThreadsPerLittleCore}
	applied := o.applied[:]
	if o.noConditioning {
		applied = nil
	}
	u, err := o.rt.Step(o.meas[:], o.ext[:], applied)
	if err != nil {
		return
	}
	applyOS(b, u, threads)
}

// YuktaFullSSV is Table IV (d): SSV controllers in both layers, each taking
// the other's actuations as external signals.
func (p *Platform) YuktaFullSSV(hp HWParams, op OSParams) Scheme {
	return Scheme{Name: NameYuktaFull, New: func() (Session, error) {
		hw, err := p.newHWSSVSession(hp)
		if err != nil {
			return nil, err
		}
		ctl, err := p.OSControllerValidated(op)
		if err != nil {
			return nil, fmt.Errorf("core: OS SSV synthesis: %w", err)
		}
		rt, err := p.NewOSRuntime(ctl)
		if err != nil {
			return nil, err
		}
		opt, err := p.osOptimizer()
		if err != nil {
			return nil, err
		}
		return &splitSession{
			hw: hw,
			os: &osSSVSession{rt: rt, opt: opt, base: p.Cfg.BasePowerW},
		}, nil
	}}
}

// YuktaFullAblated builds the full SSV scheme with ablation switches: with
// noExternals the controllers receive placeholder external signals (the
// "Decoupled SSV" the paper argues against in §III-A); with noConditioning
// the runtimes do not feed the applied actuator state back to their
// estimators. Both default-false switches reproduce YuktaFullSSV.
func (p *Platform) YuktaFullAblated(name string, noExternals, noConditioning bool) Scheme {
	return Scheme{Name: name, New: func() (Session, error) {
		hw, err := p.newHWSSVSession(DefaultHWParams())
		if err != nil {
			return nil, err
		}
		hw.noExternals = noExternals
		hw.noConditioning = noConditioning
		ctl, err := p.OSControllerValidated(DefaultOSParams())
		if err != nil {
			return nil, err
		}
		rt, err := p.NewOSRuntime(ctl)
		if err != nil {
			return nil, err
		}
		opt, err := p.osOptimizer()
		if err != nil {
			return nil, err
		}
		os := &osSSVSession{rt: rt, opt: opt, base: p.Cfg.BasePowerW,
			noExternals: noExternals, noConditioning: noConditioning}
		return &splitSession{hw: hw, os: os}, nil
	}}
}

// splitSession runs a hardware sub-session then a software sub-session.
type splitSession struct {
	hw, os Session
}

func (sp *splitSession) Step(s board.Sensors, b *board.Board, threads int) {
	sp.hw.Step(s, b, threads)
	sp.os.Step(s, b, threads)
}

func (sp *splitSession) setSearchFrozen(f bool) {
	if fz, ok := sp.hw.(searchFreezer); ok {
		fz.setSearchFrozen(f)
	}
	if fz, ok := sp.os.(searchFreezer); ok {
		fz.setSearchFrozen(f)
	}
}

func (sp *splitSession) setFreqCeiling(bigGHz, littleGHz float64) {
	if fl, ok := sp.hw.(freqLimiter); ok {
		fl.setFreqCeiling(bigGHz, littleGHz)
	}
	if fl, ok := sp.os.(freqLimiter); ok {
		fl.setFreqCeiling(bigGHz, littleGHz)
	}
}

func (sp *splitSession) reseed(s board.Sensors, b *board.Board) {
	if r, ok := sp.hw.(reseedable); ok {
		r.reseed(s, b)
	}
	if r, ok := sp.os.(reseedable); ok {
		r.reseed(s, b)
	}
}

func (sp *splitSession) controllerHealth() supervisor.Health {
	var h supervisor.Health
	if hp, ok := sp.hw.(healthProbe); ok {
		h = mergeHealth(h, hp.controllerHealth())
	}
	if hp, ok := sp.os.(healthProbe); ok {
		h = mergeHealth(h, hp.controllerHealth())
	}
	return h
}

// heurOSAdapter adapts a heuristic OS controller to the Session interface.
type heurOSAdapter struct {
	os interface {
		Step(board.Sensors, *board.Board, int)
	}
}

func (h *heurOSAdapter) Step(s board.Sensors, b *board.Board, threads int) {
	h.os.Step(s, b, threads)
}

// ---- LQG schemes ---------------------------------------------------------

type monoLQGSession struct {
	rt    *lqgctl.Runtime
	opt   *optimizer.Optimizer
	osOpt *optimizer.Optimizer
	base  float64
	cost  costGuard

	// frozen pauses both E×D target searches (supervisory freeze).
	frozen bool

	// Per-step scratch buffers.
	tg, og  []float64
	targets [7]float64
	meas    [7]float64
	applied [7]float64
}

func (m *monoLQGSession) setSearchFrozen(f bool) { m.frozen = f }

func (m *monoLQGSession) reseed(s board.Sensors, b *board.Board) {
	pl := b.Placement()
	m.applied = [7]float64{float64(b.BigCores()), float64(b.LittleCores()),
		b.EffectiveBigFreq(), b.EffectiveLittleFreq(),
		float64(pl.ThreadsBig), pl.ThreadsPerBigCore, pl.ThreadsPerLittleCore}
	_ = m.rt.Reseed(m.applied[:])
	m.cost = costGuard{}
}

func (m *monoLQGSession) controllerHealth() supervisor.Health { return lqgHealth(m.rt.Health()) }

func (m *monoLQGSession) Step(s board.Sensors, b *board.Board, threads int) {
	tg, og := m.tg, m.og
	if !m.frozen || tg == nil || og == nil {
		exd := m.cost.guard(exdProxy(s, m.base))
		tg = m.opt.UpdateInto(m.tg, exd)
		m.tg = tg
		og = m.osOpt.UpdateInto(m.og, exd)
		m.og = og
	}
	m.targets = [7]float64{tg[0], tg[1], tg[2], tempTargetC, og[0], og[1], og[2]}
	if err := m.rt.SetTargets(m.targets[:]); err != nil {
		return
	}
	m.meas = [7]float64{s.BIPS, s.BigPowerW, s.LittlePowerW, s.TempC,
		s.BIPSLittle, s.BIPSBig, deltaSpareCompute(b, threads)}
	u, err := m.rt.Step(m.meas[:], nil)
	if err != nil {
		return
	}
	applyHW(b, u[:4])
	applyOS(b, u[4:], threads)
}

// MonolithicLQG is the single-controller LQG scheme of §VI-B.
func (p *Platform) MonolithicLQG() Scheme {
	return Scheme{Name: NameMonoLQG, New: func() (Session, error) {
		ctl, err := p.MonolithicLQGController()
		if err != nil {
			return nil, fmt.Errorf("core: monolithic LQG synthesis: %w", err)
		}
		rt, err := p.newLQGRuntime(ctl, hwInCols, monoOutCols)
		if err != nil {
			return nil, err
		}
		opt, err := p.hwOptimizer()
		if err != nil {
			return nil, err
		}
		osOpt, err := p.osOptimizer()
		if err != nil {
			return nil, err
		}
		return &monoLQGSession{rt: rt, opt: opt, osOpt: osOpt, base: p.Cfg.BasePowerW}, nil
	}}
}

type decoupLQGSession struct {
	hw, os *lqgctl.Runtime
	hwOpt  *optimizer.Optimizer
	osOpt  *optimizer.Optimizer
	base   float64
	cost   costGuard

	// frozen pauses both E×D target searches (supervisory freeze).
	frozen bool

	// Per-step scratch buffers.
	tg, og    []float64
	hwTargets [4]float64
	hwMeas    [4]float64
	osMeas    [3]float64
	hwApplied [4]float64
	osApplied [3]float64
}

func (d *decoupLQGSession) setSearchFrozen(f bool) { d.frozen = f }

func (d *decoupLQGSession) reseed(s board.Sensors, b *board.Board) {
	pl := b.Placement()
	d.hwApplied = [4]float64{float64(b.BigCores()), float64(b.LittleCores()),
		b.EffectiveBigFreq(), b.EffectiveLittleFreq()}
	d.osApplied = [3]float64{float64(pl.ThreadsBig), pl.ThreadsPerBigCore, pl.ThreadsPerLittleCore}
	_ = d.hw.Reseed(d.hwApplied[:])
	_ = d.os.Reseed(d.osApplied[:])
	d.cost = costGuard{}
}

func (d *decoupLQGSession) controllerHealth() supervisor.Health {
	return mergeHealth(lqgHealth(d.hw.Health()), lqgHealth(d.os.Health()))
}

func (d *decoupLQGSession) Step(s board.Sensors, b *board.Board, threads int) {
	var exd float64
	haveExd := false
	if !d.frozen || d.tg == nil || d.og == nil {
		exd = d.cost.guard(exdProxy(s, d.base))
		haveExd = true
	}
	tg := d.tg
	if haveExd {
		tg = d.hwOpt.UpdateInto(d.tg, exd)
		d.tg = tg
	}
	d.hwTargets = [4]float64{tg[0], tg[1], tg[2], tempTargetC}
	if err := d.hw.SetTargets(d.hwTargets[:]); err != nil {
		return
	}
	d.hwMeas = [4]float64{s.BIPS, s.BigPowerW, s.LittlePowerW, s.TempC}
	if u, err := d.hw.Step(d.hwMeas[:], nil); err == nil {
		applyHW(b, u)
	}
	og := d.og
	if haveExd {
		og = d.osOpt.UpdateInto(d.og, exd)
		d.og = og
	}
	if err := d.os.SetTargets(og); err != nil {
		return
	}
	d.osMeas = [3]float64{s.BIPSLittle, s.BIPSBig, deltaSpareCompute(b, threads)}
	if u, err := d.os.Step(d.osMeas[:], nil); err == nil {
		applyOS(b, u, threads)
	}
}

// DecoupledLQG is the two-independent-LQG scheme of §VI-B.
func (p *Platform) DecoupledLQG() Scheme {
	return Scheme{Name: NameDecoupLQG, New: func() (Session, error) {
		hwCtl, osCtl, err := p.DecoupledLQGControllers()
		if err != nil {
			return nil, err
		}
		hwRT, err := p.newLQGRuntime(hwCtl, hwOnlyInCols, hwOutCols)
		if err != nil {
			return nil, err
		}
		osRT, err := p.newLQGRuntime(osCtl, osOnlyInCols, osOutCols)
		if err != nil {
			return nil, err
		}
		hwOpt, err := p.hwOptimizer()
		if err != nil {
			return nil, err
		}
		osOpt, err := p.osOptimizer()
		if err != nil {
			return nil, err
		}
		return &decoupLQGSession{hw: hwRT, os: osRT, hwOpt: hwOpt, osOpt: osOpt, base: p.Cfg.BasePowerW}, nil
	}}
}
