package core

import (
	"fmt"
	"runtime"
	"sync"

	"yukta/internal/board"
	"yukta/internal/heuristic"
	"yukta/internal/lqgctl"
	"yukta/internal/lti"
	"yukta/internal/obs"
	"yukta/internal/pool"
	"yukta/internal/robust"
	"yukta/internal/ssvctl"
)

// Platform bundles everything derived from one identification campaign on
// one board configuration: the training data, the fitted models for every
// controller variant, and the signal scalings. Experiments construct it once
// and synthesize controllers from it.
type Platform struct {
	Cfg  board.Config
	Lim  heuristic.Limits
	Data *TrainingData

	HW, OS, HWOnly, OSOnly, Mono *lti.StateSpace

	// Caches of validated controllers: synthesis plus validation costs a few
	// seconds, and experiment sweeps reuse the same designs across many runs.
	// Each key holds a single-flight entry so that concurrent callers (the
	// experiment harness fans runs across a worker pool) synthesize a given
	// design exactly once and never serialize behind an unrelated key's
	// synthesis — the map mutex protects only the entry lookup.
	mu      sync.Mutex
	hwCache map[HWParams]*hwEntry
	osCache map[OSParams]*osEntry

	// Single-flight caches for the parameterless LQG baseline designs, so
	// concurrent runs of the §VI-B schemes share one synthesis.
	monoLQG   lqgEntry
	decoupLQG decoupEntry

	// metrics, when attached, counts controller-cache hits and misses
	// (synth_cache_hits_total / synth_cache_misses_total).
	metrics *obs.Registry
}

// AttachMetrics registers the registry the platform's controller caches
// count their hits and misses into (nil detaches). Safe to call
// concurrently with cache lookups, but conventionally done once right after
// NewPlatform.
func (p *Platform) AttachMetrics(r *obs.Registry) {
	p.mu.Lock()
	p.metrics = r
	p.mu.Unlock()
}

// countCache records one controller-cache access against the attached
// registry (m may be nil).
func countCache(m *obs.Registry, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.Counter("synth_cache_hits_total").Add(1)
	} else {
		m.Counter("synth_cache_misses_total").Add(1)
	}
}

// hwEntry is a single-flight cache slot for one hardware design.
type hwEntry struct {
	once sync.Once
	ctl  *robust.Controller
	err  error
}

// osEntry is a single-flight cache slot for one software design.
type osEntry struct {
	once sync.Once
	ctl  *robust.Controller
	err  error
}

// lqgEntry is a single-flight cache slot for the monolithic LQG design.
// seen (guarded by the platform mutex) marks the first access, for the
// cache hit/miss accounting.
type lqgEntry struct {
	once sync.Once
	ctl  *robust.Controller
	err  error
	seen bool
}

// decoupEntry is a single-flight cache slot for the decoupled LQG pair,
// with the same first-access marker as lqgEntry.
type decoupEntry struct {
	once   sync.Once
	hw, os *robust.Controller
	err    error
	seen   bool
}

// NewPlatform collects training data on the given board configuration and
// fits the five models used by the schemes.
func NewPlatform(cfg board.Config, opt IdentifyOptions) (*Platform, error) {
	td, err := CollectTrainingData(cfg, opt)
	if err != nil {
		return nil, err
	}
	p := &Platform{Cfg: cfg, Lim: heuristic.DefaultLimits(), Data: td}
	// The five fits only read td, so they run concurrently, each writing its
	// own model and error slot (DESIGN.md §18). Mono, the longest fit,
	// starts first. The errors are checked in the order HW, OS, HWOnly,
	// OSOnly, Mono, so the failure reported is the one a sequential chain
	// of fits would stop at.
	fits := []struct {
		dst **lti.StateSpace
		fit func() (*lti.StateSpace, error)
	}{
		{&p.Mono, td.MonoModel},
		{&p.HW, td.HWModel},
		{&p.OS, td.OSModel},
		{&p.HWOnly, td.HWOnlyModel},
		{&p.OSOnly, td.OSOnlyModel},
	}
	errs := make([]error, len(fits))
	// Jobs return nil, so a failure skips no other fit and ForEach has no
	// error to report.
	_ = pool.ForEach(runtime.GOMAXPROCS(0), len(fits), func(i int) error {
		*fits[i].dst, errs[i] = fits[i].fit()
		return nil
	})
	for _, i := range []int{1, 2, 3, 4, 0} {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return p, nil
}

// HWParams are the designer knobs of the hardware controller (Table II),
// exposed for the sensitivity studies of §VI-E.
type HWParams struct {
	// PerfBoundFrac is the performance deviation bound as a fraction of the
	// signal range (paper default ±20%).
	PerfBoundFrac float64
	// CriticalBoundFrac is the bound for the board-integrity outputs —
	// cluster powers and temperature (paper default ±10%).
	CriticalBoundFrac float64
	// Uncertainty is the guardband (paper default ±40%).
	Uncertainty float64
	// InputWeight applies to all four inputs (paper default 1; §VI-E3 sweeps
	// 0.5–2).
	InputWeight float64
}

// DefaultHWParams returns Table II's values.
func DefaultHWParams() HWParams {
	return HWParams{PerfBoundFrac: 0.2, CriticalBoundFrac: 0.1, Uncertainty: 0.4, InputWeight: 1}
}

// OSParams are the designer knobs of the software controller (Table III).
type OSParams struct {
	// BoundFrac is the deviation bound for all three outputs (paper ±20%).
	BoundFrac float64
	// Uncertainty is the guardband (paper ±50%).
	Uncertainty float64
	// InputWeight applies to all three inputs (paper 2 — twice the HW
	// controller's, §IV-B).
	InputWeight float64
}

// DefaultOSParams returns Table III's values.
func DefaultOSParams() OSParams {
	return OSParams{BoundFrac: 0.2, Uncertainty: 0.5, InputWeight: 2}
}

// fracToNorm converts "fraction of the physical range" to normalized units
// (the normalized range [-1,1] spans 2 units).
func fracToNorm(frac float64) float64 { return 2 * frac }

// quantaFor returns the normalized quantization step of the given input
// columns.
func (p *Platform) quantaFor(cols []int) []float64 {
	scales := inputScales(p.Cfg)
	levels := inputLevels(p.Cfg)
	out := make([]float64, len(cols))
	for i, c := range cols {
		step := 0.0
		if len(levels[c]) > 1 {
			step = levels[c][1] - levels[c][0]
		}
		out[i] = scales[c].QuantumNormalized(step)
	}
	return out
}

// SynthesizeHWSSV runs the SSV design loop for the hardware controller of
// Table II with the given designer knobs (without the Fig. 3 validation
// stage; see SynthesizeHWSSVValidated).
func (p *Platform) SynthesizeHWSSV(hp HWParams) (*robust.Controller, error) {
	return robust.Synthesize(p.hwSpec(hp, 0))
}

// DesignHWAtPenalty synthesizes a single hardware-controller candidate at a
// fixed penalty and reports its SSV (for the Fig. 16a sensitivity study).
func (p *Platform) DesignHWAtPenalty(hp HWParams, rho float64) (*robust.Controller, error) {
	return robust.DesignAtPenalty(p.hwSpec(hp, 0), rho)
}

// hwSpec builds the Table II specification with the given penalty floor.
func (p *Platform) hwSpec(hp HWParams, minPenalty float64) *robust.Spec {
	return &robust.Spec{
		Plant:       p.HW,
		NumControls: 4,
		InputWeights: []float64{
			hp.InputWeight, hp.InputWeight, hp.InputWeight, hp.InputWeight,
		},
		InputQuanta: p.quantaFor(hwInCols[:4]),
		OutputBounds: []float64{
			fracToNorm(hp.PerfBoundFrac),     // performance ±20%
			fracToNorm(hp.CriticalBoundFrac), // power big ±10%
			fracToNorm(hp.CriticalBoundFrac), // power little ±10%
			fracToNorm(hp.CriticalBoundFrac), // temperature ±10%
		},
		Uncertainty: hp.Uncertainty,
		// Reference magnitudes match the optimizer: performance and power
		// targets move in small steps, the temperature target is fixed.
		TargetScales: []float64{0.15, 0.12, 0.12, 0.02},
		MinPenalty:   minPenalty,
	}
}

// SynthesizeOSSSV runs the SSV design loop for the software controller of
// Table III (without the Fig. 3 validation stage).
func (p *Platform) SynthesizeOSSSV(op OSParams) (*robust.Controller, error) {
	return robust.Synthesize(p.osSpec(op, 0))
}

// osSpec builds the Table III specification with the given penalty floor.
func (p *Platform) osSpec(op OSParams, minPenalty float64) *robust.Spec {
	return &robust.Spec{
		Plant:        p.OS,
		NumControls:  3,
		InputWeights: []float64{op.InputWeight, op.InputWeight, op.InputWeight},
		InputQuanta:  p.quantaFor(osInCols[:3]),
		OutputBounds: []float64{
			fracToNorm(op.BoundFrac), fracToNorm(op.BoundFrac), fracToNorm(op.BoundFrac),
		},
		Uncertainty:  op.Uncertainty,
		TargetScales: []float64{0.1, 0.15, 0.1},
		MinPenalty:   minPenalty,
	}
}

// HWControllerValidated returns the cached validated hardware controller
// for the given knobs, designing it on first use. Concurrent callers with
// the same knobs share one synthesis (single-flight); callers with different
// knobs synthesize in parallel.
func (p *Platform) HWControllerValidated(hp HWParams) (*robust.Controller, error) {
	p.mu.Lock()
	if p.hwCache == nil {
		p.hwCache = make(map[HWParams]*hwEntry)
	}
	e, ok := p.hwCache[hp]
	if !ok {
		e = &hwEntry{}
		p.hwCache[hp] = e
	}
	m := p.metrics
	p.mu.Unlock()
	countCache(m, ok)
	e.once.Do(func() { e.ctl, e.err = p.SynthesizeHWSSVValidated(hp) })
	return e.ctl, e.err
}

// OSControllerValidated returns the cached validated software controller for
// the given knobs, designing it on first use (validated against the default
// hardware controller). Single-flight per knob set, as for the hardware
// cache.
func (p *Platform) OSControllerValidated(op OSParams) (*robust.Controller, error) {
	hwCtl, err := p.HWControllerValidated(DefaultHWParams())
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.osCache == nil {
		p.osCache = make(map[OSParams]*osEntry)
	}
	e, ok := p.osCache[op]
	if !ok {
		e = &osEntry{}
		p.osCache[op] = e
	}
	m := p.metrics
	p.mu.Unlock()
	countCache(m, ok)
	e.once.Do(func() { e.ctl, e.err = p.SynthesizeOSSSVValidated(op, hwCtl) })
	return e.ctl, e.err
}

// MonolithicLQGController returns the cached §VI-B monolithic LQG design,
// synthesizing it on first use (single-flight).
func (p *Platform) MonolithicLQGController() (*robust.Controller, error) {
	e := &p.monoLQG
	p.mu.Lock()
	m, hit := p.metrics, e.seen
	e.seen = true
	p.mu.Unlock()
	countCache(m, hit)
	e.once.Do(func() { e.ctl, e.err = p.SynthesizeMonolithicLQG() })
	return e.ctl, e.err
}

// DecoupledLQGControllers returns the cached §VI-B decoupled LQG pair,
// synthesizing it on first use (single-flight).
func (p *Platform) DecoupledLQGControllers() (hw, os *robust.Controller, err error) {
	e := &p.decoupLQG
	p.mu.Lock()
	m, hit := p.metrics, e.seen
	e.seen = true
	p.mu.Unlock()
	countCache(m, hit)
	e.once.Do(func() { e.hw, e.os, e.err = p.SynthesizeDecoupledLQG() })
	return e.hw, e.os, e.err
}

// WarmCaches pre-synthesizes the validated controllers for every given
// parameter set, plus (when warmLQG is set) the LQG baseline designs, using
// one goroutine per distinct design. It exists so a worker pool can fan out
// experiment runs immediately afterwards without any worker paying a
// synthesis on its critical path; the single-flight caches make concurrent
// warming (or warming concurrent with running) safe and duplicate-free. The
// first error encountered is returned, but every design is still attempted.
func (p *Platform) WarmCaches(hws []HWParams, ops []OSParams, warmLQG bool) error {
	var wg sync.WaitGroup
	errc := make(chan error, len(hws)+len(ops)+1)
	for _, hp := range hws {
		wg.Add(1)
		go func(hp HWParams) {
			defer wg.Done()
			if _, err := p.HWControllerValidated(hp); err != nil {
				errc <- err
			}
		}(hp)
	}
	for _, op := range ops {
		wg.Add(1)
		go func(op OSParams) {
			defer wg.Done()
			if _, err := p.OSControllerValidated(op); err != nil {
				errc <- err
			}
		}(op)
	}
	if warmLQG {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.MonolithicLQGController(); err != nil {
				errc <- err
				return
			}
			if _, _, err := p.DecoupledLQGControllers(); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// NewHWRuntime wires a synthesized hardware controller to the board signals.
func (p *Platform) NewHWRuntime(ctl *robust.Controller) (*ssvctl.Runtime, error) {
	return ssvctl.New(ssvctl.Config{
		Controller:     ctl,
		OutputScales:   scalesFor(p.Data.OutScales, hwOutCols),
		ExternalScales: scalesFor(inputScales(p.Cfg), hwInCols[4:]),
		InputScales:    scalesFor(inputScales(p.Cfg), hwInCols[:4]),
		InputLevels:    levelsFor(inputLevels(p.Cfg), hwInCols[:4]),
		// Hotplug one core and at most two DVFS steps per interval.
		SlewLevels: []int{1, 1, 2, 2},
	})
}

// NewOSRuntime wires a synthesized software controller to the board signals.
func (p *Platform) NewOSRuntime(ctl *robust.Controller) (*ssvctl.Runtime, error) {
	return ssvctl.New(ssvctl.Config{
		Controller:     ctl,
		OutputScales:   scalesFor(p.Data.OutScales, osOutCols),
		ExternalScales: scalesFor(inputScales(p.Cfg), osInCols[3:]),
		InputScales:    scalesFor(inputScales(p.Cfg), osInCols[:3]),
		InputLevels:    levelsFor(inputLevels(p.Cfg), osInCols[:3]),
		// Migrate at most two threads and shift packing one level per
		// interval.
		SlewLevels: []int{2, 1, 1},
	})
}

// SynthesizeMonolithicLQG builds the single LQG controller that manages both
// layers (§VI-B, the use in [35]): all seven actuators are controls and all
// seven observable signals are outputs.
func (p *Platform) SynthesizeMonolithicLQG() (*robust.Controller, error) {
	weights := make([]float64, numInputs)
	for i := range weights {
		weights[i] = 1
	}
	return robust.SynthesizeLQG(&robust.Spec{
		Plant:        p.Mono, // 7 inputs → 7 outputs
		NumControls:  numInputs,
		InputWeights: weights,
		InputQuanta:  p.quantaFor(hwInCols),
		OutputBounds: []float64{
			fracToNorm(0.2), fracToNorm(0.1), fracToNorm(0.1), fracToNorm(0.1),
			fracToNorm(0.2), fracToNorm(0.2), fracToNorm(0.2),
		},
		Uncertainty: 0.4,
	})
}

// SynthesizeDecoupledLQG builds the two independent LQG controllers (no
// external signals) of the Decoupled HW LQG + OS LQG scheme.
func (p *Platform) SynthesizeDecoupledLQG() (hw, os *robust.Controller, err error) {
	hw, err = robust.SynthesizeLQG(&robust.Spec{
		Plant:        p.HWOnly,
		NumControls:  4,
		InputWeights: []float64{1, 1, 1, 1},
		InputQuanta:  p.quantaFor(hwOnlyInCols),
		OutputBounds: []float64{
			fracToNorm(0.2), fracToNorm(0.1), fracToNorm(0.1), fracToNorm(0.1),
		},
		Uncertainty: 0.4,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoupled HW LQG: %w", err)
	}
	os, err = robust.SynthesizeLQG(&robust.Spec{
		Plant:        p.OSOnly,
		NumControls:  3,
		InputWeights: []float64{2, 2, 2},
		InputQuanta:  p.quantaFor(osOnlyInCols),
		OutputBounds: []float64{fracToNorm(0.2), fracToNorm(0.2), fracToNorm(0.2)},
		Uncertainty:  0.5,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoupled OS LQG: %w", err)
	}
	return hw, os, nil
}

// NewDecoupledHWLQGRuntime wires the decoupled hardware LQG controller (no
// external signals) to the board signals — exposed for the §VI-B
// convergence experiment.
func (p *Platform) NewDecoupledHWLQGRuntime(ctl *robust.Controller) (*lqgctl.Runtime, error) {
	return p.newLQGRuntime(ctl, hwOnlyInCols, hwOutCols)
}

// newLQGRuntime wires an LQG controller to board signals given its column
// sets.
func (p *Platform) newLQGRuntime(ctl *robust.Controller, inCols, outCols []int) (*lqgctl.Runtime, error) {
	nu := ctl.NumCtrl
	return lqgctl.New(lqgctl.Config{
		Controller:     ctl,
		OutputScales:   scalesFor(p.Data.OutScales, outCols),
		ExternalScales: scalesFor(inputScales(p.Cfg), inCols[nu:]),
		InputScales:    scalesFor(inputScales(p.Cfg), inCols[:nu]),
		InputLevels:    levelsFor(inputLevels(p.Cfg), inCols[:nu]),
	})
}
