package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"yukta/internal/heuristic"
	"yukta/internal/pool"
	"yukta/internal/robust"
	"yukta/internal/workload"
)

// This file implements the "Validate" stage of the Yukta design process
// (paper Figure 3). A synthesized controller carries a robustness
// certificate against the *declared* uncertainty; validation exercises it on
// the real system (here: the simulated board) before deployment, using only
// training applications. Because the μ certificate admits a range of
// aggressiveness levels, the stage evaluates the candidate ladder end to end
// — each candidate runs with its optimizer in the deployment pairing — and
// keeps the design with the best measured E×D among those that do not fight
// the firmware. This mirrors how the paper's designers picked their final
// parameters "based on a combination of suggestions from theory, system
// insight, and actual experimentation" (§II-B).

// validationPenalties bounds the redesign ladder.
var validationPenalties = []float64{1, 2, 4, 8, 16}

// maxValidationEmergencies is the firmware-intervention budget during a
// validation run.
const maxValidationEmergencies = 4

// hwValidationScore deploys the candidate hardware controller with its E×D
// optimizer under the HMP-style heuristic scheduler (the placement regime
// with the steepest plant gains) on a training application, and returns the
// measured E×D and the firmware emergency count.
func (p *Platform) hwValidationScore(ctl *robust.Controller) (exd float64, emergencies int, err error) {
	rt, err := p.NewHWRuntime(ctl)
	if err != nil {
		return 0, 0, err
	}
	opt, err := p.hwOptimizer()
	if err != nil {
		return 0, 0, err
	}
	hw := &hwSSVSession{rt: rt, opt: opt, base: p.Cfg.BasePowerW}
	sch := Scheme{Name: "validation", New: func() (Session, error) {
		return &splitSession{hw: hw, os: &heurOSAdapter{os: &heuristic.CoordinatedOS{}}}, nil
	}}
	w := workload.MustLookup("swaptions") // training set only
	res, err := Run(p.Cfg, sch, w, RunOptions{MaxTime: 600 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	if !res.Completed {
		return math.Inf(1), res.EmergencyEvents, nil
	}
	return res.ExD, res.EmergencyEvents, nil
}

// SynthesizeHWSSVValidated runs the full design flow for the hardware
// controller: synthesize candidates along the penalty ladder, validate each
// on the (simulated) board, and keep the best-measured design.
func (p *Platform) SynthesizeHWSSVValidated(hp HWParams) (*robust.Controller, error) {
	return validateLadder("HW", func(pen float64) *robust.Spec { return p.hwSpec(hp, pen) },
		p.hwValidationScore)
}

// validateLadder synthesizes a candidate at each validation penalty, scores
// each with the given validation run, and keeps the best-measured one among
// those within the firmware-intervention budget (the last synthesized one
// when none is). Each rung is a pure function of its penalty, so the rungs
// run concurrently on GOMAXPROCS workers into their own slots, and the
// design is then picked from the slots in ladder order, as a sequential
// ladder would (DESIGN.md §19). Only the kept design's μ lower bound is ever
// read, so it alone pays for one: the candidates are synthesized without it.
func validateLadder(layer string, spec func(minPenalty float64) *robust.Spec,
	score func(*robust.Controller) (exd float64, emergencies int, err error)) (*robust.Controller, error) {
	type rung struct {
		spec *robust.Spec
		ctl  *robust.Controller // nil when synthesis failed
		exd  float64
		emg  int
		err  error // the validation run's
	}
	rungs := make([]rung, len(validationPenalties))
	_ = pool.ForEach(runtime.GOMAXPROCS(0), len(rungs), func(i int) error { // failures stay in their slot
		r := &rungs[i]
		r.spec = spec(validationPenalties[i])
		var err error
		if r.ctl, err = robust.SynthesizeWithoutLower(r.spec); err == nil {
			r.exd, r.emg, r.err = score(r.ctl)
		}
		return nil
	})
	var best, fallback *rung
	bestScore := math.Inf(1) // a run that did not complete is never kept
	for i := range rungs {
		r := &rungs[i]
		if r.ctl == nil {
			continue
		}
		fallback = r
		if r.err != nil || r.emg > maxValidationEmergencies {
			continue
		}
		if r.exd < bestScore {
			best, bestScore = r, r.exd
		}
	}
	if best == nil {
		if fallback == nil {
			return nil, fmt.Errorf("core: %s SSV validated synthesis failed at every penalty", layer)
		}
		best = fallback
	}
	robust.FillSSVLower(best.spec, best.ctl)
	return best.ctl, nil
}

// osValidationScore deploys the candidate software controller in the full
// two-layer SSV stack (with the already-validated hardware controller) on a
// training application and returns measured E×D and emergencies.
func (p *Platform) osValidationScore(ctl, hwCtl *robust.Controller) (exd float64, emergencies int, err error) {
	hwRT, err := p.NewHWRuntime(hwCtl)
	if err != nil {
		return 0, 0, err
	}
	hwOpt, err := p.hwOptimizer()
	if err != nil {
		return 0, 0, err
	}
	osRT, err := p.NewOSRuntime(ctl)
	if err != nil {
		return 0, 0, err
	}
	osOpt, err := p.osOptimizer()
	if err != nil {
		return 0, 0, err
	}
	sch := Scheme{Name: "validation", New: func() (Session, error) {
		return &splitSession{
			hw: &hwSSVSession{rt: hwRT, opt: hwOpt, base: p.Cfg.BasePowerW},
			os: &osSSVSession{rt: osRT, opt: osOpt, base: p.Cfg.BasePowerW},
		}, nil
	}}
	w := workload.MustLookup("vips") // training set only
	res, err := Run(p.Cfg, sch, w, RunOptions{MaxTime: 600 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	if !res.Completed {
		return math.Inf(1), res.EmergencyEvents, nil
	}
	return res.ExD, res.EmergencyEvents, nil
}

// SynthesizeOSSSVValidated runs the full design flow for the software
// controller against an already-validated hardware controller.
func (p *Platform) SynthesizeOSSSVValidated(op OSParams, hwCtl *robust.Controller) (*robust.Controller, error) {
	return validateLadder("OS", func(pen float64) *robust.Spec { return p.osSpec(op, pen) },
		func(ctl *robust.Controller) (float64, int, error) { return p.osValidationScore(ctl, hwCtl) })
}
