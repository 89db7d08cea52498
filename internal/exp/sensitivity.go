package exp

import (
	"fmt"
	"time"

	"yukta/internal/core"
	"yukta/internal/series"
	"yukta/internal/ssvctl"
	"yukta/internal/workload"
)

// boundsVariants are the §VI-E1 output-deviation-bound settings: the paper's
// default ±20% performance bound (±1 BIPS in their absolute terms), then
// ±30% and ±50%, with the critical outputs scaled proportionally.
func boundsVariants() []struct {
	Label string
	HW    core.HWParams
	OS    core.OSParams
} {
	mk := func(label string, scale float64) struct {
		Label string
		HW    core.HWParams
		OS    core.OSParams
	} {
		hw := core.DefaultHWParams()
		hw.PerfBoundFrac *= scale
		hw.CriticalBoundFrac *= scale
		os := core.DefaultOSParams()
		os.BoundFrac *= scale
		return struct {
			Label string
			HW    core.HWParams
			OS    core.OSParams
		}{label, hw, os}
	}
	return []struct {
		Label string
		HW    core.HWParams
		OS    core.OSParams
	}{
		mk("±20% (paper default)", 1.0),
		mk("±30%", 1.5),
		mk("±50%", 2.5),
	}
}

// Fig15a reproduces Figure 15(a): performance of blackscholes versus time
// with fixed output targets, for the three output-deviation-bound settings.
// Targets follow §VI-E1: Perf 5.5 BIPS, big power 2.5 W, little power 0.2 W,
// temperature 70 °C; OS targets 1 / 4.5 BIPS and ΔSC = 1.
func (c *Context) Fig15a() (*TraceSet, error) {
	out := &TraceSet{Title: "Figure 15(a): fixed-target tracking, blackscholes (target 5.5 BIPS)",
		Series: map[string]*series.Series{}}
	vs := boundsVariants()
	traces := make([]*series.Series, len(vs))
	err := c.forEach(len(vs), func(i int) error {
		v := vs[i]
		hw, err := c.P.NewFixedHWSession(v.HW, []float64{5.5, 2.5, 0.2, 70})
		if err != nil {
			return err
		}
		os, err := c.P.NewFixedOSSession(v.OS, []float64{1, 4.5, 1})
		if err != nil {
			return err
		}
		sch := core.Scheme{Name: v.Label, New: func() (core.Session, error) {
			return &core.FixedTargetSession{HW: hw, OS: os}, nil
		}}
		w, err := workload.Lookup("blackscholes")
		if err != nil {
			return err
		}
		res, err := core.Run(c.P.Cfg, sch, w,
			core.RunOptions{MaxTime: 500 * time.Second, Metrics: c.Metrics})
		if err != nil {
			return err
		}
		traces[i] = res.Perf
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		out.Order = append(out.Order, v.Label)
		out.Series[v.Label] = traces[i]
	}
	return out, nil
}

// Fig15b reproduces Figure 15(b): average E×D of Yukta: HW SSV+OS SSV for
// the three bound settings, normalized to the Coordinated heuristic (pass
// nil for the full suite).
func (c *Context) Fig15b(apps []string) (*BarSet, error) {
	if apps == nil {
		apps = EvalApps()
	}
	schemes := []core.Scheme{c.P.CoordinatedHeuristic()}
	for _, v := range boundsVariants() {
		v := v
		sch := c.P.YuktaFullSSV(v.HW, v.OS)
		sch.Name = "Yukta " + v.Label
		schemes = append(schemes, sch)
	}
	exd, _, err := c.runMatrix("Figure 15(b): E×D vs output bounds", schemes, apps, appLoader)
	return exd, err
}

// GuardbandPoint is one sample of the Figure 16 sweep.
type GuardbandPoint struct {
	Guardband float64
	// BoundsGrowth is the guaranteed output-deviation bound relative to the
	// ±40% design (Fig. 16a).
	BoundsGrowth float64
	// SSV and penalty document the synthesized design.
	SSV     float64
	Penalty float64
}

// Fig16a reproduces Figure 16(a): how the guaranteed output deviation
// bounds grow as the uncertainty guardband increases from the default ±40%.
func (c *Context) Fig16a() ([]GuardbandPoint, error) {
	gbs := []float64{0.4, 1.0, 1.5, 2.5, 5.0}
	out := make([]GuardbandPoint, len(gbs))
	err := c.forEach(len(gbs), func(i int) error {
		gb := gbs[i]
		hp := core.DefaultHWParams()
		hp.Uncertainty = gb
		// Hold the controller's aggressiveness (W, B) fixed at the default
		// design's penalty: the growing guardband then shows up directly as
		// growing guaranteed bounds (min(s) < 1), the paper's reading of the
		// sweep.
		ctl, err := c.P.DesignHWAtPenalty(hp, 1)
		if err != nil {
			return fmt.Errorf("exp: guardband %.0f%%: %w", gb*100, err)
		}
		out[i] = GuardbandPoint{
			Guardband:    gb,
			BoundsGrowth: ctl.Report.GuaranteedBounds[0],
			SSV:          ctl.Report.SSV,
			Penalty:      ctl.Report.ControlPenalty,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Normalize to the first (default-guardband) design after all points are
	// in, so the reference does not depend on completion order.
	ref := out[0].BoundsGrowth
	if ref != 0 {
		for i := range out {
			out[i].BoundsGrowth /= ref
		}
	}
	return out, nil
}

// Fig16b reproduces Figure 16(b): E×D of Yukta: HW SSV+OS SSV for different
// uncertainty guardbands, normalized to the Coordinated heuristic.
func (c *Context) Fig16b(apps []string) (*BarSet, error) {
	if apps == nil {
		apps = EvalApps()
	}
	schemes := []core.Scheme{c.P.CoordinatedHeuristic()}
	for _, gb := range []float64{0.4, 1.5, 2.5, 5.0} {
		hp := core.DefaultHWParams()
		hp.Uncertainty = gb
		op := core.DefaultOSParams()
		sch := c.P.YuktaFullSSV(hp, op)
		sch.Name = fmt.Sprintf("Yukta ±%.0f%% guardband", gb*100)
		schemes = append(schemes, sch)
	}
	exd, _, err := c.runMatrix("Figure 16(b): E×D vs uncertainty guardband", schemes, apps, appLoader)
	return exd, err
}

// Fig17 reproduces Figure 17: big-cluster power versus time when tracking a
// fixed 2.5 W big-power target, for input weights 0.5, 1 and 2.
func (c *Context) Fig17() (*TraceSet, error) {
	out := &TraceSet{Title: "Figure 17: big-cluster power (W) tracking 2.5 W, by input weight",
		Series: map[string]*series.Series{}}
	weights := []float64{0.5, 1, 2}
	labels := make([]string, len(weights))
	traces := make([]*series.Series, len(weights))
	err := c.forEach(len(weights), func(i int) error {
		w := weights[i]
		hp := core.DefaultHWParams()
		hp.InputWeight = w
		hw, err := c.P.NewFixedHWSession(hp, []float64{5.5, 2.5, 0.2, 70})
		if err != nil {
			return err
		}
		os, err := c.P.NewFixedOSSession(core.DefaultOSParams(), []float64{1, 4.5, 1})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("input weights %.1f", w)
		sch := core.Scheme{Name: label, New: func() (core.Session, error) {
			return &core.FixedTargetSession{HW: hw, OS: os}, nil
		}}
		wk, err := workload.Lookup("blackscholes")
		if err != nil {
			return err
		}
		res, err := core.Run(c.P.Cfg, sch, wk,
			core.RunOptions{MaxTime: 500 * time.Second, Metrics: c.Metrics})
		if err != nil {
			return err
		}
		labels[i] = label
		traces[i] = res.BigPower
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range weights {
		out.Order = append(out.Order, labels[i])
		out.Series[labels[i]] = traces[i]
	}
	return out, nil
}

// HWCost reproduces §VI-D: the hardware-implementation characteristics of
// the hardware SSV controller.
type HWCost struct {
	StateDim              int
	Inputs, Outputs, Exts int
	OpsPerInvocation      int
	StorageBytes          int
}

// HWCostReport computes the §VI-D metrics for the default hardware
// controller.
func (c *Context) HWCostReport() (*HWCost, error) {
	ctl, err := c.P.HWControllerValidated(core.DefaultHWParams())
	if err != nil {
		return nil, err
	}
	rt, err := c.P.NewHWRuntime(ctl)
	if err != nil {
		return nil, err
	}
	return &HWCost{
		StateDim:         ctl.Report.StateDim,
		Inputs:           ctl.NumCtrl,
		Outputs:          ctl.NumOut,
		Exts:             ctl.NumExt,
		OpsPerInvocation: rt.OpsPerStep(),
		StorageBytes:     rt.StateBytes(),
	}, nil
}

// NewHWStepRuntime returns a ready runtime for micro-benchmarking one
// controller invocation (§VI-D measures ~28 µs on a Cortex-A7).
func (c *Context) NewHWStepRuntime() (*ssvctl.Runtime, error) {
	ctl, err := c.P.HWControllerValidated(core.DefaultHWParams())
	if err != nil {
		return nil, err
	}
	return c.P.NewHWRuntime(ctl)
}
