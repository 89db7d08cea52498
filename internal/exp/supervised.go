package exp

import (
	"fmt"
	"math"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/series"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
)

// DefaultClassIntensity is the fault intensity the per-class supervised
// sweep ships at — deliberately above the robustness sweep's harshest grid
// point, because the supervised-vs-unsupervised comparison is only
// interesting where the primary controller genuinely leaves its validity
// envelope.
const DefaultClassIntensity = 2.0

// SupervisorAgg aggregates the supervisory accounting of one table cell
// (one scheme × fault level, across apps), converted to seconds.
type SupervisorAgg struct {
	// Trips is the total confirmed transfers to the fallback.
	Trips int
	// Recoveries is the total completed trip-to-nominal round trips.
	Recoveries int
	// FallbackS is the total simulated time the fallback held authority.
	FallbackS float64
	// MeanRecoveryS is the mean trip-to-nominal latency in simulated
	// seconds over completed recoveries (0 when none completed).
	MeanRecoveryS float64

	latencySteps int
	intervalS    float64
}

// add accumulates one run's supervisory stats into the cell aggregate.
func (a *SupervisorAgg) add(st supervisor.Stats, intervalS float64) {
	a.Trips += st.Trips
	a.Recoveries += st.Recoveries
	a.FallbackS += float64(float64(st.FallbackSteps) * intervalS)
	a.latencySteps += st.RecoveryLatencySteps
	a.intervalS = intervalS
	if a.Recoveries > 0 {
		a.MeanRecoveryS = float64(a.latencySteps) / float64(a.Recoveries) * a.intervalS
	}
}

// render formats the aggregate as "trips/fallback/recovery" cell text.
func (a SupervisorAgg) render() string {
	rec := "-"
	if a.Recoveries > 0 {
		rec = fmt.Sprintf("%.1fs", a.MeanRecoveryS)
	}
	return fmt.Sprintf("%d / %.1fs / %s", a.Trips, a.FallbackS, rec)
}

// ClassTable is the supervised-vs-unsupervised degradation table, one row
// per isolated fault class at a single (high) intensity. Degradation is
// faulted E×D over the same scheme's clean E×D, geometric mean across apps.
type ClassTable struct {
	// Title heads the rendered table.
	Title string
	// Seed is the fault campaign seed; Intensity the single intensity used.
	Seed      int64
	Intensity float64
	// Classes and Apps give the rows and the aggregation set in run order.
	Classes []string
	Apps    []string
	// Unsupervised and Supervised hold the scheme names compared.
	Unsupervised, Supervised string
	// UnsupDegradation[k] and SupDegradation[k] are the geomean E×D ratios
	// for Classes[k].
	UnsupDegradation, SupDegradation []float64
	// SupStats[k] aggregates the supervisor accounting for Classes[k].
	SupStats []SupervisorAgg
	// CleanStats aggregates the supervisor accounting of the clean
	// (fault-free) supervised runs; the safety layer must record zero trips
	// here.
	CleanStats SupervisorAgg
	// Incomplete counts runs that hit the MaxTime abort.
	Incomplete int
}

// Render writes the per-class comparison and the clean-run trip check as
// aligned text.
func (t *ClassTable) Render() string {
	tab := &series.Table{Header: []string{"fault class", "unsupervised ×", "supervised ×",
		"trips / fallback / recovery"}}
	for k, cls := range t.Classes {
		tab.AddRow(cls,
			fmt.Sprintf("%.3f", t.UnsupDegradation[k]),
			fmt.Sprintf("%.3f", t.SupDegradation[k]),
			t.SupStats[k].render())
	}
	var sb stringsBuilder
	fmt.Fprintf(&sb, "%s (seed %d, intensity %.2f, apps: %v)\n", t.Title, t.Seed, t.Intensity, t.Apps)
	fmt.Fprintf(&sb, "unsupervised = %q, supervised = %q\n", t.Unsupervised, t.Supervised)
	tab.Render(&sb)
	fmt.Fprintf(&sb, "\nclean supervised runs: %s\n", t.CleanStats.render())
	if t.Incomplete > 0 {
		fmt.Fprintf(&sb, "%d run(s) aborted at the time limit.\n", t.Incomplete)
	}
	return sb.String()
}

// SupervisedClassSweep compares the full SSV stack with and without the
// supervisory safety layer under each isolated fault class at one (high)
// intensity. Pass nil apps for the quick four-app subset and intensity <= 0
// for DefaultClassIntensity. Deterministic at any Parallelism, like every
// sweep in this package.
func (c *Context) SupervisedClassSweep(apps []string, intensity float64) (*ClassTable, error) {
	if apps == nil {
		apps = []string{"gamess", "mcf", "blackscholes", "streamcluster"}
	}
	if intensity <= 0 {
		intensity = DefaultClassIntensity
	}
	schemes := []core.Scheme{
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()),
		c.P.SupervisedYuktaSSV(core.DefaultHWParams(), core.DefaultOSParams()),
	}
	if c.workers() > 1 {
		if err := c.warmSchemes(schemes); err != nil {
			return nil, err
		}
	}
	classes := fault.ClassNames()

	// Jobs: level-major (clean first, then each class), then scheme, then app.
	levels := append([]string{"clean"}, classes...)
	type cell struct {
		exd       float64
		completed bool
		sup       *supervisor.Stats
		intervalS float64
	}
	nPer := len(schemes) * len(apps)
	results := make([]cell, len(levels)*nPer)
	err := c.forEach(len(results), func(i int) error {
		level := levels[i/nPer]
		sch := schemes[(i%nPer)/len(apps)]
		app := apps[i%len(apps)]
		w, err := workload.Lookup(app)
		if err != nil {
			return err
		}
		opt := c.scalarOpts()
		if level != "clean" {
			opt.Faults = fault.PresetClass(c.Seed, intensity, level)
		}
		rec := c.attachRecorder(&opt)
		res, err := core.Run(c.P.Cfg, sch, w, opt)
		if err != nil {
			return fmt.Errorf("exp: %s on %s under %s faults: %w", sch.Name, app, level, err)
		}
		if rec != nil {
			stem := fmt.Sprintf("class-%s-%s-%s", cleanName(level), cleanName(sch.Name), cleanName(app))
			if err := c.writeTrace(stem, rec); err != nil {
				return err
			}
		}
		results[i] = cell{exd: res.ExD, completed: res.Completed,
			sup: res.Supervisor, intervalS: res.IntervalS}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &ClassTable{
		Title:            "Supervised vs unsupervised SSV: E×D degradation per fault class",
		Seed:             c.Seed,
		Intensity:        intensity,
		Classes:          classes,
		Apps:             apps,
		Unsupervised:     schemes[0].Name,
		Supervised:       schemes[1].Name,
		UnsupDegradation: make([]float64, len(classes)),
		SupDegradation:   make([]float64, len(classes)),
		SupStats:         make([]SupervisorAgg, len(classes)),
	}
	at := func(level, si, ai int) cell { return results[level*nPer+si*len(apps)+ai] }
	for _, si := range []int{0, 1} {
		for ai := range apps {
			cl := at(0, si, ai)
			if !cl.completed {
				out.Incomplete++
			}
			if si == 1 && cl.sup != nil {
				out.CleanStats.add(*cl.sup, cl.intervalS)
			}
		}
	}
	for k := range classes {
		for si, dst := range []*[]float64{&out.UnsupDegradation, &out.SupDegradation} {
			logSum := 0.0
			for ai := range apps {
				f := at(k+1, si, ai)
				if !f.completed {
					out.Incomplete++
				}
				logSum += math.Log(f.exd / at(0, si, ai).exd)
				if si == 1 && f.sup != nil {
					out.SupStats[k].add(*f.sup, f.intervalS)
				}
			}
			(*dst)[k] = math.Exp(logSum / float64(len(apps)))
		}
	}
	return out, nil
}
