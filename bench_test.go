package yukta

// One benchmark per table and figure of the paper's evaluation (Section VI).
// Each benchmark regenerates its artifact through the experiment harness and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The figure benchmarks run a representative
// application subset per iteration to keep wall-clock reasonable; the
// cmd/yukta-bench tool runs the complete suites.

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"yukta/internal/exp"
	"yukta/internal/ssvctl"
)

var (
	benchOnce sync.Once
	benchCtx  *exp.Context
	benchErr  error
)

func benchContext(b *testing.B) *exp.Context {
	b.Helper()
	benchOnce.Do(func() {
		// YUKTA_BENCH_PARALLEL pins the harness worker count (0/unset =
		// NumCPU), so the parallel speedup can be measured:
		//   YUKTA_BENCH_PARALLEL=1 go test -bench=BenchmarkFig9aEnergyDelay .
		var opt exp.Options
		if v := os.Getenv("YUKTA_BENCH_PARALLEL"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				opt.Parallelism = n
			}
		}
		benchCtx, benchErr = exp.NewContextWithOptions(opt)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// benchApps is the representative subset used by the per-figure benchmarks.
var benchApps = []string{"gamess", "mcf", "blackscholes", "streamcluster"}

// BenchmarkFig9aEnergyDelay regenerates Figure 9(a): E×D of the four
// two-layer schemes, reporting Yukta's average normalized E×D.
func BenchmarkFig9aEnergyDelay(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exd, _, err := c.Fig9(benchApps)
		if err != nil {
			b.Fatal(err)
		}
		_, _, avg := exd.Averages("Yukta: HW SSV+OS SSV")
		b.ReportMetric(avg, "yuktaExD/baseline")
	}
}

// BenchmarkFig9bExecTime regenerates Figure 9(b): execution time.
func BenchmarkFig9bExecTime(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, times, err := c.Fig9(benchApps)
		if err != nil {
			b.Fatal(err)
		}
		_, _, avg := times.Averages("Yukta: HW SSV+OS SSV")
		b.ReportMetric(avg, "yuktaTime/baseline")
	}
}

// BenchmarkFig10PowerTrace regenerates Figure 10: big-cluster power traces
// of blackscholes, reporting the decoupled scheme's power swing count.
func BenchmarkFig10PowerTrace(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		tr, err := c.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tr.Series["Decoupled heuristic"].Summarize().Oscillations), "decoupledSwings")
	}
}

// BenchmarkFig11PerfTrace regenerates Figure 11: BIPS traces of
// blackscholes, reporting Yukta's completion time.
func BenchmarkFig11PerfTrace(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		tr, err := c.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		s := tr.Series["Yukta: HW SSV+OS SSV"]
		b.ReportMetric(s.T[len(s.T)-1], "yuktaCompletion_s")
	}
}

// BenchmarkFig12LQGEnergyDelay regenerates Figure 12: E×D of the LQG-based
// designs.
func BenchmarkFig12LQGEnergyDelay(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		exd, _, err := c.Fig12and13(benchApps)
		if err != nil {
			b.Fatal(err)
		}
		_, _, avg := exd.Averages("Monolithic LQG")
		b.ReportMetric(avg, "monoLQGExD/baseline")
	}
}

// BenchmarkFig13LQGExecTime regenerates Figure 13: execution time of the
// LQG-based designs.
func BenchmarkFig13LQGExecTime(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		_, times, err := c.Fig12and13(benchApps)
		if err != nil {
			b.Fatal(err)
		}
		_, _, avg := times.Averages("Monolithic LQG")
		b.ReportMetric(avg, "monoLQGTime/baseline")
	}
}

// BenchmarkFig14Heterogeneous regenerates Figure 14: E×D on the program
// mixes of §VI-C under every scheme.
func BenchmarkFig14Heterogeneous(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		exd, err := c.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		norm := exd.Normalized()["Yukta: HW SSV+OS SSV"]
		var avg float64
		for _, a := range exd.Apps {
			avg += norm[a]
		}
		b.ReportMetric(avg/float64(len(exd.Apps)), "yuktaMixExD/baseline")
	}
}

// BenchmarkFig15aBoundsTracking regenerates Figure 15(a): fixed-target
// tracking under three output-deviation-bound settings.
func BenchmarkFig15aBoundsTracking(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		tr, err := c.Fig15a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tr.Series["±20% (paper default)"].MeanAbove(40), "perfAtTarget_BIPS")
	}
}

// BenchmarkFig15bBoundsEnergyDelay regenerates Figure 15(b): E×D versus
// output deviation bounds.
func BenchmarkFig15bBoundsEnergyDelay(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		exd, err := c.Fig15b([]string{"blackscholes", "gamess"})
		if err != nil {
			b.Fatal(err)
		}
		_, _, avg := exd.Averages("Yukta ±20% (paper default)")
		b.ReportMetric(avg, "tightBoundsExD/baseline")
	}
}

// BenchmarkFig16aGuardbandBounds regenerates Figure 16(a): guaranteed
// deviation bounds versus uncertainty guardband (synthesis only).
func BenchmarkFig16aGuardbandBounds(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		points, err := c.Fig16a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[len(points)-1].BoundsGrowth, "boundsAt500pct")
	}
}

// BenchmarkFig16bGuardbandEnergyDelay regenerates Figure 16(b): E×D versus
// uncertainty guardband.
func BenchmarkFig16bGuardbandEnergyDelay(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		exd, err := c.Fig16b([]string{"blackscholes", "gamess"})
		if err != nil {
			b.Fatal(err)
		}
		_, _, avg := exd.Averages("Yukta ±40% guardband")
		b.ReportMetric(avg, "defaultGuardbandExD/baseline")
	}
}

// BenchmarkFig17InputWeights regenerates Figure 17: power tracking under
// input weights 0.5 / 1 / 2.
func BenchmarkFig17InputWeights(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		tr, err := c.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tr.Series["input weights 0.5"].Summarize().Std, "w05PowerStd_W")
	}
}

// BenchmarkControllerStep measures one invocation of the hardware SSV
// controller's state machine — the §VI-D cost (the paper measures ≈28 µs on
// a Cortex-A7 and envisions a few-mW hardware state machine).
func BenchmarkControllerStep(b *testing.B) {
	c := benchContext(b)
	rt, err := c.NewHWStepRuntime()
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.SetTargets([]float64{6, 2.9, 0.25, 74}); err != nil {
		b.Fatal(err)
	}
	meas := []float64{5.5, 2.8, 0.2, 72}
	ext := []float64{6, 1.5, 1}
	applied := []float64{4, 4, 1.2, 1.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Step(meas, ext, applied); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerStepFixedPoint measures the §VI-D Q16.16 fixed-point
// realization of the same controller — the arithmetic the paper's few-mW
// hardware state machine would execute.
func BenchmarkControllerStepFixedPoint(b *testing.B) {
	c := benchContext(b)
	ctl, err := c.P.HWControllerValidated(exp.DefaultHWParamsForBench())
	if err != nil {
		b.Fatal(err)
	}
	fp, err := ssvctl.NewFixedPointController(ctl)
	if err != nil {
		b.Fatal(err)
	}
	dy := make([]float64, ctl.K.Inputs())
	for i := range dy {
		dy[i] = 0.1 * float64(i%3)
	}
	b.ReportMetric(float64(fp.Ops()), "fixedOps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fp.Step(dy); err != nil {
			b.Fatal(err)
		}
	}
}
