// Package yukta is a pure-Go reproduction of "Yukta: Multilayer Resource
// Controllers to Maximize Efficiency" (Pothukuchi, Pothukuchi, Voulgaris,
// Torrellas — ISCA 2018): coordinated multilayer resource controllers built
// on Structured Singular Value (SSV) robust control.
//
// The package exposes the full pipeline the paper describes:
//
//   - a simulated ODROID XU3 big.LITTLE board with DVFS, hotplug, power and
//     thermal sensors, and firmware emergency heuristics (the prototype
//     platform of §IV–V);
//   - black-box System Identification of order-4 MIMO models (§IV-C);
//   - SSV controller synthesis with designer-specified input weights,
//     quantization, output deviation bounds and uncertainty guardbands
//     (§II–III), plus the LQG baseline of §VI-B;
//   - the two-layer hardware/OS controller stack with per-layer E×D
//     optimizers and external-signal coordination (§IV);
//   - the evaluation harness regenerating every table and figure of §VI.
//
// # Quick start
//
//	platform, err := yukta.NewDefaultPlatform()   // identification + models
//	if err != nil { ... }
//	scheme := platform.YuktaFullSSV(yukta.DefaultHWParams(), yukta.DefaultOSParams())
//	app, _ := yukta.LookupWorkload("blackscholes")
//	result, err := yukta.Run(platform.Cfg, scheme, app, yukta.RunOptions{})
//	fmt.Printf("E×D = %.0f J·s in %.1f s\n", result.ExD, result.TimeS)
//
// The experiment harness lives in yukta/internal/exp and is driven by the
// cmd/yukta-bench tool; the lower layers (matrix algebra, LTI systems,
// robust synthesis, the board simulator) are importable internal packages.
package yukta

import (
	"io"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/robust"
	"yukta/internal/workload"
)

// Facade aliases: the public API re-exports the core types so downstream
// code imports a single package.
type (
	// Platform bundles the identified models and cached validated
	// controllers for one board configuration.
	Platform = core.Platform
	// Scheme is a named controller stack (Table IV of the paper).
	Scheme = core.Scheme
	// Session is one run's controller instance.
	Session = core.Session
	// RunResult is the outcome of one workload execution.
	RunResult = core.RunResult
	// RunOptions bounds a run.
	RunOptions = core.RunOptions
	// HWParams are the hardware controller's designer knobs (Table II).
	HWParams = core.HWParams
	// OSParams are the software controller's designer knobs (Table III).
	OSParams = core.OSParams
	// BoardConfig is the simulated ODROID XU3 configuration.
	BoardConfig = board.Config
	// IdentifyOptions configures the system-identification campaign.
	IdentifyOptions = core.IdentifyOptions
	// Controller is a synthesized SSV (or LQG) controller with its
	// robustness report.
	Controller = robust.Controller
	// Workload is a runnable application or mix.
	Workload = workload.Workload
	// FixedTargetSession runs the SSV layers with constant output targets
	// (the §VI-E1 experiments).
	FixedTargetSession = core.FixedTargetSession
	// FlightRecorder is the per-run control-loop decision log; attach one
	// via RunOptions.Trace and export with WriteJSONL/WriteCSV/Timeline.
	FlightRecorder = obs.Recorder
	// MetricsRegistry aggregates counters, gauges and latency histograms
	// across runs; attach one via RunOptions.Metrics.
	MetricsRegistry = obs.Registry
	// FaultPlan is a deterministic fault-injection campaign; attach one via
	// RunOptions.Faults.
	FaultPlan = fault.Plan
)

// NewFlightRecorder returns a flight recorder holding the last capacity
// control intervals (obs.DefaultCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewRecorder(capacity) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// FaultPreset returns the paper-reproduction fault campaign at the given
// intensity (1.0 = the harness's harshest default grid point), seeded so
// identical runs see identical fault sequences.
func FaultPreset(seed int64, intensity float64) FaultPlan { return fault.Preset(seed, intensity) }

// ValidateTrace checks a JSONL flight-recorder stream against the record
// schema and returns the number of valid records.
func ValidateTrace(r io.Reader) (int, error) { return obs.ValidateJSONL(r) }

// DefaultBoardConfig returns the ODROID XU3 calibration (§IV).
func DefaultBoardConfig() BoardConfig { return board.DefaultConfig() }

// DefaultHWParams returns Table II's designer values.
func DefaultHWParams() HWParams { return core.DefaultHWParams() }

// DefaultOSParams returns Table III's designer values.
func DefaultOSParams() OSParams { return core.DefaultOSParams() }

// NewPlatform runs the identification experiments on the given board
// configuration and fits the controller design models.
func NewPlatform(cfg BoardConfig, opt IdentifyOptions) (*Platform, error) {
	return core.NewPlatform(cfg, opt)
}

// NewDefaultPlatform is NewPlatform with the default board and
// identification options.
func NewDefaultPlatform() (*Platform, error) {
	return core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
}

// Run executes the workload under the scheme on a fresh simulated board.
func Run(cfg BoardConfig, sch Scheme, w Workload, opt RunOptions) (*RunResult, error) {
	return core.Run(cfg, sch, w, opt)
}

// LookupWorkload returns a fresh instance of a named benchmark application
// (see EvaluationApps and TrainingApps for the catalog).
func LookupWorkload(name string) (Workload, error) { return workload.Lookup(name) }

// EvaluationApps lists the paper's evaluation programs: SPEC CPU2006 first,
// then PARSEC (§V-A).
func EvaluationApps() []string {
	return append(workload.EvaluationSPEC(), workload.EvaluationPARSEC()...)
}

// TrainingApps lists the identification training programs (§V-A).
func TrainingApps() []string { return workload.TrainingSet() }

// HeterogeneousMixes returns the §VI-C program mixes (blmc, stga, blst,
// mcga) as runnable workloads.
func HeterogeneousMixes() []Workload {
	mixes := workload.HeterogeneousMixes()
	out := make([]Workload, len(mixes))
	for i, m := range mixes {
		out[i] = m
	}
	return out
}
