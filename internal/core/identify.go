package core

import (
	"fmt"
	"math/rand"
	"time"

	"yukta/internal/board"
	"yukta/internal/lti"
	"yukta/internal/sysid"
	"yukta/internal/workload"
)

// TrainingData is the raw record of the identification experiments: one row
// of all seven inputs and all seven observable outputs per control interval,
// in physical units, plus the output scalings derived from the observed
// ranges (the paper sets deviation bounds as percentages of these ranges,
// §IV-A).
type TrainingData struct {
	U, Y      [][]float64
	InScales  []sysid.Scaling
	OutScales []sysid.Scaling
}

// IdentifyOptions configures the identification experiments.
type IdentifyOptions struct {
	// SamplesPerApp is the number of 500 ms control intervals recorded per
	// training application.
	SamplesPerApp int
	// Hold is how many intervals each staircase level is held.
	Hold int
	// Seed drives the staircase excitation.
	Seed int64
}

// DefaultIdentifyOptions returns the options used throughout the evaluation.
func DefaultIdentifyOptions() IdentifyOptions {
	return IdentifyOptions{SamplesPerApp: 420, Hold: 3, Seed: 20180601}
}

// CollectTrainingData runs the System Identification experiments of §IV-C:
// each training application executes on a fresh board while all seven
// actuators are driven through staircase patterns over their allowed levels,
// and every control interval's inputs and outputs are recorded.
func CollectTrainingData(cfg board.Config, opt IdentifyOptions) (*TrainingData, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	levels := identExcitationLevels(cfg)
	td := &TrainingData{InScales: inputScales(cfg)}

	for _, name := range workload.TrainingSet() {
		w, err := workload.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("core: training set: %w", err)
		}
		b := board.New(cfg)
		// Excitation: the run is divided into segments. In half of the
		// segments all inputs follow independent random staircases (joint
		// excitation); in the other half a single input toggles quickly
		// while the rest hold a random level (one-factor-at-a-time), which
		// sharpens the small marginal channels (e.g. the little cluster's
		// frequency) that joint excitation buries under the big cluster's
		// variance.
		const segment = 8
		u := make([]float64, numInputs)
		for i := range u {
			u[i] = levels[i][rng.Intn(len(levels[i]))]
		}
		focus := -1
		for t := 0; t < opt.SamplesPerApp && !w.Done(); t++ {
			if t%segment == 0 {
				if rng.Intn(2) == 0 {
					focus = rng.Intn(numInputs)
				} else {
					focus = -1
				}
				for i := range u {
					u[i] = levels[i][rng.Intn(len(levels[i]))]
				}
			}
			switch {
			case focus >= 0 && t%2 == 0:
				u[focus] = levels[focus][rng.Intn(len(levels[focus]))]
			case focus < 0 && t%opt.Hold == 0:
				for i := range u {
					u[i] = levels[i][rng.Intn(len(levels[i]))]
				}
			}
			applyHW(b, u[:4])
			threads := w.Profile().Threads
			applyOS(b, u[4:], threads)
			// Record the values actually actuated (clamped thread counts,
			// effective frequencies).
			actual := inputVector(b)
			s := b.Run(w, 500*time.Millisecond)
			td.U = append(td.U, actual)
			td.Y = append(td.Y, outputVector(s, b, w.Profile().Threads))
		}
	}
	if len(td.U) < 50 {
		return nil, fmt.Errorf("core: identification collected only %d samples", len(td.U))
	}
	td.OutScales = outputScalesFrom(td.Y)
	return td, nil
}

// identExcitationLevels returns the staircase level sets used during
// identification. The actuator ranges are the full physical ones (see
// inputLevels), but the excitation concentrates on the region where a
// controller actually operates — most threads runnable, light packing —
// so the linear fit captures the local input-output slopes there instead of
// averaging them against degenerate corners (e.g. an empty big cluster,
// where no actuator has any effect).
func identExcitationLevels(cfg board.Config) [][]float64 {
	lv := inputLevels(cfg)
	// Duplicated entries weight the draw toward the heavy-big placements
	// that both the HMP-style scheduler and the SSV scheduler visit most.
	lv[inThreadsBig] = []float64{3, 4, 4, 5, 6, 7, 8, 8}
	lv[inTPB] = []float64{1, 1, 1.5, 2, 2}
	lv[inTPL] = []float64{1, 1, 1.5, 2}
	return lv
}

// outputScalesFrom derives each output's scaling from its observed range,
// with a small pad so runtime values slightly beyond the training range stay
// in the normalized band.
func outputScalesFrom(y [][]float64) []sysid.Scaling {
	scales := make([]sysid.Scaling, numOutputs)
	for j := 0; j < numOutputs; j++ {
		mn, mx := y[0][j], y[0][j]
		for _, row := range y {
			if row[j] < mn {
				mn = row[j]
			}
			if row[j] > mx {
				mx = row[j]
			}
		}
		pad := 0.05 * (mx - mn)
		if pad == 0 {
			pad = 0.5
		}
		scales[j] = sysid.Scaling{Min: mn - pad, Max: mx + pad}
	}
	return scales
}

// dataset returns the identification dataset over the selected input and
// output columns, in normalized units.
func (td *TrainingData) dataset(inCols, outCols []int) *sysid.Dataset {
	d := &sysid.Dataset{U: make([][]float64, len(td.U)), Y: make([][]float64, len(td.U))}
	for t := range td.U {
		u := make([]float64, len(inCols))
		for i, c := range inCols {
			u[i] = td.InScales[c].Normalize(td.U[t][c])
		}
		y := make([]float64, len(outCols))
		for i, c := range outCols {
			y[i] = td.OutScales[c].Normalize(td.Y[t][c])
		}
		d.U[t], d.Y[t] = u, y
	}
	return d
}

// modelFor fits an order-4 MIMO ARX model over the selected input and output
// columns, stabilizes it, and reduces it to at most maxOrder states.
func (td *TrainingData) modelFor(inCols, outCols []int, maxOrder int) (*lti.StateSpace, error) {
	m, err := sysid.Identify(td.dataset(inCols, outCols), sysid.PaperOrders, 0.5)
	if err != nil {
		return nil, fmt.Errorf("core: identification failed: %w", err)
	}
	m.Stabilize()
	return m.ReducedStateSpace(maxOrder), nil
}

// Column sets for the five models used by the schemes.
var (
	hwInCols  = []int{inBigCores, inLittleCores, inFreqBig, inFreqLittle, inThreadsBig, inTPB, inTPL}
	hwOutCols = []int{outBIPS, outPowerBig, outPowerLittle, outTemp}

	osInCols  = []int{inThreadsBig, inTPB, inTPL, inBigCores, inLittleCores, inFreqBig, inFreqLittle}
	osOutCols = []int{outBIPSLittle, outBIPSBig, outDeltaSC}

	hwOnlyInCols = []int{inBigCores, inLittleCores, inFreqBig, inFreqLittle}
	osOnlyInCols = []int{inThreadsBig, inTPB, inTPL}

	monoOutCols = []int{outBIPS, outPowerBig, outPowerLittle, outTemp,
		outBIPSLittle, outBIPSBig, outDeltaSC}
)

// HWModel fits the hardware layer's model: 4 controls + 3 external signals
// (the OS's actuations) → the 4 outputs of Table II.
func (td *TrainingData) HWModel() (*lti.StateSpace, error) {
	// Reduced to 16 states, so the synthesized controller (model + 4 output
	// integrators) has the paper's N = 20.
	return td.modelFor(hwInCols, hwOutCols, 16)
}

// OSModel fits the software layer's model: 3 controls + 4 external signals
// (the HW's actuations) → the 3 outputs of Table III.
func (td *TrainingData) OSModel() (*lti.StateSpace, error) {
	return td.modelFor(osInCols, osOutCols, 12)
}

// MonoModel fits the monolithic controller's model: all seven actuators →
// all seven observable outputs, the single-controller view of [35].
func (td *TrainingData) MonoModel() (*lti.StateSpace, error) {
	return td.modelFor(hwInCols, monoOutCols, 21)
}

// HWOnlyModel fits a hardware model without external signals, for the
// decoupled LQG scheme.
func (td *TrainingData) HWOnlyModel() (*lti.StateSpace, error) {
	return td.modelFor(hwOnlyInCols, hwOutCols, 16)
}

// OSOnlyModel fits a scheduling model without external signals, for the
// decoupled LQG scheme.
func (td *TrainingData) OSOnlyModel() (*lti.StateSpace, error) {
	return td.modelFor(osOnlyInCols, osOutCols, 12)
}

// SelectHWOrder runs cross-validated ARX order selection (§IV-C's "dimension
// four" justified empirically) over the hardware layer's signals.
func (p *Platform) SelectHWOrder(maxOrder int) ([]sysid.OrderScore, sysid.Orders, error) {
	return sysid.SelectOrder(p.Data.dataset(hwInCols, hwOutCols), maxOrder, 0.5)
}

// scalesFor projects the stored scalings onto column sets.
func scalesFor(all []sysid.Scaling, cols []int) []sysid.Scaling {
	out := make([]sysid.Scaling, len(cols))
	for i, c := range cols {
		out[i] = all[c]
	}
	return out
}

// levelsFor projects level sets onto column sets.
func levelsFor(all [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(cols))
	for i, c := range cols {
		out[i] = all[c]
	}
	return out
}
