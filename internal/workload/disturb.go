package workload

import (
	"math"
	"math/rand"
)

// Disturbance parameterizes mid-run workload phase disturbances: windows in
// which part of the thread pool blocks (an I/O stall, a lock convoy, a
// garbage-collection pause) and memory-boundedness surges (a working-set
// shift evicting the caches). Windows are scheduled over executed work, not
// wall-clock time, so a disturbed run stays deterministic regardless of how
// fast the controllers let the workload progress.
//
// All randomness comes from the explicit seed handed to NewDisturbed — the
// workload package owns no package-level RNG — so the same seed reproduces
// the same disturbance schedule in every run, at any experiment parallelism.
type Disturbance struct {
	// MeanPeriodG is the mean executed work (billions of instructions)
	// between disturbance windows; inter-arrival gaps are exponential.
	MeanPeriodG float64
	// DurationG is the executed work each window spans.
	DurationG float64
	// ThreadFrac multiplies the runnable thread count during a window
	// (0 < ThreadFrac <= 1; at least one thread always stays runnable).
	ThreadFrac float64
	// MemBoundAdd is added to the phase's memory-boundedness during a
	// window (the result is capped below 0.9).
	MemBoundAdd float64
}

// enabled reports whether the disturbance would ever perturb a profile.
func (d Disturbance) enabled() bool {
	return d.MeanPeriodG > 0 && d.DurationG > 0 &&
		((d.ThreadFrac > 0 && d.ThreadFrac < 1) || d.MemBoundAdd > 0)
}

// Disturbed wraps a workload with a deterministic, seed-driven schedule of
// phase disturbances. Progress state is shared with the wrapped workload;
// only the reported Profile is perturbed while a window is active.
type Disturbed struct {
	// Inner is the wrapped workload.
	Inner Workload

	d    Disturbance
	seed int64
	rng  *rand.Rand

	doneG  float64 // executed work observed through Advance
	nextG  float64 // work point at which the next window opens
	endG   float64 // work point at which the current window closes
	active bool
	count  int
}

// NewDisturbed wraps w with the given disturbance schedule. The seed fully
// determines the schedule; the zero-valued Disturbance yields a wrapper that
// never perturbs. The wrapper is reset (via Reset) to replay the identical
// schedule from the start.
func NewDisturbed(w Workload, d Disturbance, seed int64) *Disturbed {
	dw := &Disturbed{Inner: w, d: d, seed: seed}
	dw.rewind()
	return dw
}

// rewind restarts the disturbance schedule from the seed.
func (dw *Disturbed) rewind() {
	dw.rng = rand.New(rand.NewSource(dw.seed))
	dw.doneG, dw.endG = 0, 0
	dw.active = false
	dw.count = 0
	if dw.d.enabled() {
		dw.nextG = dw.rng.ExpFloat64() * dw.d.MeanPeriodG
	} else {
		dw.nextG = math.Inf(1)
	}
}

// Name implements Workload; the wrapped name is kept so experiment tables
// key disturbed and clean runs of the same app identically.
func (dw *Disturbed) Name() string { return dw.Inner.Name() }

// Profile implements Workload, applying the active window's perturbation.
func (dw *Disturbed) Profile() Profile {
	p := dw.Inner.Profile()
	if !dw.active || p.Threads == 0 {
		return p
	}
	if dw.d.ThreadFrac > 0 && dw.d.ThreadFrac < 1 {
		t := int(math.Round(float64(p.Threads) * dw.d.ThreadFrac))
		if t < 1 {
			t = 1
		}
		p.Threads = t
	}
	if dw.d.MemBoundAdd > 0 {
		p.MemBound = math.Min(0.9, p.MemBound+dw.d.MemBoundAdd)
	}
	return p
}

// Advance implements Workload, moving the window state machine along the
// executed-work axis before forwarding to the wrapped workload.
func (dw *Disturbed) Advance(gInst float64) bool {
	if gInst > 0 {
		dw.doneG += gInst
	}
	switch {
	case !dw.active && dw.doneG >= dw.nextG:
		dw.active = true
		dw.count++
		dw.endG = dw.doneG + dw.d.DurationG
	case dw.active && dw.doneG >= dw.endG:
		dw.active = false
		dw.nextG = dw.doneG + float64(dw.rng.ExpFloat64()*dw.d.MeanPeriodG)
	}
	return dw.Inner.Advance(gInst)
}

// Remaining implements Workload.
func (dw *Disturbed) Remaining() float64 { return dw.Inner.Remaining() }

// Total implements Workload.
func (dw *Disturbed) Total() float64 { return dw.Inner.Total() }

// Done implements Workload.
func (dw *Disturbed) Done() bool { return dw.Inner.Done() }

// Reset implements Workload, rewinding both the wrapped workload and the
// disturbance schedule (the same seed replays the same windows).
func (dw *Disturbed) Reset() {
	dw.Inner.Reset()
	dw.rewind()
}

// Disturbances returns how many windows have opened so far.
func (dw *Disturbed) Disturbances() int { return dw.count }
