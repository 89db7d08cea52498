// Package optimizer implements the target-search module of the paper's
// Section IV-D. Each SSV controller is paired with an optimizer that reads
// the measured outputs, computes the resulting E×D, and nudges the output
// targets handed to the controller toward lower E×D: while a move improves
// E×D the optimizer keeps pushing in that direction (raise performance a
// lot, allow a little more power); when a move degrades E×D it reverts the
// move and walks the other way (give up a little performance, reclaim a lot
// of power).
package optimizer

import "fmt"

// Config describes one optimizer instance.
type Config struct {
	// Initial are the starting targets in physical units.
	Initial []float64
	// UpStep is added to each target when optimizing "up" (the
	// performance-seeking direction); DownStep is subtracted when walking
	// back. Per §IV-D the performance entry is large in UpStep and small in
	// DownStep, while power entries are the reverse.
	UpStep, DownStep []float64
	// Lo and Hi clamp each target (e.g. power targets stay below the safe
	// limits, §V-A).
	Lo, Hi []float64
	// SettleIntervals is how many control intervals to wait between moves so
	// the controller can converge to the last targets first.
	SettleIntervals int
	// Smoothing is the exponential factor applied to the measured E×D rate
	// (0 = no smoothing).
	Smoothing float64
}

// Optimizer walks output targets toward lower E×D.
type Optimizer struct {
	cfg     Config
	targets []float64
	prev    []float64

	dirUp    bool
	lastExD  float64
	haveBase bool
	ema      float64
	emaInit  bool
	tick     int
	moves    int
}

// New validates the configuration and returns an optimizer positioned at the
// initial targets, optimizing upward first.
func New(cfg Config) (*Optimizer, error) {
	n := len(cfg.Initial)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: no targets")
	}
	for name, s := range map[string][]float64{
		"UpStep": cfg.UpStep, "DownStep": cfg.DownStep, "Lo": cfg.Lo, "Hi": cfg.Hi,
	} {
		if len(s) != n {
			return nil, fmt.Errorf("optimizer: %s has %d entries, want %d", name, len(s), n)
		}
	}
	for i := range cfg.Initial {
		if cfg.Lo[i] > cfg.Hi[i] {
			return nil, fmt.Errorf("optimizer: Lo[%d] > Hi[%d]", i, i)
		}
	}
	if cfg.SettleIntervals < 1 {
		cfg.SettleIntervals = 4
	}
	o := &Optimizer{
		cfg:     cfg,
		targets: clampAll(append([]float64(nil), cfg.Initial...), cfg.Lo, cfg.Hi),
		dirUp:   true,
	}
	o.prev = append([]float64(nil), o.targets...)
	return o, nil
}

// Targets returns the current physical targets.
func (o *Optimizer) Targets() []float64 {
	return append([]float64(nil), o.targets...)
}

// Moves returns how many target moves have been issued (the paper compares
// optimizer convergence between SSV and LQG in §VI-B using this count).
func (o *Optimizer) Moves() int { return o.moves }

// Update feeds one control interval's measured E×D rate (e.g. instantaneous
// Power/Perf², which is proportional to E×D) and returns the targets for the
// next interval — usually unchanged, moving only after the settle period.
func (o *Optimizer) Update(exd float64) []float64 {
	return o.UpdateInto(make([]float64, len(o.targets)), exd)
}

// UpdateInto is Update writing the next targets into dst (grown if needed)
// instead of allocating; sessions call it every control interval with a
// per-session scratch slice. The returned slice is dst, safe for the caller
// to modify.
func (o *Optimizer) UpdateInto(dst []float64, exd float64) []float64 {
	if !o.emaInit {
		o.ema = exd
		o.emaInit = true
	} else {
		a := o.cfg.Smoothing
		o.ema = float64(a*o.ema) + float64((1-a)*exd)
	}
	o.tick++
	if o.tick < o.cfg.SettleIntervals {
		return o.targetsInto(dst)
	}
	o.tick = 0

	switch {
	case !o.haveBase:
		o.lastExD = o.ema
		o.haveBase = true
	case o.ema <= o.lastExD*0.99:
		// Strict improvement: keep direction, move the baseline.
		o.lastExD = o.ema
	default:
		// Flat or worse: revert the move and walk the other way. Without
		// the flat case, targets pinned at a clamp would register as
		// "improving" forever and the optimizer would never back off.
		copy(o.targets, o.prev)
		o.dirUp = !o.dirUp
		o.lastExD = o.ema
	}
	copy(o.prev, o.targets)
	if o.dirUp {
		for i := range o.targets {
			o.targets[i] += o.cfg.UpStep[i]
		}
	} else {
		for i := range o.targets {
			o.targets[i] -= o.cfg.DownStep[i]
		}
	}
	o.targets = clampAll(o.targets, o.cfg.Lo, o.cfg.Hi)
	// A move fully absorbed by the clamps is a no-op: flip so the next move
	// explores the feasible side instead of idling at the boundary.
	pinned := true
	for i := range o.targets {
		if o.targets[i] != o.prev[i] {
			pinned = false
			break
		}
	}
	if pinned {
		o.dirUp = !o.dirUp
	}
	o.moves++
	return o.targetsInto(dst)
}

// targetsInto copies the current targets into dst, growing it if needed.
func (o *Optimizer) targetsInto(dst []float64) []float64 {
	if cap(dst) < len(o.targets) {
		dst = make([]float64, len(o.targets))
	}
	dst = dst[:len(o.targets)]
	copy(dst, o.targets)
	return dst
}

func clampAll(v, lo, hi []float64) []float64 {
	for i := range v {
		if v[i] < lo[i] {
			v[i] = lo[i]
		}
		if v[i] > hi[i] {
			v[i] = hi[i]
		}
	}
	return v
}
