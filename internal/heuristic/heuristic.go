// Package heuristic implements the two heuristic baseline schemes of the
// paper's Table IV:
//
//   - Coordinated heuristic — an HMP-derived OS scheduler that uses the
//     number, type and frequency of the available cores to place threads,
//     paired with a hardware controller that raises frequency and core count
//     while operation is safe and uses the thread distribution to pick a
//     lower safe frequency on a violation. This is the paper's baseline,
//     representative of industry controllers in big.LITTLE systems.
//
//   - Decoupled heuristic — a round-robin OS scheduler and a
//     Performance-governor-style hardware controller that pins frequency and
//     core count at maximum and, on a violation, temporarily backs off
//     frequency first and then cores, irrespective of the thread
//     distribution.
package heuristic

import (
	"math"

	"yukta/internal/board"
)

// Limits are the safe operating limits the evaluation uses (paper §V-A:
// 3.3 W big, 0.33 W little, 79 °C — just below the firmware emergency
// thresholds).
type Limits struct {
	// BigPowerW, LittlePowerW and TempC are the per-cluster power caps in
	// watts and the temperature cap in °C.
	BigPowerW, LittlePowerW, TempC float64
}

// DefaultLimits returns the paper's evaluation limits.
func DefaultLimits() Limits {
	return Limits{BigPowerW: 3.3, LittlePowerW: 0.33, TempC: 79}
}

// CoordinatedHW raises frequency and core count while operation is safe and
// finds a lower safe frequency when power or temperature exceed the limits,
// using the thread distribution (the OS layer's actuations) to decide how
// many cores each cluster needs.
type CoordinatedHW struct {
	// Lim holds the safe operating limits the controller enforces.
	Lim Limits
	// Conservative bounds the racing climb by a frequency ceiling captured
	// at engagement (SeedCeiling): the controller still backs off on
	// violations and recovers toward the ceiling when safe, but never
	// chases performance above the operating point it was handed. This is
	// the posture a supervisory fallback wants — hold the last point the
	// plant is known to tolerate rather than race into a compromised one.
	Conservative bool

	ceilBig, ceilLittle float64
	haveCeil            bool
	tick                int
}

// SeedCeiling sets the conservative climb ceiling from the frequencies
// currently in effect on the plant (a supervisory bumpless transfer passes
// the effective, post-throttle values). Non-positive values leave the
// corresponding cluster unbounded.
func (c *CoordinatedHW) SeedCeiling(bigGHz, littleGHz float64) {
	c.ceilBig, c.ceilLittle = bigGHz, littleGHz
	c.haveCeil = true
}

// Step implements one control interval.
func (c *CoordinatedHW) Step(s board.Sensors, b *board.Board) {
	cfg := b.Config()
	place := b.Placement()

	// Cores follow thread demand: keep just enough cores online to host the
	// OS's placement at its chosen packing. The thread distribution is the
	// coordination signal from the OS layer.
	needBig := coresFor(place.ThreadsBig, place.ThreadsPerBigCore, cfg.Big.MaxCores)
	b.SetBigCores(needBig)
	needLittle := coresFor(place.ThreadsLittle, place.ThreadsPerLittleCore, cfg.Little.MaxCores)
	b.SetLittleCores(needLittle)

	// Frequency: race up while safe, back off crudely on a violation. Like
	// the interactive/ondemand governors this heuristic derives from, the
	// climb is aggressive (several steps per sampling period — "race to
	// idle") and the backoff is a fixed fraction, not a calibrated power
	// model, so the power rides a sawtooth around the limit with the
	// overshoot peaks and valleys of the paper's Figure 10(a).
	c.tick++
	adjust := func(power, limit, freq, step, fmax float64, set func(float64)) {
		switch {
		case power > limit:
			set(math.Max(freq*0.85, 0.2))
		default:
			set(math.Min(freq+2*step, fmax))
		}
	}
	fmaxBig, fmaxLittle := cfg.Big.FreqMaxGHz, cfg.Little.FreqMaxGHz
	if c.Conservative && c.haveCeil {
		if c.ceilBig > 0 {
			fmaxBig = math.Min(fmaxBig, c.ceilBig)
		}
		if c.ceilLittle > 0 {
			fmaxLittle = math.Min(fmaxLittle, c.ceilLittle)
		}
	}
	adjust(s.BigPowerW, c.Lim.BigPowerW, b.BigFreq(), cfg.Big.FreqStepGHz, fmaxBig, b.SetBigFreq)
	adjust(s.LittlePowerW, c.Lim.LittlePowerW, b.LittleFreq(), cfg.Little.FreqStepGHz, fmaxLittle, b.SetLittleFreq)

	// Temperature overrides: the big cluster dominates the hot spot.
	if s.TempC > c.Lim.TempC {
		b.SetBigFreq(b.BigFreq() - float64(3*cfg.Big.FreqStepGHz))
	} else if s.TempC > c.Lim.TempC-1.5 {
		b.SetBigFreq(b.BigFreq() - cfg.Big.FreqStepGHz)
	}
}

// CoordinatedOS is the HMP-derived scheduler modified to optimize E×D: it
// reads the number, type and frequency of the available cores (the HW
// layer's actuations) and splits threads by cluster capacity, packing
// threads when that frees cores to power down.
type CoordinatedOS struct {
	// BigLittleIPCRatio approximates how much faster a big core executes a
	// thread than a little core at equal frequency.
	BigLittleIPCRatio float64

	tbNow   int
	started bool
}

// SeedPlacement initializes the migration-rate-limited placement state from
// the split currently in effect on the board, so a scheduler engaged
// mid-run (a supervisory bumpless transfer) walks from the plant's real
// thread distribution instead of snapping to its own cold-start target in
// one interval.
func (c *CoordinatedOS) SeedPlacement(threadsBig int) {
	if threadsBig < 0 {
		threadsBig = 0
	}
	c.tbNow = threadsBig
	c.started = true
}

// Step implements one control interval; threads is the number of runnable
// application threads the scheduler sees.
//
// Placement follows HMP's big-first up-migration: CPU-intensive threads are
// classified as "big" tasks and migrate to the big cluster, packing up to
// two per core before any spill to the little cores; the little cluster is
// used only for overflow. This is the documented behaviour of the
// ARM/Linaro/Samsung global-task-scheduling stack the paper's baseline
// derives from — and the reason the baseline leaves the near-free little
// cluster underused, which is a large part of the headroom Yukta recovers.
// The coordination signals are still honoured: the split adapts to the core
// counts the HW layer brings online, and packing tightens under power
// pressure so the HW layer can gate cores (the consolidation of [24]).
func (c *CoordinatedOS) Step(s board.Sensors, b *board.Board, threads int) {
	cfg := b.Config()
	if threads == 0 {
		b.Place(board.Placement{ThreadsPerBigCore: 1, ThreadsPerLittleCore: 1})
		return
	}
	maxBig := cfg.Big.MaxCores
	maxLittle := float64(cfg.Little.MaxCores)
	// Big-first up-migration: every CPU-intensive thread classifies as a
	// "big" task and migrates to the big cluster, packing up to two per
	// online core before any spill to little — the documented behaviour of
	// the HMP/GTS stack for CPU-bound multithreaded workloads, and the
	// reason the baseline leaves the near-free little cluster idle.
	bigSlots := 2 * b.BigCores()
	tbTarget := clampInt(threads, 0, clampInt(bigSlots, 1, 2*maxBig))
	// Cross-cluster migration is rate-limited (the balancer moves one task
	// per rebalance period): the placement chases the capacity target. A
	// steady hardware layer lets it converge; a sawtoothing governor drags
	// the target around faster than the balancer can follow, so threads
	// sit on the wrong cluster much of the time.
	if !c.started {
		c.tbNow = tbTarget
		c.started = true
	}
	switch {
	case c.tbNow < tbTarget:
		c.tbNow++
	case c.tbNow > tbTarget:
		c.tbNow--
	}
	if c.tbNow > threads {
		c.tbNow = threads
	}
	tb := c.tbNow
	tl := threads - tb
	tpb := math.Max(1, float64(tb)/float64(maxBig))
	if tb > 0 && tb <= maxBig/2 && s.BigPowerW > 0.8*DefaultLimits().BigPowerW {
		tpb = 2.0
	}
	tpl := math.Max(1, float64(tl)/maxLittle)
	b.Place(board.Placement{
		ThreadsBig:           tb,
		ThreadsLittle:        tl,
		ThreadsPerBigCore:    tpb,
		ThreadsPerLittleCore: tpl,
	})
}

// DecoupledHW is the Performance-governor controller: it requests maximum
// frequency and core count unconditionally and leaves violations to the
// firmware emergency heuristics, whose sustained-violation throttling and
// slow release produce the large power sawtooth of Fig. 10(b). On a
// sustained deep throttle it additionally offlines a big core ("reduces
// frequency first, then #cores"), restoring it once the cap clears.
type DecoupledHW struct {
	// Lim holds the limits the firmware heuristics underneath enforce.
	Lim Limits

	deepThrottleIntervals int
}

// Step implements one control interval.
func (d *DecoupledHW) Step(s board.Sensors, b *board.Board) {
	cfg := b.Config()
	b.SetBigFreq(cfg.Big.FreqMaxGHz)
	b.SetLittleFreq(cfg.Little.FreqMaxGHz)
	b.SetLittleCores(cfg.Little.MaxCores)

	// Track how long the firmware has been holding the big cluster far
	// below the requested frequency.
	if b.EffectiveBigFreq() < 0.6*cfg.Big.FreqMaxGHz {
		d.deepThrottleIntervals++
	} else {
		d.deepThrottleIntervals = 0
	}
	switch {
	case d.deepThrottleIntervals >= 4:
		b.SetBigCores(b.BigCores() - 1)
		d.deepThrottleIntervals = 0
	case !s.Throttled:
		b.SetBigCores(cfg.Big.MaxCores)
	}
}

// DecoupledOS is the round-robin scheduler: it spreads threads evenly over
// all cores of both clusters, one per core where possible, ignoring core
// type, frequency and power entirely. Because assignments rotate every
// period (threads have no affinity), roughly half the threads cross the
// cluster boundary each interval and pay the migration/cache-warmup cost.
type DecoupledOS struct{}

// Step implements one control interval.
func (DecoupledOS) Step(s board.Sensors, b *board.Board, threads int) {
	b.ChargeMigrations(threads)
	total := b.BigCores() + b.LittleCores()
	if total == 0 || threads == 0 {
		b.Place(board.Placement{ThreadsBig: 0, ThreadsPerBigCore: 1, ThreadsPerLittleCore: 1})
		return
	}
	tb := threads * b.BigCores() / total
	tl := threads - tb
	tpb := math.Max(1, math.Ceil(float64(tb)/float64(b.BigCores())))
	tpl := math.Max(1, math.Ceil(float64(tl)/float64(b.LittleCores())))
	b.Place(board.Placement{
		ThreadsBig:           tb,
		ThreadsLittle:        tl,
		ThreadsPerBigCore:    tpb,
		ThreadsPerLittleCore: tpl,
	})
}

// coresFor returns the number of cores needed to host n threads at the given
// packing, clamped to [1, max].
func coresFor(n int, perCore float64, max int) int {
	if perCore < 1 {
		perCore = 1
	}
	c := int(math.Ceil(float64(n) / perCore))
	return clampInt(c, 1, max)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
