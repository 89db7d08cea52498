// Package fleet is the third coordination layer of the Yukta stack: a
// cluster-level budget allocator sitting above many per-board two-layer
// controllers. The paper (§II) builds its argument on two layers inside one
// ODROID board and frames the methodology as extensible; this package adds
// the next layer up, in the mold of ControlPULP's hierarchical power
// controller and Makridis et al.'s robust datacenter CPU provisioning: N
// boards advance in lockstep under a shared fleet power budget, and a budget
// policy periodically re-divides the budget across boards.
//
// The layering contract mirrors how the OS layer constrains the HW layer on
// a single board: the fleet layer never reaches into a board's controllers.
// Its only actuator is each board's power cap (board.SetPowerCapW), and its
// only inputs are the same sensor vocabulary the per-board controllers see.
// Every policy must satisfy the conservation invariant — the sum of
// allocated caps never exceeds the fleet budget — at every reallocation.
package fleet

import "fmt"

// Telemetry is the per-board observation a budget policy receives at each
// reallocation point. It is deliberately a subset of board.Sensors plus the
// board's current allocation: policies speak the same sensor vocabulary as
// the per-board controllers and get no privileged internal state.
type Telemetry struct {
	// PowerW is the board's sensed total power draw (big + little + base),
	// in watts, from the most recent control interval.
	PowerW float64

	// BIPS is the board's aggregate instruction throughput over the most
	// recent control interval (billions of instructions per second).
	BIPS float64

	// CapW is the power cap currently allocated to the board (watts).
	CapW float64

	// Throttled reports whether the board's budget governor is actively
	// holding frequency down to enforce CapW — the board wants more power
	// than its allocation.
	Throttled bool

	// Done reports that the board's workload has finished; a done board
	// draws only idle power and is a pure donor.
	Done bool

	// Weight is the allocation weight of this entry: the number of live
	// boards it stands for. Per-board telemetry leaves it zero (treated as
	// 1). The tree runner sets it when an entry is a child coordinator
	// aggregating a whole subtree, so floors, ceilings and shares scale
	// with subtree size: a live entry's cap must land in
	// [Weight·MinW, Weight·MaxW].
	Weight float64
}

// weightOf returns a telemetry entry's allocation weight, defaulting to 1
// for plain per-board entries (Weight unset).
func weightOf(t Telemetry) float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// Budget is the shared fleet power budget and the per-board bounds every
// allocation must respect.
type Budget struct {
	// TotalW is the fleet-wide power budget in watts. The conservation
	// invariant is Σ caps ≤ TotalW at every reallocation.
	TotalW float64

	// MinW is the smallest cap a live (not Done) board may be assigned —
	// the floor that keeps a board's base power and little cluster alive so
	// it can report telemetry and make forward progress.
	MinW float64

	// MaxW caps any single board's allocation (a board cannot use more
	// than its uncapped peak draw, so watts above MaxW are wasted on it).
	MaxW float64
}

// Policy divides a fleet budget across boards. Implementations must be
// deterministic pure functions of (Budget, telemetry history): the fleet
// runner calls Allocate from a single goroutine at reallocation points, and
// the determinism contract (byte-identical fleet traces at any parallelism)
// extends through any state a policy keeps.
type Policy interface {
	// Name identifies the policy in tables, traces and the CLI.
	Name() string

	// Allocate writes the per-board power caps for the next reallocation
	// period into dst (len(dst) == len(tel); dst[i] is board i's cap in
	// watts). Implementations must guarantee Σ dst ≤ b.TotalW, dst[i] ≥
	// wᵢ·b.MinW for live boards, and dst[i] ≤ wᵢ·b.MaxW, where wᵢ is the
	// entry's Telemetry.Weight (1 when unset). Plain per-board fleets have
	// all weights 1; the tree runner reuses the same contract one level up
	// by presenting each child subtree as a weighted pseudo-board.
	Allocate(dst []float64, b Budget, tel []Telemetry)
}

// NewPolicy returns the budget policy with the given CLI name: "equal" for
// the static equal-share baseline, "feedback" for the slack-feedback
// reallocator.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "equal":
		return EqualShare{}, nil
	case "feedback":
		return NewSlackFeedback(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown budget policy %q (want \"equal\" or \"feedback\")", name)
	}
}

// clampShareW bounds one live entry's cap to its weighted band
// [w·MinW, w·MaxW]. At weight 1 the bounds multiply out exactly (1.0·x == x
// in IEEE 754), so weighted policies stay bit-identical to the historical
// flat arithmetic — the property the golden-trace suite pins.
func clampShareW(v, w float64, b Budget) float64 {
	lo := w * b.MinW
	hi := w * b.MaxW
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// conserve rescales the above-floor part of every live allocation so that
// the total fits the budget, preserving relative priorities. It is the final
// pass of every policy: whatever heuristic produced dst, conservation is
// enforced here by construction. Done boards keep their zero caps. Floors
// and ceilings are per-entry weighted; with all weights 1 (plain per-board
// fleets) every expression reduces bit-identically to the flat form —
// summing unit weights counts in exact float64 increments, so liveW equals
// float64(live).
func conserve(dst []float64, b Budget, tel []Telemetry) {
	total := 0.0
	liveW := 0.0
	for i := range dst {
		if tel[i].Done {
			dst[i] = 0
			continue
		}
		dst[i] = clampShareW(dst[i], weightOf(tel[i]), b)
		total += dst[i]
		liveW += weightOf(tel[i])
	}
	if liveW == 0 || total <= b.TotalW {
		return
	}
	// Shrink only the part above the per-entry floor; the floors themselves
	// are assumed feasible (TotalW ≥ liveW*MinW — the runner validates this
	// at the root, and the policy contract preserves it down the tree).
	floor := float64(liveW * b.MinW)
	excess := total - floor
	avail := b.TotalW - floor
	if excess <= 0 || avail < 0 {
		return
	}
	scale := avail / excess
	for i := range dst {
		if tel[i].Done {
			continue
		}
		lo := float64(weightOf(tel[i]) * b.MinW)
		dst[i] = lo + float64((dst[i]-lo)*scale)
	}
}

// EqualShare is the static baseline: every live board gets the same cap,
// min(MaxW, TotalW/live). It ignores telemetry beyond liveness, so it models
// the uncoordinated datacenter default of provisioning identical per-node
// power limits.
type EqualShare struct{}

// Name implements Policy.
func (EqualShare) Name() string { return "equal-share" }

// Allocate implements Policy.
func (EqualShare) Allocate(dst []float64, b Budget, tel []Telemetry) {
	liveW := 0.0
	for i := range tel {
		if !tel[i].Done {
			liveW += weightOf(tel[i])
		}
	}
	share := b.MaxW
	if liveW > 0 {
		share = b.TotalW / liveW
	}
	for i := range dst {
		if tel[i].Done {
			dst[i] = 0
		} else {
			dst[i] = weightOf(tel[i]) * share
		}
	}
	conserve(dst, b, tel)
}

// SlackFeedback is the feedback reallocator: it shifts watts toward boards
// with the worst performance-target slack. Each board's performance target
// is its own observed peak throughput (the best BIPS it has demonstrated so
// far, an online estimate of what the workload could sustain uncapped), and
// its slack is how far current throughput has fallen below that peak — in
// absolute BIPS, so a watt flows to wherever it recovers the most
// instruction throughput. Unpressed boards (governor disengaged, comfortable
// power headroom) are donors: they keep their observed draw plus a reserve,
// and nothing more. The rest of the budget is divided among the pressed
// boards as a floor plus a slack-proportional share, so a
// frequency-sensitive board strangled by its cap recovers watts from
// memory-bound neighbours whose throughput barely responds to frequency —
// the cross-layer coordination argument of the paper, one layer up. The
// division stays a feedback law rather than a one-shot split: as a pressed
// board catches up to its peak its slack shrinks and its extra share flows
// on to whoever is now furthest behind.
type SlackFeedback struct {
	peakBIPS []float64
}

// NewSlackFeedback returns a fresh slack-feedback policy. The policy is
// stateful (it tracks each board's observed peak throughput), so a new
// instance is needed per fleet run.
func NewSlackFeedback() *SlackFeedback { return &SlackFeedback{} }

// Name implements Policy.
func (p *SlackFeedback) Name() string { return "slack-feedback" }

// headroomPct is the power headroom below which a board counts as pressed
// even if its governor has not engaged yet (it is about to).
const headroomPct = 0.08

// donorMargin is the multiplicative reserve a donor keeps above its observed
// draw, so normal workload variation does not immediately re-press it.
const donorMargin = 1.05

// donorReserveW is the additive reserve on top of the donor margin.
const donorReserveW = 0.10

// slackFloorBIPS is the minimum slack weight a pressed board carries, so a
// board whose peak estimate is still forming is never starved outright.
const slackFloorBIPS = 0.05

// pressed reports whether a board wants more power than its allocation: its
// governor is actively enforcing the cap, or its draw is within headroomPct
// of the cap (the governor is about to engage).
func pressed(t Telemetry) bool {
	return t.Throttled || (t.CapW > 0 && t.CapW-t.PowerW < headroomPct*t.CapW)
}

// Allocate implements Policy.
func (p *SlackFeedback) Allocate(dst []float64, b Budget, tel []Telemetry) {
	n := len(tel)
	if len(p.peakBIPS) != n {
		p.peakBIPS = make([]float64, n)
	}
	for i := range tel {
		if tel[i].BIPS > p.peakBIPS[i] {
			p.peakBIPS[i] = tel[i].BIPS
		}
	}

	// Cold start (no telemetry yet): equal share.
	cold := true
	for i := range tel {
		if tel[i].PowerW > 0 || tel[i].BIPS > 0 {
			cold = false
			break
		}
	}
	if cold {
		EqualShare{}.Allocate(dst, b, tel)
		return
	}

	// Donors keep their observed draw plus a reserve; pressed boards start
	// at the floor. What remains of the budget is the contested pot. All
	// reserves, floors and ceilings scale with the entry's weight so a
	// child coordinator standing for w boards is treated as w boards; at
	// weight 1 every expression is bit-identical to the flat form.
	pot := b.TotalW
	nPressed := 0
	for i := range tel {
		t := tel[i]
		w := weightOf(t)
		switch {
		case t.Done:
			dst[i] = 0
		case pressed(t):
			dst[i] = float64(w * b.MinW)
			nPressed++
			pot -= dst[i]
		default:
			dst[i] = clampShareW(float64(t.PowerW*donorMargin)+float64(w*donorReserveW), w, b)
			pot -= dst[i]
		}
	}

	if nPressed > 0 && pot > 0 {
		// Divide the pot among pressed boards in proportion to performance
		// slack. Watts that would push a board past its (weighted) MaxW
		// spill over to the remaining pressed boards.
		totalSlack := 0.0
		slack := make([]float64, n)
		for i := range tel {
			if tel[i].Done || !pressed(tel[i]) {
				continue
			}
			s := p.peakBIPS[i] - tel[i].BIPS
			if lo := weightOf(tel[i]) * slackFloorBIPS; s < lo {
				s = lo
			}
			slack[i] = s
			totalSlack += s
		}
		for pass := 0; pass < 2 && pot > 1e-9 && totalSlack > 0; pass++ {
			share := pot
			pot = 0
			remSlack := 0.0
			for i := range tel {
				if slack[i] == 0 {
					continue
				}
				hi := float64(weightOf(tel[i]) * b.MaxW)
				want := dst[i] + share*slack[i]/totalSlack
				if want >= hi {
					pot += want - hi
					dst[i] = hi
					slack[i] = 0
					continue
				}
				dst[i] = want
				remSlack += slack[i]
			}
			totalSlack = remSlack
		}
	} else if nPressed == 0 && pot > 0 {
		// Nothing is pressed: spread the idle watts evenly (per unit of
		// weight) so caps drift back up after a transient instead of
		// ratcheting down.
		liveW := 0.0
		for i := range tel {
			if !tel[i].Done {
				liveW += weightOf(tel[i])
			}
		}
		if liveW > 0 {
			for i := range tel {
				if !tel[i].Done {
					w := weightOf(tel[i])
					dst[i] = clampShareW(dst[i]+pot*w/liveW, w, b)
				}
			}
		}
	}
	conserve(dst, b, tel)
}
