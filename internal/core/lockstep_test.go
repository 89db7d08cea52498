package core

import (
	"math"

	"yukta/internal/board"
	"yukta/internal/obs"
	"yukta/internal/pool"
)

// The lockstep fleet loop is the test oracle for the event engine (runEvent):
// every board is visited on every control interval under a per-interval pool
// barrier, the due coordinators reallocate before the boards step, and the
// fleet trace is read from live board state right after each interval.
// TestEngineEquivalence and TestTreeEngineEquivalence compare FleetRun with
// refFleetRun byte for byte. It shares the setup (newFleetRun), the interval
// body (boardRun.step), the coordinator body (reallocTree) and the result
// (finalize) with production, so what it checks is the event engine's clock:
// epoch batching, the heap's event order and the latched fleet trace.

// refFleetRun is FleetRun with the lockstep oracle in place of runEvent.
func refFleetRun(cfg board.Config, members []FleetMember, opt FleetOptions) (*FleetResult, error) {
	f, err := newFleetRun(cfg, members, opt)
	if err != nil {
		return nil, err
	}
	if err := f.runLockstep(); err != nil {
		return nil, err
	}
	return f.finalize(members), nil
}

// runLockstep is the reference engine: reallocate every epochLen intervals,
// then step every board under a per-interval pool barrier.
func (f *fleetRun) runLockstep() error {
	for step := 0; step < f.maxSteps && f.live.Load() > 0; step++ {
		realloc := f.reallocAt(step)
		err := pool.ForEachMetered(f.workers, f.n, f.opt.Metrics, func(i int) error {
			fb := f.boards[i]
			if fb.done {
				return nil
			}
			fb.step(step)
			if fb.w.Done() {
				fb.done = true
				f.live.Add(-1)
			}
			return nil
		})
		if err != nil {
			return err
		}
		f.res.Steps++
		if f.opt.Trace != nil {
			f.traceStep(step, realloc)
		}
	}
	return nil
}

// reallocAt fires the tree nodes due at the given step on their own
// cadences and reports whether any fired. Every leaf coordinator runs on the
// epoch cadence, so reallocation instants fall every epochLen steps; only the
// set of higher nodes firing varies.
func (f *fleetRun) reallocAt(step int) bool {
	f.due = f.tree.Due(step, f.due[:0])
	if len(f.due) == 0 {
		return false
	}
	f.reallocTree()
	return true
}

// traceStep writes the interval's fleet-trace records: one per tree node in
// preorder, the root first. The root record spans all boards with the full
// budget and an empty node path.
func (f *fleetRun) traceStep(step int, realloc bool) {
	timeS := float64(step+1) * f.intervalS
	for i := range f.tree.Nodes {
		nd := &f.tree.Nodes[i]
		f.opt.Trace.Add(fleetRecordRange(step, timeS, nd.BudgetW,
			f.caps, f.boards, nd.First, nd.Boards,
			realloc && f.tree.NodeRealloc(i, step), f.cfg.BasePowerW, nd.Path))
	}
}

// fleetRecordRange aggregates one interval over one node's board range
// [first, first+count) into a fleet trace record — the whole fleet for the
// flat record (node ""), a subtree for a per-node record.
func fleetRecordRange(step int, timeS float64, budgetW float64, caps []float64,
	boards []*fleetBoard, first, count int, realloc bool, baseW float64,
	node string) obs.FleetRecord {

	rec := obs.FleetRecord{
		Step:    step,
		TimeS:   timeS,
		BudgetW: budgetW,
		Realloc: realloc,
		Node:    node,
	}
	for i := first; i < first+count; i++ {
		fb := boards[i]
		rec.AllocW += caps[i]
		if fb.done {
			rec.Done++
			continue
		}
		rec.Live++
		if caps[i] > 0 {
			if rec.CapMinW == 0 || caps[i] < rec.CapMinW {
				rec.CapMinW = caps[i]
			}
			if caps[i] > rec.CapMaxW {
				rec.CapMaxW = caps[i]
			}
		}
		if fb.b.BudgetThrottled() {
			rec.Throttled++
		}
		p := fb.sens.BigPowerW + fb.sens.LittlePowerW + baseW
		if !math.IsNaN(p) && !math.IsInf(p, 0) {
			rec.PowerW += p
		}
		b := fb.sens.BIPS
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			rec.BIPS += b
		}
	}
	return rec
}
