package core

import (
	"math"

	"yukta/internal/obs"
	"yukta/internal/pool"
	"yukta/internal/sched"
)

// runEvent is the fleet's discrete-event engine. Boards interact only
// through their power caps, and caps change only at reallocation points —
// every ReallocEvery intervals — so the reallocation barrier is the sole
// interaction point on the clock. Each epoch the coordinator pops one batch
// of simultaneous events off the heap: the reallocation (kind evRealloc,
// ordered first) followed by the wakes of the still-live boards (kind
// evWake, in board-index order). A woken board then executes every control
// interval up to the barrier in one uninterrupted batch on the worker pool —
// the controller still steps each interval, since its dynamics are
// per-interval state, but the per-interval pool barrier and the
// per-interval scan over all n boards are gone. A finished board schedules
// nothing and falls out of the clock entirely.
//
// The engine is byte-identical to the lockstep loop (every board visited on
// every interval under a per-interval pool barrier), which lockstep_test.go
// keeps as its test oracle, because nothing observable moves:
// boardRun.step is the shared interval body (fault RNG, physics, controller,
// per-board trace), reallocTree is the shared coordinator body and fires at
// the same instants with boards in the same states, and the fleet trace is
// reconstructed per interval from samples latched during the batches (see
// flushEpoch). The golden suite, TestEngineEquivalence and
// TestTreeEngineEquivalence pin this.
func (f *fleetRun) runEvent() error {
	if f.maxSteps <= 0 {
		return nil
	}
	nodes := len(f.tree.Nodes)
	h := sched.NewHeap(f.n + nodes)
	// One reallocation event per tree node, each on its own cadence. Event
	// IDs are preorder node indices, so simultaneous events pop parent-first
	// and the due list reaches Tree.Realloc in preorder.
	for i := range f.tree.Nodes {
		h.Push(sched.Event{Time: 0, Kind: evRealloc, ID: int32(i)})
	}
	for _, fb := range f.boards {
		fb.wokeEpoch = -1
		h.Push(sched.Event{Time: 0, Kind: evWake, ID: int32(fb.idx)})
	}
	if f.opt.Trace != nil {
		for _, fb := range f.boards {
			fb.samples = make([]fleetSample, f.epochLen)
		}
	}
	batch := make([]sched.Event, 0, f.n+nodes)
	ready := make([]*fleetBoard, 0, f.n)

	for h.Len() > 0 {
		// Lockstep stops stepping the instant the last board finishes; the
		// heap can still hold future realloc events for slow-cadence
		// coordinators, which must not fire on an empty fleet.
		if f.live.Load() == 0 {
			break
		}
		batch = h.PopBatch(batch[:0])
		t := batch[0].Time
		barrier := t + f.epochLen
		if barrier > f.maxSteps {
			barrier = f.maxSteps
		}
		ready = ready[:0]
		f.due = f.due[:0]
		for _, e := range batch {
			switch e.Kind {
			case evRealloc:
				f.due = append(f.due, int(e.ID))
			case evWake:
				fb := f.boards[e.ID]
				if !fb.done {
					fb.wokeEpoch = t
					ready = append(ready, fb)
				}
			}
		}
		reallocFired := len(f.due) > 0
		if reallocFired {
			f.reallocTree()
		}
		if len(ready) == 0 {
			continue
		}
		err := pool.ForEachMetered(f.workers, len(ready), f.opt.Metrics, func(k int) error {
			f.runBatch(ready[k], t, barrier)
			return nil
		})
		if err != nil {
			return err
		}
		// Steps counts intervals on the shared clock, as in lockstep: an
		// interval happened if any board executed it.
		epochSteps := 0
		for _, fb := range ready {
			if fb.batchLen > epochSteps {
				epochSteps = fb.batchLen
			}
		}
		f.res.Steps += epochSteps
		if f.opt.Trace != nil {
			f.flushEpoch(t, epochSteps, reallocFired)
		}
		if f.live.Load() > 0 {
			// Each node that fired reschedules on its own period; the
			// others' events are still pending in the heap.
			for _, i := range f.due {
				next := t + f.tree.Nodes[i].Period
				if next < f.maxSteps {
					h.Push(sched.Event{Time: next, Kind: evRealloc, ID: int32(i)})
				}
			}
			if barrier < f.maxSteps {
				for _, fb := range f.boards {
					if !fb.done {
						h.Push(sched.Event{Time: barrier, Kind: evWake, ID: int32(fb.idx)})
					}
				}
			}
		}
	}
	return nil
}

// runBatch executes one board's intervals from start up to the reallocation
// barrier, stopping early when the workload completes, and latches each
// interval's fleet-trace sample when a fleet trace is attached. Runs on a
// pool worker; touches only its own board.
func (f *fleetRun) runBatch(fb *fleetBoard, start, barrier int) {
	fb.batchLen = 0
	for step := start; step < barrier; step++ {
		fb.step(step)
		fb.batchLen++
		if fb.samples != nil {
			fb.samples[step-start] = fleetSample{
				bigW:            fb.sens.BigPowerW,
				littleW:         fb.sens.LittlePowerW,
				bips:            fb.sens.BIPS,
				budgetThrottled: fb.b.BudgetThrottled(),
			}
		}
		if fb.w.Done() {
			fb.done = true
			f.live.Add(-1)
			break
		}
	}
}

// flushEpoch reconstructs the per-interval fleet-trace records for the epoch
// that started at t, from the samples the boards latched while running
// ahead of the coordinator. The records are byte-identical to the ones the
// lockstep oracle writes inline:
//
//   - caps are constant within an epoch (they change only at realloc), so
//     AllocW and the cap min/max need no latching;
//   - a board that executed interval t+j contributes its latched sample,
//     exactly as lockstep reads the board's live state right after that
//     interval's barrier;
//   - a board counts Done from the very interval it finished (lockstep sets
//     fb.done during the step and records after), hence liveAt = batchLen-1
//     for a board that completed this epoch — its final interval is already
//     recorded as Done, contributing only its cap share, like in lockstep.
func (f *fleetRun) flushEpoch(t, epochSteps int, reallocFired bool) {
	for j := 0; j < epochSteps; j++ {
		// One record per tree node, preorder (root first, node path ""),
		// exactly as the lockstep oracle's traceStep writes them. Budgets
		// and caps changed only at the epoch start, so reading them at the
		// flush sees the same values every interval of the epoch saw.
		for i := range f.tree.Nodes {
			nd := &f.tree.Nodes[i]
			f.opt.Trace.Add(f.epochRecord(t, j, nd.First, nd.Boards, nd.BudgetW, nd.Path,
				j == 0 && reallocFired && f.tree.NodeRealloc(i, t)))
		}
	}
}

// epochRecord reconstructs one node-range record for interval t+j of the
// epoch that started at t, from the boards' latched samples.
func (f *fleetRun) epochRecord(t, j, first, count int, budgetW float64,
	node string, realloc bool) obs.FleetRecord {

	rec := obs.FleetRecord{
		Step:    t + j,
		TimeS:   float64(t+j+1) * f.intervalS,
		BudgetW: budgetW,
		Realloc: realloc,
		Node:    node,
	}
	for i := first; i < first+count; i++ {
		fb := f.boards[i]
		rec.AllocW += f.caps[i]
		liveAt := 0
		if fb.wokeEpoch == t {
			liveAt = fb.batchLen
			if fb.done {
				liveAt--
			}
		}
		if j >= liveAt {
			rec.Done++
			continue
		}
		rec.Live++
		if f.caps[i] > 0 {
			if rec.CapMinW == 0 || f.caps[i] < rec.CapMinW {
				rec.CapMinW = f.caps[i]
			}
			if f.caps[i] > rec.CapMaxW {
				rec.CapMaxW = f.caps[i]
			}
		}
		s := fb.samples[j]
		if s.budgetThrottled {
			rec.Throttled++
		}
		p := s.bigW + s.littleW + f.cfg.BasePowerW
		if !math.IsNaN(p) && !math.IsInf(p, 0) {
			rec.PowerW += p
		}
		b := s.bips
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			rec.BIPS += b
		}
	}
	return rec
}
