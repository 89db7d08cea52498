package exp

import (
	"fmt"
	"runtime"

	"yukta/internal/core"
	"yukta/internal/obs"
	"yukta/internal/pool"
)

// Options configures the experiment harness.
type Options struct {
	// Parallelism is the number of worker goroutines the drivers use to fan
	// independent (scheme, app) simulations out. 0 means runtime.NumCPU();
	// 1 runs every experiment sequentially.
	Parallelism int

	// Seed is the base seed for every seeded component of the harness (the
	// robustness sweep's fault campaign and its workload disturbances). Runs
	// derive their own streams from it, so one seed fixes every random draw
	// in the harness regardless of parallelism. 0 means seed 1.
	Seed int64

	// Supervise adds the supervised SSV scheme (the supervisory safety layer
	// wrapping the full SSV stack) to the robustness sweep and enables the
	// supervisor-accounting section of its table.
	Supervise bool

	// TraceDir, when non-empty, makes the fault sweeps attach a flight
	// recorder to every run and write one <stem>.jsonl decision log plus a
	// <stem>.timeline.txt rendering per (level, scheme, app) into this
	// directory. Traces are byte-identical at any Parallelism.
	TraceDir string

	// Metrics, when true, creates an obs.Registry on the Context and threads
	// it through every run and the worker pool, accumulating step-latency
	// histograms, cache hit rates, fault/trip counters and pool occupancy.
	Metrics bool

	// FleetBudgetW overrides the per-board share of the shared fleet power
	// budget used by FleetSweep; 0 means DefaultFleetBoardBudgetW.
	FleetBudgetW float64

	// FleetTopo, when non-empty, runs every fleet sweep cell hierarchically
	// under this coordinator topology (fleet.ParseTopology grammar, e.g.
	// "4x8" or "root=a,b;a=4;b=4"). The topology's board count must equal
	// the sweep's fleet size. Empty runs a single coordinator over all
	// boards (the one-level tree).
	FleetTopo string
}

// workers resolves the context's parallelism setting to a concrete count.
func (c *Context) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.NumCPU()
}

// forEach runs fn(0) … fn(n-1) on up to workers goroutines and waits for all
// of them. Each simulation is independent (fresh board, fresh workload clone,
// per-board seeded RNG), so callers write results into index i of a
// preallocated slice and assemble them in the original order afterwards —
// the rendered tables come out byte-identical to a sequential run.
//
// The implementation lives in internal/pool (it is shared with the fleet
// runner); this wrapper keeps the harness call sites unchanged.
func forEach(workers, n int, fn func(i int) error) error {
	return pool.ForEach(workers, n, fn)
}

// forEachMetered is forEach with optional pool instrumentation; see
// pool.ForEachMetered.
func forEachMetered(workers, n int, m *obs.Registry, fn func(i int) error) error {
	return pool.ForEachMetered(workers, n, m, fn)
}

// forEach is the Context-level fan-out: it uses the context's worker count
// and its metrics registry (nil when metrics are off).
func (c *Context) forEach(n int, fn func(i int) error) error {
	return pool.ForEachMetered(c.workers(), n, c.Metrics, fn)
}

// warmSchemes builds one session per scheme concurrently before the run
// matrix fans out. Controller synthesis is the expensive part of a session
// and is single-flighted in the Platform caches, so without this step every
// worker that picks up the first scheme's jobs would block on the same
// cache entry; warming instead synthesizes the distinct controllers in
// parallel, once each.
func (c *Context) warmSchemes(schemes []core.Scheme) error {
	return c.forEach(len(schemes), func(i int) error {
		if _, err := schemes[i].New(); err != nil {
			return fmt.Errorf("exp: warming scheme %q: %w", schemes[i].Name, err)
		}
		return nil
	})
}
