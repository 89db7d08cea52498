package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"yukta/internal/board"
	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// FleetMember is one board's assignment in a fleet run: the control scheme
// it runs and the workload it executes. The scheme is used unchanged — the
// fleet layer never reaches into a board's controllers; it only sets the
// board's power cap.
type FleetMember struct {
	// Scheme is the per-board control scheme (any solo scheme works,
	// including the supervised wrapper).
	Scheme Scheme
	// Workload is the board's workload. Each member needs its own instance
	// (clone mixes before sharing them across members).
	Workload workload.Workload
}

// FleetOptions bounds a fleet run.
type FleetOptions struct {
	// Budget is the shared fleet power budget and per-board bounds.
	// fleet.NewTree validates feasibility: TotalW must cover MinW for every
	// board.
	Budget fleet.Budget
	// Topology is the coordinator tree: each coordinator re-divides its
	// incoming budget over its children (leaves over their boards) with its
	// own policy instance, higher levels on slower cadences.
	// Topology.Boards must equal the member count. Nil runs the one-level
	// tree fleet.Uniform(n, 1): a single coordinator dividing the whole
	// budget over all boards.
	Topology *fleet.Topology
	// TreePolicy constructs one budget policy per tree node (stateful
	// policies must not be shared across nodes). Required. Policies run on
	// the coordination goroutine only, so they need no locking.
	TreePolicy func() fleet.Policy
	// CadenceFactor is the per-level reallocation slowdown for hierarchical
	// runs: a node at height h reallocates every ReallocEvery ×
	// CadenceFactor^(h−1) intervals. 0 selects
	// fleet.DefaultCadenceFactor; 1 puts every level on the leaf cadence.
	CadenceFactor int
	// ReallocEvery is the reallocation period in control intervals (the
	// fleet layer runs slower than the per-board layers, as the OS layer
	// runs slower than the HW layer in the paper). Default 10 (5 s at the
	// default interval).
	ReallocEvery int
	// MaxTime aborts boards that fail to complete. Default 1200 s.
	MaxTime time.Duration
	// Interval is the per-board control interval. Default 500 ms.
	Interval time.Duration
	// Faults, when enabled, injects each board's own fault stream, derived
	// from (Seed, scheme, app, board index) — board 0's stream is identical
	// to the solo run of the same (scheme, app) for common-random-numbers
	// pairing, and every other board draws an independent stream.
	Faults fault.Plan
	// Parallelism is the worker count for board stepping (the worker pool,
	// fanned out over each epoch's board batches). 0 or 1 steps boards
	// sequentially.
	// Results and traces are byte-identical at any setting.
	Parallelism int
	// Trace, when non-nil, receives one obs.FleetRecord per control
	// interval from the coordination layer.
	Trace *obs.FleetRecorder
	// BoardTraces, when non-nil, must have one entry per member; non-nil
	// entries receive that board's per-interval obs.Records, exactly as a
	// solo run's RunOptions.Trace would.
	BoardTraces []*obs.Recorder
	// Metrics, when non-nil, aggregates the run into the registry (pool
	// occupancy, per-scheme step latency, run/fault counters).
	Metrics *obs.Registry
	// Engine names the simulation core.
	//
	// Deprecated: there is one engine. FleetRun accepts "" or EngineEvent
	// and rejects any other value.
	Engine Engine
}

// FleetBoardResult is one board's outcome within a fleet run.
type FleetBoardResult struct {
	// Board is the member index.
	Board int
	// App and Scheme identify the member's workload and control scheme.
	App, Scheme string
	// TimeS is the board's completion time in seconds (or the abort time
	// when Completed is false); EnergyJ its energy; ExD their product.
	TimeS   float64
	EnergyJ float64
	ExD     float64
	// Completed reports whether the workload finished within MaxTime.
	Completed bool
	// BudgetEvents counts the board's budget-governor engagements.
	BudgetEvents int
	// Faults counts the faults injected into this board's run.
	Faults fault.Stats
}

// FleetResult records one fleet run.
type FleetResult struct {
	// Policy names the budget policy that ran.
	Policy string
	// BudgetW is the fleet power budget in watts.
	BudgetW float64
	// Boards holds the per-board outcomes, in member order.
	Boards []FleetBoardResult

	// MakespanS is the fleet completion time (the slowest board), in
	// seconds; EnergyJ the total energy across boards; EDP their product —
	// the fleet-level analogue of the per-run E×D objective.
	MakespanS float64
	EnergyJ   float64
	EDP       float64
	// GeoExD is the geometric mean of the per-board E×D products (the
	// cross-board analogue of the sweeps' geometric-mean degradation).
	GeoExD float64

	// Reallocations counts reallocation instants (intervals at which any
	// coordinator fired); Steps counts control intervals on the shared
	// clock.
	Reallocations int
	Steps         int

	// Topology is the coordinator tree's spec ("uniform:<n>d1" for a run
	// without FleetOptions.Topology); Nodes and Depth its coordinator count
	// and level count.
	Topology string
	Nodes    int
	Depth    int
	// NodeReallocations counts per-node policy invocations across the tree
	// (Reallocations on a one-level tree). Higher levels fire less often,
	// so it grows slower than Reallocations × Nodes.
	NodeReallocations int
}

// fleetBoard is the per-board runtime state of a fleet run. Workers touch
// only their own board during an interval (or an event batch), so the
// struct needs no locking.
type fleetBoard struct {
	boardRun
	idx  int
	done bool
	// capZeroed records that the coordinator has already actuated the
	// board's post-completion zero cap, so later reallocations skip the
	// write instead of rewriting every finished board every period.
	capZeroed bool

	// Event-engine batch state: how many intervals the board executed
	// before finishing or hitting the barrier, the epoch it last woke in,
	// and — when a fleet trace is attached — the per-interval samples the
	// coordinator folds into FleetRecords at the flush (the board runs an
	// epoch ahead of the fleet trace, so the per-interval view must be
	// latched, not re-read from live board state).
	batchLen  int
	wokeEpoch int
	samples   []fleetSample
}

// fleetSample is one live board-interval's contribution to the fleet trace,
// latched during an event-engine batch.
type fleetSample struct {
	bigW, littleW   float64
	bips            float64
	budgetThrottled bool
}

// FleetRun simulates len(members) boards under the shared power budget: at
// each reallocation point the due tree coordinators re-divide the budget and
// each board's cap is actuated via board.SetPowerCapW; between them the
// boards step concurrently on the worker pool, each running its own scheme
// unchanged. The run ends when every workload completes or MaxTime elapses.
//
// Determinism contract: results, per-board traces and the fleet trace are
// byte-identical at any Parallelism — boards own disjoint state, workers
// write only their own index, and the policies run on the coordination
// goroutine between stepping barriers.
func FleetRun(cfg board.Config, members []FleetMember, opt FleetOptions) (*FleetResult, error) {
	f, err := newFleetRun(cfg, members, opt)
	if err != nil {
		return nil, err
	}
	if err := f.runEvent(); err != nil {
		return nil, err
	}
	return f.finalize(members), nil
}

// newFleetRun validates the options, applies their defaults, and builds the
// coordinator tree and every member's board.
func newFleetRun(cfg board.Config, members []FleetMember, opt FleetOptions) (*fleetRun, error) {
	n := len(members)
	if n == 0 {
		return nil, fmt.Errorf("core: fleet run needs at least one member")
	}
	if opt.Engine != "" && opt.Engine != EngineEvent {
		return nil, fmt.Errorf("core: unknown engine %q (the only engine is %q)", opt.Engine, EngineEvent)
	}
	if opt.Topology == nil {
		topo, err := fleet.Uniform(n, 1)
		if err != nil {
			return nil, err
		}
		opt.Topology = topo
	} else if opt.Topology.Boards != n {
		return nil, fmt.Errorf("core: topology %q covers %d boards for %d members",
			opt.Topology.Spec, opt.Topology.Boards, n)
	}
	if opt.ReallocEvery <= 0 {
		opt.ReallocEvery = 10
	}
	if opt.MaxTime <= 0 {
		opt.MaxTime = 1200 * time.Second
	}
	if opt.Interval <= 0 {
		opt.Interval = 500 * time.Millisecond
	}
	if opt.BoardTraces != nil && len(opt.BoardTraces) != n {
		return nil, fmt.Errorf("core: BoardTraces has %d entries for %d members", len(opt.BoardTraces), n)
	}
	tree, err := fleet.NewTree(opt.Topology, opt.Budget, opt.ReallocEvery, opt.CadenceFactor, opt.TreePolicy)
	if err != nil {
		return nil, err
	}

	f := &fleetRun{
		cfg: cfg, opt: &opt, n: n, tree: tree,
		boards:    make([]*fleetBoard, n),
		caps:      make([]float64, n),
		tel:       make([]fleet.Telemetry, n),
		due:       make([]int, 0, len(tree.Nodes)),
		workers:   opt.Parallelism,
		maxSteps:  int(opt.MaxTime / opt.Interval),
		intervalS: opt.Interval.Seconds(),
		epochLen:  opt.ReallocEvery,
		res: &FleetResult{
			Policy:   tree.PolicyName(),
			BudgetW:  opt.Budget.TotalW,
			Boards:   make([]FleetBoardResult, n),
			Topology: opt.Topology.Spec,
			Nodes:    len(tree.Nodes),
			Depth:    opt.Topology.Depth,
		},
	}
	f.live.Store(int64(n))
	for i, m := range members {
		// Boards key their fault streams by (leaf path, leaf-local index):
		// collision-free across racks, and in a one-level tree the key is
		// fault.RunKey(scheme, app, i), so board 0 pairs with the solo run.
		path, local := tree.BoardCoord(i)
		runKey := fault.RunKeyPath(m.Scheme.faultKey(), m.Workload.Name(), path, local)
		var trace *obs.Recorder
		if opt.BoardTraces != nil {
			trace = opt.BoardTraces[i]
		}
		br, err := newBoardRun(cfg, m.Scheme, m.Workload, runKey, opt.Faults, opt.Interval, trace, opt.Metrics)
		if err != nil {
			return nil, fmt.Errorf("core: fleet board %d: %w", i, err)
		}
		f.boards[i] = &fleetBoard{boardRun: br, idx: i}
	}
	return f, nil
}

// fleetRun is the state of one fleet simulation. The coordination goroutine
// owns everything except the per-board state a pool worker touches while
// stepping its own board.
type fleetRun struct {
	cfg    board.Config
	opt    *FleetOptions
	boards []*fleetBoard
	caps   []float64
	tel    []fleet.Telemetry
	res    *FleetResult

	// tree is the coordinator hierarchy; due is its reusable due-node
	// scratch buffer.
	tree *fleet.Tree
	due  []int

	n         int
	maxSteps  int
	intervalS float64
	workers   int
	epochLen  int

	// live counts boards whose workload has not completed: workers
	// decrement it when their board finishes, and the run ends on zero.
	live atomic.Int64
}

// reallocTree refreshes the per-board telemetry, lets the due tree nodes
// (already in f.due, preorder) re-divide their budgets top-down, then
// actuates the resulting caps. It runs on the coordination goroutine only,
// between barriers, so the policies never race board stepping. caps[i] is read for telemetry before the policies run and a
// finished board's cap is zeroed only after (actuate), so the first
// reallocation after a board finishes observes its final cap.
func (f *fleetRun) reallocTree() {
	for i, fb := range f.boards {
		f.tel[i] = fleetTelemetry(fb, f.caps[i], f.cfg.BasePowerW)
	}
	f.tree.Realloc(f.due, f.tel, f.caps)
	f.actuate()
	f.res.Reallocations++
	f.res.NodeReallocations += len(f.due)
}

// actuate writes the freshly allocated caps to the boards. A finished
// board's cap is zeroed exactly once (capZeroed); afterwards the board is
// skipped instead of being rewritten every period.
func (f *fleetRun) actuate() {
	for i, fb := range f.boards {
		if fb.done {
			f.caps[i] = 0
			if !fb.capZeroed {
				fb.b.SetPowerCapW(0)
				fb.capZeroed = true
			}
			continue
		}
		fb.b.SetPowerCapW(f.caps[i])
	}
}

// finalize aggregates the per-board outcomes into the fleet result.
func (f *fleetRun) finalize(members []FleetMember) *FleetResult {
	res := f.res
	res.GeoExD = 1
	for i, fb := range f.boards {
		r := &res.Boards[i]
		r.Board = i
		r.App = members[i].Workload.Name()
		r.Scheme = members[i].Scheme.Name
		r.TimeS = fb.b.TimeS()
		r.EnergyJ = fb.b.EnergyJ()
		r.ExD = r.EnergyJ * r.TimeS
		r.Completed = fb.done
		r.BudgetEvents = fb.b.BudgetEvents()
		if fb.inj != nil {
			r.Faults = fb.inj.Stats()
		}
		res.EnergyJ += r.EnergyJ
		if r.TimeS > res.MakespanS {
			res.MakespanS = r.TimeS
		}
		res.GeoExD *= math.Pow(r.ExD, 1/float64(f.n))
	}
	res.EDP = res.EnergyJ * res.MakespanS
	if f.opt.Metrics != nil {
		m := f.opt.Metrics
		m.Counter("fleet_runs_total").Add(1)
		m.Counter("fleet_board_runs_total").Add(int64(f.n))
		m.Counter("fleet_reallocations_total").Add(int64(res.Reallocations))
	}
	return res
}

// fleetTelemetry distills one board's state into the policy's view. Sensor
// readings can be non-finite under fault injection (dropped power readings);
// the coordination layer substitutes the board's full cap for an unreadable
// draw — the conservative choice that never trims a board on garbage data —
// so policies may assume finite telemetry.
func fleetTelemetry(fb *fleetBoard, capW, baseW float64) fleet.Telemetry {
	power := fb.sens.BigPowerW + fb.sens.LittlePowerW + baseW
	if math.IsNaN(power) || math.IsInf(power, 0) {
		power = capW
	}
	bips := fb.sens.BIPS
	if math.IsNaN(bips) || math.IsInf(bips, 0) {
		bips = 0
	}
	return fleet.Telemetry{
		PowerW:    power,
		BIPS:      bips,
		CapW:      capW,
		Throttled: fb.b.BudgetThrottled(),
		Done:      fb.done,
	}
}
