package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"yukta/internal/core"
	"yukta/internal/fleet"
	"yukta/internal/series"
	"yukta/internal/workload"
)

// Fleet scaling-curve benchmark: wall-clock and EDP of both simulation
// engines versus fleet size, on a done-heavy board mix. Half the boards run
// a short workload that completes in roughly the first quarter of the run
// and then sits quiescent; the other half run a long workload that never
// completes before MaxTime. The mix is what separates the engines: both
// step live boards identically, but the lockstep engine keeps dispatching
// (and skipping) every done board on every control interval, while the
// event engine drops finished boards off the clock entirely and batches
// each live board's epoch into one cache-warm run.
const (
	// scaleMaxTime bounds one scale-point run (in simulated time).
	scaleMaxTime = 120 * time.Second
	// scaleShortGInst sizes the short app so it completes near the first
	// quarter of the run at the default per-board budget; scaleLongGInst
	// sizes the long app so it cannot complete before MaxTime.
	scaleShortGInst = 100
	scaleLongGInst  = 5000
	// scaleWorkers is the benchmark's canonical pool width when the context
	// does not pin one: the scaling curve measures the engines under pooled
	// board stepping — the fleet runner's intended configuration, and the
	// regime where the lockstep engine's per-interval barrier actually
	// costs (spawn + channel rendezvous per interval, versus once per
	// reallocation epoch on the event engine). Sequential stepping differs
	// only by the done-board scan, which is noise next to board physics.
	scaleWorkers = 4
	// scaleReps runs each (engine, size) cell this many times and keeps the
	// fastest wall-clock — standard minimum-of-k timing to shed scheduler
	// noise. Repetitions alternate lockstep/event so a transient host load
	// spike lands on both engines instead of biasing one cell. Simulation
	// outputs are identical across reps by construction.
	scaleReps = 5
	// treeScaleReps is the minimum-of-k width for the hierarchical points:
	// the depth axis multiplies the cell count, and the tree points feed a
	// curve rather than an engine-vs-engine gate, so fewer repetitions
	// suffice.
	treeScaleReps = 3
)

// scaleApp builds one synthetic steady-phase board workload.
func scaleApp(name string, gInst float64) (workload.Workload, error) {
	return workload.NewApp(name, gInst, []workload.Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.25, IPCBig: 1.4, IPCLittle: 0.70},
	})
}

// scaleMembers builds the done-heavy fleet: even boards short, odd boards
// long, every board running the coordinated heuristic (the cheapest
// controller, so the measurement exposes engine overhead rather than
// controller arithmetic).
func (c *Context) scaleMembers(n int) ([]core.FleetMember, error) {
	sch := c.P.CoordinatedHeuristic()
	members := make([]core.FleetMember, n)
	for i := range members {
		name, g := "scale-short", float64(scaleShortGInst)
		if i%2 == 1 {
			name, g = "scale-long", float64(scaleLongGInst)
		}
		w, err := scaleApp(name, g)
		if err != nil {
			return nil, err
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	return members, nil
}

// FleetScalePoint is one (engine, fleet size) measurement.
type FleetScalePoint struct {
	Engine string `json:"engine"`
	Boards int    `json:"boards"`
	// WallMS is the host wall-clock of the fleet run in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Steps and Reallocations are the simulation's own counters (identical
	// across engines — the engines differ in wall-clock, never in results).
	Steps         int `json:"steps"`
	Reallocations int `json:"reallocations"`
	// MakespanS, EnergyJ and EDP summarize the simulated outcome.
	MakespanS float64 `json:"makespan_s"`
	EnergyJ   float64 `json:"energy_j"`
	EDP       float64 `json:"edp_js"`
	// DoneBoardFrac is the fraction of boards that completed before MaxTime;
	// QuiescentFrac is the fraction of (board × clock-interval) slots that
	// were quiescent — a done board sitting out the rest of the run. The
	// scaling gate requires QuiescentFrac ≥ 0.25, the regime the event
	// engine is built for.
	DoneBoardFrac float64 `json:"done_board_frac"`
	QuiescentFrac float64 `json:"quiescent_frac"`
}

// FleetTreeScalePoint is one hierarchical measurement of the same done-heavy
// scale scenario: the fleet run under a balanced coordinator tree
// (fleet.Uniform) of the given depth, on the event engine. Depth 1 is the
// degenerate single-coordinator tree and must reproduce the flat event
// point's simulated outcome exactly; deeper trees re-divide the budget
// recursively, so their EDP may differ — that delta is the hierarchy's cost
// or gain, and the wall-clock column its overhead.
type FleetTreeScalePoint struct {
	Boards int `json:"boards"`
	// Depth is the coordinator tree's level count; Topo its spec and Nodes
	// its coordinator count.
	Depth int    `json:"depth"`
	Topo  string `json:"topo"`
	Nodes int    `json:"nodes"`
	// WallMS is the fastest host wall-clock over treeScaleReps runs.
	WallMS float64 `json:"wall_ms"`
	// Steps and Reallocations mirror the flat points; NodeReallocations
	// counts per-node policy invocations across the whole tree.
	Steps             int `json:"steps"`
	Reallocations     int `json:"reallocations"`
	NodeReallocations int `json:"node_reallocations"`
	// MakespanS, EnergyJ and EDP summarize the simulated outcome.
	MakespanS float64 `json:"makespan_s"`
	EnergyJ   float64 `json:"energy_j"`
	EDP       float64 `json:"edp_js"`
}

// FleetScaleReport is the scaling-curve benchmark result across engines and
// fleet sizes, with enough host context to interpret the wall-clocks.
type FleetScaleReport struct {
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"num_cpu"`
	Parallelism int     `json:"parallelism"`
	MaxTimeS    float64 `json:"max_time_s"`
	Scheme      string  `json:"scheme"`
	Policy      string  `json:"policy"`
	// Points holds, for every fleet size, the lockstep point followed by
	// the event point.
	Points []FleetScalePoint `json:"points"`
	// TreePoints holds the hierarchical points (FleetScaleTree), ordered by
	// fleet size then depth; empty for engine-only reports.
	TreePoints []FleetTreeScalePoint `json:"tree_points,omitempty"`
}

// scaleParallelism resolves the pool width of one scale run.
func (c *Context) scaleParallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return scaleWorkers
}

// fleetScaleRun executes the done-heavy scale scenario once on the given
// engine.
func (c *Context) fleetScaleRun(n int, eng core.Engine) (*core.FleetResult, error) {
	members, err := c.scaleMembers(n)
	if err != nil {
		return nil, err
	}
	opt := core.FleetOptions{
		Budget: fleet.Budget{
			TotalW: DefaultFleetBoardBudgetW * float64(n),
			MinW:   DefaultFleetMinCapW,
			MaxW:   DefaultFleetMaxCapW,
		},
		TreePolicy:  treePolicyFactory("feedback"),
		MaxTime:     scaleMaxTime,
		Parallelism: c.scaleParallelism(),
		Engine:      eng,
	}
	return core.FleetRun(c.P.Cfg, members, opt)
}

// FleetScaleRun executes the scaling benchmark's done-heavy scenario once on
// the named engine ("event" or "lockstep"); BenchmarkFleetStep times it.
func (c *Context) FleetScaleRun(n int, engine string) (*core.FleetResult, error) {
	eng, err := core.ParseEngine(engine)
	if err != nil {
		return nil, err
	}
	return c.fleetScaleRun(n, eng)
}

// fleetScalePair times both engines at one fleet size, interleaving the
// repetitions (lockstep, event, lockstep, event, ...) and keeping each
// engine's fastest wall-clock.
func (c *Context) fleetScalePair(n int) (lock, ev FleetScalePoint, err error) {
	var lockRes, evRes *core.FleetResult
	var lockWall, evWall time.Duration
	for rep := 0; rep < scaleReps; rep++ {
		start := time.Now()
		lr, lerr := c.fleetScaleRun(n, core.EngineLockstep)
		lw := time.Since(start)
		if lerr != nil {
			return lock, ev, fmt.Errorf("exp: fleet scale N=%d lockstep: %w", n, lerr)
		}
		if lockRes == nil || lw < lockWall {
			lockRes, lockWall = lr, lw
		}
		start = time.Now()
		er, eerr := c.fleetScaleRun(n, core.EngineEvent)
		ew := time.Since(start)
		if eerr != nil {
			return lock, ev, fmt.Errorf("exp: fleet scale N=%d event: %w", n, eerr)
		}
		if evRes == nil || ew < evWall {
			evRes, evWall = er, ew
		}
	}
	lock = makeScalePoint(core.EngineLockstep, n, lockRes, lockWall)
	ev = makeScalePoint(core.EngineEvent, n, evRes, evWall)
	return lock, ev, nil
}

// makeScalePoint folds one cell's fastest run into its report row.
func makeScalePoint(eng core.Engine, n int, res *core.FleetResult, wall time.Duration) FleetScalePoint {
	pt := FleetScalePoint{
		Engine:        string(eng),
		Boards:        n,
		WallMS:        float64(wall.Nanoseconds()) / 1e6,
		Steps:         res.Steps,
		Reallocations: res.Reallocations,
		MakespanS:     res.MakespanS,
		EnergyJ:       res.EnergyJ,
		EDP:           res.EDP,
	}
	// Quiescence: a board's physics time advances only while it is stepped,
	// so TimeS / interval is exactly the number of intervals it executed.
	intervalS := 0.5
	var executed float64
	done := 0
	for _, br := range res.Boards {
		executed += br.TimeS / intervalS
		if br.Completed {
			done++
		}
	}
	pt.DoneBoardFrac = float64(done) / float64(n)
	if res.Steps > 0 {
		pt.QuiescentFrac = 1 - executed/float64(n*res.Steps)
	}
	return pt
}

// FleetScale runs the scaling-curve benchmark over the given fleet sizes
// (default {16, 64, 256}): for each size it times the identical done-heavy
// fleet run on the lockstep and the event engine and cross-checks that the
// simulated outcomes match exactly — the engines may only differ in
// wall-clock.
func (c *Context) FleetScale(ns []int) (*FleetScaleReport, error) {
	if len(ns) == 0 {
		ns = []int{16, 64, 256}
	}
	rep := &FleetScaleReport{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Parallelism: c.scaleParallelism(),
		MaxTimeS:    scaleMaxTime.Seconds(),
		Scheme:      "coordinated-heuristic",
		Policy:      "feedback",
	}
	for _, n := range ns {
		lock, ev, err := c.fleetScalePair(n)
		if err != nil {
			return nil, err
		}
		if lock.Steps != ev.Steps || lock.EDP != ev.EDP || lock.EnergyJ != ev.EnergyJ ||
			lock.MakespanS != ev.MakespanS || lock.Reallocations != ev.Reallocations {
			return nil, fmt.Errorf("exp: engines disagree at N=%d: lockstep %+v vs event %+v", n, lock, ev)
		}
		rep.Points = append(rep.Points, lock, ev)
	}
	return rep, nil
}

// fleetTreeScaleRun executes the done-heavy scale scenario once under the
// given coordinator topology on the event engine, with one fresh feedback
// policy per tree node.
func (c *Context) fleetTreeScaleRun(topo *fleet.Topology) (*core.FleetResult, error) {
	members, err := c.scaleMembers(topo.Boards)
	if err != nil {
		return nil, err
	}
	opt := core.FleetOptions{
		Budget: fleet.Budget{
			TotalW: DefaultFleetBoardBudgetW * float64(topo.Boards),
			MinW:   DefaultFleetMinCapW,
			MaxW:   DefaultFleetMaxCapW,
		},
		Topology:    topo,
		TreePolicy:  treePolicyFactory("feedback"),
		MaxTime:     scaleMaxTime,
		Parallelism: c.scaleParallelism(),
		Engine:      core.EngineEvent,
	}
	return core.FleetRun(c.P.Cfg, members, opt)
}

// fleetTreeScalePoint times the scenario under one topology, keeping the
// fastest of treeScaleReps wall-clocks.
func (c *Context) fleetTreeScalePoint(topo *fleet.Topology) (FleetTreeScalePoint, error) {
	var best *core.FleetResult
	var bestWall time.Duration
	for rep := 0; rep < treeScaleReps; rep++ {
		start := time.Now()
		res, err := c.fleetTreeScaleRun(topo)
		wall := time.Since(start)
		if err != nil {
			return FleetTreeScalePoint{}, fmt.Errorf("exp: tree scale %q: %w", topo.Spec, err)
		}
		if best == nil || wall < bestWall {
			best, bestWall = res, wall
		}
	}
	return FleetTreeScalePoint{
		Boards:            topo.Boards,
		Depth:             topo.Depth,
		Topo:              topo.Spec,
		Nodes:             len(topo.Nodes),
		WallMS:            float64(bestWall.Nanoseconds()) / 1e6,
		Steps:             best.Steps,
		Reallocations:     best.Reallocations,
		NodeReallocations: best.NodeReallocations,
		MakespanS:         best.MakespanS,
		EnergyJ:           best.EnergyJ,
		EDP:               best.EDP,
	}, nil
}

// FleetScaleTree extends the scaling benchmark with the hierarchy axis: after
// the flat engine curve it measures the same scenario under a balanced
// coordinator tree (fleet.Uniform) at every (fleet size, depth) pair. Depth-1
// points are cross-checked against the flat event points — the degenerate
// tree must reproduce the flat run's simulated outcome exactly; deeper
// points record the hierarchy's EDP delta and wall-clock overhead. Empty
// arguments select the FleetScale default sizes and depths {1, 2}.
func (c *Context) FleetScaleTree(ns, depths []int) (*FleetScaleReport, error) {
	if len(ns) == 0 {
		ns = []int{16, 64, 256}
	}
	if len(depths) == 0 {
		depths = []int{1, 2}
	}
	rep, err := c.FleetScale(ns)
	if err != nil {
		return nil, err
	}
	for ni, n := range ns {
		flat := rep.Points[2*ni+1] // the event point at this size
		for _, d := range depths {
			topo, err := fleet.Uniform(n, d)
			if err != nil {
				return nil, err
			}
			pt, err := c.fleetTreeScalePoint(topo)
			if err != nil {
				return nil, err
			}
			if d == 1 && (pt.Steps != flat.Steps || pt.EDP != flat.EDP ||
				pt.EnergyJ != flat.EnergyJ || pt.Reallocations != flat.Reallocations) {
				return nil, fmt.Errorf(
					"exp: depth-1 tree diverges from flat event run at N=%d: %+v vs %+v", n, pt, flat)
			}
			rep.TreePoints = append(rep.TreePoints, pt)
		}
	}
	return rep, nil
}

// TreeGuard is the hierarchical regression gate: it re-runs the done-heavy
// scale scenario under the given topology spec and checks the outcome
// against the committed report's matching tree point. The simulation is
// deterministic, so steps and reallocation counts must match exactly and the
// EDP to 1e-9 relative (JSON round-trip slack); the wall-clock may drift
// with the host but not past 5× the committed value.
func (c *Context) TreeGuard(spec string, committed *FleetScaleReport) error {
	topo, err := fleet.ParseTopology(spec)
	if err != nil {
		return err
	}
	want := committed.findTreePoint(topo)
	if want == nil {
		return fmt.Errorf("exp: committed report has no tree point for %d boards at depth %d",
			topo.Boards, topo.Depth)
	}
	start := time.Now()
	res, err := c.fleetTreeScaleRun(topo)
	if err != nil {
		return err
	}
	wallMS := float64(time.Since(start).Nanoseconds()) / 1e6
	if res.Steps != want.Steps || res.Reallocations != want.Reallocations ||
		res.NodeReallocations != want.NodeReallocations {
		return fmt.Errorf("exp: tree run %q counters diverge from committed point: steps %d/%d reallocs %d/%d node reallocs %d/%d",
			spec, res.Steps, want.Steps, res.Reallocations, want.Reallocations,
			res.NodeReallocations, want.NodeReallocations)
	}
	if relDiff(res.EDP, want.EDP) > 1e-9 {
		return fmt.Errorf("exp: tree run %q EDP %.9g diverges from committed %.9g", spec, res.EDP, want.EDP)
	}
	if want.WallMS > 0 && wallMS > 5*want.WallMS {
		return fmt.Errorf("exp: tree run %q took %.1f ms, over 5x the committed %.1f ms",
			spec, wallMS, want.WallMS)
	}
	return nil
}

// findTreePoint locates the committed point a guard run compares against:
// an exact topology-spec match wins, else the first point with the same
// board count and depth (fleet.Uniform and the AxB shorthand generate
// identical balanced shapes under different spec strings).
func (r *FleetScaleReport) findTreePoint(topo *fleet.Topology) *FleetTreeScalePoint {
	for i := range r.TreePoints {
		if r.TreePoints[i].Topo == topo.Spec {
			return &r.TreePoints[i]
		}
	}
	for i := range r.TreePoints {
		if r.TreePoints[i].Boards == topo.Boards && r.TreePoints[i].Depth == topo.Depth {
			return &r.TreePoints[i]
		}
	}
	return nil
}

// relDiff is the symmetric relative difference, 0 when both values are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// ReadFleetScaleReport loads a committed scaling report (BENCH_evloop.json)
// for guard comparisons.
func ReadFleetScaleReport(path string) (*FleetScaleReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r FleetScaleReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("exp: parsing %s: %w", path, err)
	}
	return &r, nil
}

// Check enforces the scaling gate on the report's largest fleet size: the
// scenario must be meaningfully done-heavy (≥25% quiescent board-intervals)
// and the event engine must be strictly faster than lockstep there. Smaller
// sizes are reported but not gated — at small N both engines are dominated
// by board physics and the difference is noise-level.
func (r *FleetScaleReport) Check() error {
	if len(r.Points) < 2 {
		return fmt.Errorf("exp: scale report has no points")
	}
	lock, ev := r.Points[len(r.Points)-2], r.Points[len(r.Points)-1]
	if lock.Engine != string(core.EngineLockstep) || ev.Engine != string(core.EngineEvent) || lock.Boards != ev.Boards {
		return fmt.Errorf("exp: malformed scale report tail: %+v, %+v", lock, ev)
	}
	if ev.QuiescentFrac < 0.25 {
		return fmt.Errorf("exp: scale scenario at N=%d is only %.1f%% quiescent, want ≥25%%",
			ev.Boards, 100*ev.QuiescentFrac)
	}
	if ev.WallMS >= lock.WallMS {
		return fmt.Errorf("exp: event engine not faster at N=%d: %.1f ms vs lockstep %.1f ms",
			ev.Boards, ev.WallMS, lock.WallMS)
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *FleetScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render draws the scaling curve as an aligned table with the event/lockstep
// speedup per fleet size.
func (r *FleetScaleReport) Render() string {
	tab := &series.Table{Header: []string{
		"boards", "engine", "wall ms", "speedup", "steps", "quiescent", "done boards", "EDP J·s"}}
	for i := 0; i < len(r.Points); i += 2 {
		lock, ev := r.Points[i], r.Points[i+1]
		tab.AddRow(fmt.Sprintf("%d", lock.Boards), lock.Engine,
			fmt.Sprintf("%.1f", lock.WallMS), "1.00",
			fmt.Sprintf("%d", lock.Steps),
			fmt.Sprintf("%.0f%%", 100*lock.QuiescentFrac),
			fmt.Sprintf("%.0f%%", 100*lock.DoneBoardFrac),
			fmt.Sprintf("%.0f", lock.EDP))
		speedup := 0.0
		if ev.WallMS > 0 {
			speedup = lock.WallMS / ev.WallMS
		}
		tab.AddRow("", ev.Engine,
			fmt.Sprintf("%.1f", ev.WallMS), fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%d", ev.Steps),
			fmt.Sprintf("%.0f%%", 100*ev.QuiescentFrac),
			fmt.Sprintf("%.0f%%", 100*ev.DoneBoardFrac),
			fmt.Sprintf("%.0f", ev.EDP))
	}
	var sb stringsBuilder
	fmt.Fprintf(&sb, "Fleet scaling curve (%s/%s, %d CPUs, parallelism %d, %s scheme, %s policy, %.0f s simulated)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.Parallelism, r.Scheme, r.Policy, r.MaxTimeS)
	tab.Render(&sb)
	if len(r.TreePoints) > 0 {
		sb.WriteString("\n")
		sb.WriteString(r.renderTreePoints())
	}
	return sb.String()
}

// renderTreePoints draws the hierarchical points as a second table, with each
// point's EDP and wall-clock relative to the flat event point at the same
// fleet size (when the report contains one).
func (r *FleetScaleReport) renderTreePoints() string {
	flatWall := map[int]float64{}
	flatEDP := map[int]float64{}
	for _, p := range r.Points {
		if p.Engine == string(core.EngineEvent) {
			flatWall[p.Boards] = p.WallMS
			flatEDP[p.Boards] = p.EDP
		}
	}
	tab := &series.Table{Header: []string{
		"boards", "depth", "topology", "nodes", "wall ms", "vs flat", "node reallocs", "EDP J·s", "EDP vs flat"}}
	for _, p := range r.TreePoints {
		wallRel, edpRel := "-", "-"
		if w := flatWall[p.Boards]; w > 0 && p.WallMS > 0 {
			wallRel = fmt.Sprintf("%.2fx", p.WallMS/w)
		}
		if e := flatEDP[p.Boards]; e > 0 {
			edpRel = fmt.Sprintf("%+.3f%%", 100*(p.EDP-e)/e)
		}
		tab.AddRow(fmt.Sprintf("%d", p.Boards), fmt.Sprintf("%d", p.Depth),
			p.Topo, fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.1f", p.WallMS), wallRel,
			fmt.Sprintf("%d", p.NodeReallocations),
			fmt.Sprintf("%.0f", p.EDP), edpRel)
	}
	var sb stringsBuilder
	sb.WriteString("Hierarchical coordinator points (event engine, balanced trees, feedback policy per node)\n")
	tab.Render(&sb)
	return sb.String()
}
