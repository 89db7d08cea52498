package exp

import (
	"fmt"
	"time"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/series"
	"yukta/internal/workload"
)

// Default fleet-budget calibration. Under its own two-layer controllers
// every quick-mix board settles near ≈2.8 W, so the per-board share is set
// below that: under equal share every board is genuinely constrained, but
// the cap stretches frequency-sensitive programs (gamess) far more than
// memory-bound ones (mcf, whose throughput barely responds to the lost
// frequency) — the asymmetry a reallocating coordination layer can exploit.
// The floor keeps a board's base power and little cluster alive; the
// per-board cap bounds what a single board can usefully absorb.
const (
	// DefaultFleetBoardBudgetW is the per-board share of the fleet budget
	// (TotalW = N × this).
	DefaultFleetBoardBudgetW = 2.2
	// DefaultFleetMinCapW is the smallest cap a live board may be assigned.
	DefaultFleetMinCapW = 1.0
	// DefaultFleetMaxCapW bounds any single board's cap.
	DefaultFleetMaxCapW = 4.5
)

// FleetApps returns the heterogeneous app mix fleet sweeps cycle boards
// through: two compute-leaning programs (gamess, blackscholes) interleaved
// with two memory-bound ones (mcf, streamcluster), so every fleet contains
// both watt-hungry boards and potential donors.
func FleetApps() []string {
	return []string{"gamess", "mcf", "blackscholes", "streamcluster"}
}

// FleetCell is one fleet run's aggregate outcome within the sweep table.
type FleetCell struct {
	// Policy names the budget policy.
	Policy string
	// EDP is the fleet energy-delay product (total energy × makespan), in
	// J·s; MakespanS and EnergyJ its factors; GeoExD the geometric mean of
	// the per-board E×D products.
	EDP       float64
	MakespanS float64
	EnergyJ   float64
	GeoExD    float64
	// Reallocations counts policy invocations; Incomplete boards that hit
	// the time limit.
	Reallocations int
	Incomplete    int
	// NodeReallocations counts per-node policy invocations across the
	// coordinator tree (Reallocations when no FleetTopo is set: the run is
	// then the one-level tree).
	NodeReallocations int
}

// FleetTable is the fleet sweep result: boards × policies × fault classes,
// every cell one FleetRun over the same heterogeneous app mix under the same
// per-board budget share.
type FleetTable struct {
	// Title heads the rendered table.
	Title string
	// Seed is the fault campaign seed (fleet boards draw per-board streams).
	Seed int64
	// BoardBudgetW is the per-board share of the fleet budget.
	BoardBudgetW float64
	// Ns, Policies and Classes give the sweep axes in run order ("clean"
	// means no faults).
	Ns       []int
	Policies []string
	Classes  []string
	// Apps is the mix boards cycle through.
	Apps []string
	// Topo is the coordinator topology spec every cell ran under, or "" for
	// a single coordinator over all boards (the one-level tree).
	Topo string
	// Cells[ci][ni][pi] is the outcome for Classes[ci], Ns[ni], Policies[pi].
	Cells [][][]FleetCell
}

// Cell returns the outcome for (class, n, policy), or nil when the sweep did
// not cover that combination.
func (t *FleetTable) Cell(class string, n int, policy string) *FleetCell {
	for ci, c := range t.Classes {
		if c != class {
			continue
		}
		for ni, nn := range t.Ns {
			if nn != n {
				continue
			}
			for pi := range t.Policies {
				if t.Cells[ci][ni][pi].Policy == policy {
					return &t.Cells[ci][ni][pi]
				}
			}
		}
	}
	return nil
}

// Render writes the sweep as an aligned table, one row per (class, N,
// policy) with the EDP ratio against the row group's first policy.
func (t *FleetTable) Render() string {
	header := []string{"faults", "N", "policy", "EDP (J·s)",
		"vs " + t.Policies[0], "makespan (s)", "energy (J)", "reallocs", "incomplete"}
	if t.Topo != "" {
		header = append(header, "node reallocs")
	}
	tab := &series.Table{Header: header}
	for ci, cls := range t.Classes {
		for ni, n := range t.Ns {
			base := t.Cells[ci][ni][0].EDP
			for pi := range t.Policies {
				c := t.Cells[ci][ni][pi]
				ratio := "-"
				if pi > 0 && base > 0 {
					ratio = fmt.Sprintf("%.3f", c.EDP/base)
				}
				row := []string{cls, fmt.Sprintf("%d", n), c.Policy,
					fmt.Sprintf("%.0f", c.EDP), ratio,
					fmt.Sprintf("%.1f", c.MakespanS),
					fmt.Sprintf("%.1f", c.EnergyJ),
					fmt.Sprintf("%d", c.Reallocations),
					fmt.Sprintf("%d", c.Incomplete)}
				if t.Topo != "" {
					row = append(row, fmt.Sprintf("%d", c.NodeReallocations))
				}
				tab.AddRow(row...)
			}
		}
	}
	var sb stringsBuilder
	fmt.Fprintf(&sb, "%s (seed %d, %.1f W/board, apps: %v)\n", t.Title, t.Seed, t.BoardBudgetW, t.Apps)
	if t.Topo != "" {
		fmt.Fprintf(&sb, "coordinator topology: %s\n", t.Topo)
	}
	tab.Render(&sb)
	return sb.String()
}

// fleetMembers builds the n-board assignment: every board runs the full SSV
// stack (synthesis is cached on the platform) on the mix app at its index,
// cycled.
func (c *Context) fleetMembers(n int, apps []string) ([]core.FleetMember, error) {
	sch := c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams())
	members := make([]core.FleetMember, n)
	for i := range members {
		w, err := workload.Lookup(apps[i%len(apps)])
		if err != nil {
			return nil, err
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	return members, nil
}

// fleetOpts assembles one fleet run's options for the given size, policy and
// fault class ("clean" = no faults). Every tree node gets a fresh instance of
// the named policy. With a FleetTopo set on the context the topology is
// parsed per cell; without one the run is the one-level tree.
func (c *Context) fleetOpts(n int, policyName, class string, boardBudgetW float64) (core.FleetOptions, error) {
	if _, err := fleet.NewPolicy(policyName); err != nil {
		return core.FleetOptions{}, err
	}
	opt := core.FleetOptions{
		Budget: fleet.Budget{
			TotalW: boardBudgetW * float64(n),
			MinW:   DefaultFleetMinCapW,
			MaxW:   DefaultFleetMaxCapW,
		},
		TreePolicy:  treePolicyFactory(policyName),
		MaxTime:     1500 * time.Second,
		Interval:    500 * time.Millisecond,
		Parallelism: c.Parallelism,
		Metrics:     c.Metrics,
	}
	if c.FleetTopo != "" {
		topo, err := fleet.ParseTopology(c.FleetTopo)
		if err != nil {
			return core.FleetOptions{}, err
		}
		if topo.Boards != n {
			return core.FleetOptions{}, fmt.Errorf(
				"exp: fleet topology %q covers %d boards, sweep size is %d", c.FleetTopo, topo.Boards, n)
		}
		opt.Topology = topo
	}
	if class != "clean" {
		opt.Faults = fault.PresetClass(c.Seed, DefaultClassIntensity, class)
	}
	return opt, nil
}

// treePolicyFactory returns the per-node policy constructor of a fleet run. Callers validate the policy name before building the factory, so a
// bad name surfaces as an error from option assembly instead of a panic
// inside the tree.
func treePolicyFactory(policyName string) func() fleet.Policy {
	return func() fleet.Policy {
		pol, err := fleet.NewPolicy(policyName)
		if err != nil {
			// Unreachable when the name was validated by the caller via
			// fleet.NewPolicy/ParsePolicy; a factory cannot return an error.
			panic(err)
		}
		return pol
	}
}

// FleetSweep runs the fleet coordination experiment: for every (fault class,
// fleet size, budget policy) combination it simulates the fleet to
// completion over the heterogeneous FleetApps mix under a shared budget of
// BoardBudgetW per board, and tabulates the fleet EDP. Nil/zero arguments
// select the defaults: ns {4, 16}, both policies, clean only.
//
// The sweep fans fleet runs across the worker pool (cells are independent),
// and each fleet run fans its per-interval board stepping across the same
// pool budget; results are deterministic at any Parallelism. With a TraceDir
// set, each cell writes its coordination-layer trace as
// fleet-<class>-n<N>-<policy>.fleet.jsonl. With a FleetTopo set on the
// context every cell runs hierarchically under that topology (its board
// count must equal each sweep size): trace records then carry the node path
// of the coordinator they describe, and the stem gains a topology suffix.
func (c *Context) FleetSweep(ns []int, policies []string, classes []string) (*FleetTable, error) {
	if len(ns) == 0 {
		ns = []int{4, 16}
	}
	if len(policies) == 0 {
		policies = []string{"equal", "feedback"}
	}
	if len(classes) == 0 {
		classes = []string{"clean"}
	}
	apps := FleetApps()
	boardBudgetW := c.FleetBudgetW
	if boardBudgetW <= 0 {
		boardBudgetW = DefaultFleetBoardBudgetW
	}
	// One scheme serves every board; warm its synthesis once so concurrent
	// cells do not pile up on the cache single-flight.
	if err := c.warmSchemes([]core.Scheme{
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams())}); err != nil {
		return nil, err
	}

	type job struct {
		ci, ni, pi int
	}
	jobs := make([]job, 0, len(classes)*len(ns)*len(policies))
	for ci := range classes {
		for ni := range ns {
			for pi := range policies {
				jobs = append(jobs, job{ci, ni, pi})
			}
		}
	}
	out := &FleetTable{
		Title:        "Fleet budget policies: EDP under a shared power budget",
		Seed:         c.Seed,
		BoardBudgetW: boardBudgetW,
		Ns:           ns,
		Policies:     policies,
		Classes:      classes,
		Apps:         apps,
		Topo:         c.FleetTopo,
		Cells:        make([][][]FleetCell, len(classes)),
	}
	for ci := range classes {
		out.Cells[ci] = make([][]FleetCell, len(ns))
		for ni := range ns {
			out.Cells[ci][ni] = make([]FleetCell, len(policies))
		}
	}
	err := c.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		n, policyName, class := ns[j.ni], policies[j.pi], classes[j.ci]
		members, err := c.fleetMembers(n, apps)
		if err != nil {
			return err
		}
		opt, err := c.fleetOpts(n, policyName, class, out.BoardBudgetW)
		if err != nil {
			return err
		}
		var rec *obs.FleetRecorder
		if c.TraceDir != "" {
			rec = obs.NewFleetRecorder(int(opt.MaxTime/opt.Interval) + 1)
			opt.Trace = rec
		}
		res, err := core.FleetRun(c.P.Cfg, members, opt)
		if err != nil {
			return fmt.Errorf("exp: fleet n=%d policy=%s class=%s: %w", n, policyName, class, err)
		}
		if rec != nil {
			stem := fmt.Sprintf("fleet-%s-n%d-%s", cleanName(class), n, cleanName(policyName))
			if c.FleetTopo != "" {
				stem += "-" + cleanName(c.FleetTopo)
			}
			if err := c.writeFleetTrace(stem, rec); err != nil {
				return err
			}
		}
		cell := FleetCell{
			Policy:            res.Policy,
			EDP:               res.EDP,
			MakespanS:         res.MakespanS,
			EnergyJ:           res.EnergyJ,
			GeoExD:            res.GeoExD,
			Reallocations:     res.Reallocations,
			NodeReallocations: res.NodeReallocations,
		}
		for _, br := range res.Boards {
			if !br.Completed {
				cell.Incomplete++
			}
		}
		out.Cells[j.ci][j.ni][j.pi] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
