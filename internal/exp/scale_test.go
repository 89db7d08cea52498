package exp

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"yukta/internal/core"
	"yukta/internal/fleet"
	"yukta/internal/workload"
)

// The done-heavy fleet scenario behind the committed scaling curve
// (BENCH_evloop.json): half the boards run a short workload that completes
// in roughly the first quarter of the run and then sits quiescent, the other
// half a long workload that cannot complete before MaxTime. Every board runs
// the coordinated heuristic under one feedback policy per coordinator.
const (
	// scaleMaxTime bounds one run (in simulated time).
	scaleMaxTime = 120 * time.Second
	// scaleShortGInst sizes the short app so it completes near the first
	// quarter of the run at the default per-board budget; scaleLongGInst
	// sizes the long app so it cannot complete before MaxTime.
	scaleShortGInst = 100
	scaleLongGInst  = 5000
	// scaleWorkers is the pool width the curve was recorded with. Results
	// are byte-identical at any width.
	scaleWorkers = 4
)

// scaleApp builds one synthetic steady-phase board workload.
func scaleApp(name string, gInst float64) (workload.Workload, error) {
	return workload.NewApp(name, gInst, []workload.Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.25, IPCBig: 1.4, IPCLittle: 0.70},
	})
}

// scaleMembers builds the done-heavy fleet: even boards short, odd boards
// long, every board running the coordinated heuristic.
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

// scaleRun executes the done-heavy scenario once under the given coordinator
// topology (nil: the one-level tree).
func (c *Context) scaleRun(n int, topo *fleet.Topology) (*core.FleetResult, error) {
	members, err := c.scaleMembers(n)
	if err != nil {
		return nil, err
	}
	return core.FleetRun(c.P.Cfg, members, core.FleetOptions{
		Budget: fleet.Budget{
			TotalW: DefaultFleetBoardBudgetW * float64(n),
			MinW:   DefaultFleetMinCapW,
			MaxW:   DefaultFleetMaxCapW,
		},
		Topology:    topo,
		TreePolicy:  treePolicyFactory("feedback"),
		MaxTime:     scaleMaxTime,
		Parallelism: scaleWorkers,
	})
}

// committedTreePoint is one hierarchical point of BENCH_evloop.json, with
// the fields a re-run must reproduce.
type committedTreePoint struct {
	Boards            int     `json:"boards"`
	Depth             int     `json:"depth"`
	Topo              string  `json:"topo"`
	Steps             int     `json:"steps"`
	Reallocations     int     `json:"reallocations"`
	NodeReallocations int     `json:"node_reallocations"`
	MakespanS         float64 `json:"makespan_s"`
	EnergyJ           float64 `json:"energy_j"`
	EDP               float64 `json:"edp_js"`
}

// TestFleetTreeMatchesCommittedPoints re-runs every committed tree point of
// the scaling curve (BENCH_evloop.json, depths 1–3) and requires the
// simulated outcome bit for bit: the counters equal, and EDP, energy and
// makespan equal in Float64bits. The JSON holds each float in its shortest
// round-tripping form, so parsing it restores the exact bits. The depth-1
// points are the one-level tree, so they also pin the flat fleet. The two
// 10,000-board points take ~10 s each on a 2-vCPU host and are skipped; the
// twelve points of up to 1024 boards take under 2 s together there.
func TestFleetTreeMatchesCommittedPoints(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_evloop.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		TreePoints []committedTreePoint `json:"tree_points"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	c := testContext(t)
	ran := 0
	for _, want := range committed.TreePoints {
		if want.Boards > 1024 {
			continue
		}
		ran++
		t.Run(want.Topo, func(t *testing.T) {
			topo, err := fleet.Uniform(want.Boards, want.Depth)
			if err != nil {
				t.Fatal(err)
			}
			if topo.Spec != want.Topo {
				t.Fatalf("fleet.Uniform(%d, %d) is %q, committed %q", want.Boards, want.Depth, topo.Spec, want.Topo)
			}
			res, err := c.scaleRun(want.Boards, topo)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != want.Steps || res.Reallocations != want.Reallocations ||
				res.NodeReallocations != want.NodeReallocations {
				t.Errorf("counters: steps %d reallocs %d node reallocs %d; committed %d %d %d",
					res.Steps, res.Reallocations, res.NodeReallocations,
					want.Steps, want.Reallocations, want.NodeReallocations)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"EDP", res.EDP, want.EDP},
				{"EnergyJ", res.EnergyJ, want.EnergyJ},
				{"MakespanS", res.MakespanS, want.MakespanS},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("%s = %v (%#x); committed %v (%#x)", f.name,
						f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
				}
			}
		})
	}
	if ran != 12 {
		t.Fatalf("re-ran %d committed tree points, want 12", ran)
	}
}

// BenchmarkFleetStep times one 64-board run of the done-heavy scenario on
// the one-level tree.
func BenchmarkFleetStep(b *testing.B) {
	c := testContext(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := c.scaleRun(64, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps == 0 {
			b.Fatal("fleet run executed no steps")
		}
		b.ReportMetric(float64(res.Steps), "clockSteps")
	}
}
