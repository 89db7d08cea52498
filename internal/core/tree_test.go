package core

import (
	"fmt"
	"testing"
	"time"

	"yukta/internal/fleet"
	"yukta/internal/obs"
)

// TestTreeEngineEquivalence extends the engine-versus-oracle gate to
// hierarchical runs: for depth-2 and depth-3 (ragged) topologies, FleetRun
// and the lockstep oracle refFleetRun must produce byte-identical observable
// output, fault classes included. On the ragged tree every board finishes
// before MaxTime, so the run ends while slower coordinators still have
// reallocations scheduled.
func TestTreeEngineEquivalence(t *testing.T) {
	p := testPlatform(t)
	topos := []struct {
		spec      string
		allFinish bool
	}{{"4x4", false}, {"2x2x2", false}, {"root=a,b;a=6;b=r1,r2;r1=3;r2=3", true}}
	schemes := equivSchemes(p)
	for ti, tc := range topos {
		spec := tc.spec
		for ci, class := range equivClasses() {
			if testing.Short() && ci%2 == 1 {
				continue
			}
			sch := schemes[(ti+ci)%len(schemes)]
			t.Run(fmt.Sprintf("%s/%s", spec, class), func(t *testing.T) {
				t.Parallel()
				topo, err := fleet.ParseTopology(spec)
				if err != nil {
					t.Fatal(err)
				}
				want := fleetFingerprint(t, p, sch, class, topo.Boards, topo, tc.allFinish, refFleetRun)
				got := fleetFingerprint(t, p, sch, class, topo.Boards, topo, tc.allFinish, FleetRun)
				if len(want) == 0 {
					t.Fatal("empty tree fingerprint")
				}
				diffFingerprints(t, "tree "+spec, want, got)
			})
		}
	}
}

// TestHierarchicalFleetTrace pins the per-node trace shape and the recorded
// conservation invariant on a depth-2 run: every interval emits one record
// per tree node with the root (empty node path) first, per-node allocations
// never exceed the node's budget, and higher-level realloc marks thin out
// by the cadence factor.
func TestHierarchicalFleetTrace(t *testing.T) {
	p := testPlatform(t)
	topo, err := fleet.ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	sch := equivSchemes(p)[0]
	members := fleetTestMembers(t, p, 4, sch)
	rec := obs.NewFleetRecorder(0)
	opt := FleetOptions{
		Budget:       fleet.Budget{TotalW: 8.8, MinW: 1.0, MaxW: 4.5},
		Topology:     topo,
		TreePolicy:   testTreePolicy("feedback"),
		ReallocEvery: 10,
		MaxTime:      30 * time.Second,
		Trace:        rec,
	}
	res, err := FleetRun(p.Cfg, members, opt)
	if err != nil {
		t.Fatal(err)
	}
	nodes := len(topo.Nodes)
	if rec.Total() != res.Steps*nodes {
		t.Fatalf("trace has %d records for %d steps × %d nodes", rec.Total(), res.Steps, nodes)
	}
	rootReallocs, nodeReallocs := 0, 0
	for i := 0; i < rec.Len(); i++ {
		r := rec.At(i)
		if wantNode := topo.Nodes[i%nodes].Path; r.Node != wantNode {
			t.Fatalf("record %d node %q, want %q", i, r.Node, wantNode)
		}
		if r.Step != i/nodes {
			t.Fatalf("record %d step %d, want %d", i, r.Step, i/nodes)
		}
		if r.AllocW > r.BudgetW+1e-9 {
			t.Fatalf("record %d (node %q): alloc %.9f exceeds budget %.9f", i, r.Node, r.AllocW, r.BudgetW)
		}
		if r.Realloc {
			nodeReallocs++
			if r.Node == "" {
				rootReallocs++
				if r.Step%(10*fleet.DefaultCadenceFactor) != 0 {
					t.Fatalf("root realloc marked at step %d off its cadence", r.Step)
				}
			}
		}
	}
	if rootReallocs == 0 || nodeReallocs <= rootReallocs {
		t.Fatalf("realloc marks: root %d, total %d", rootReallocs, nodeReallocs)
	}
	if res.NodeReallocations <= res.Reallocations {
		t.Fatalf("node reallocations %d vs instants %d on a depth-2 tree",
			res.NodeReallocations, res.Reallocations)
	}
}
