package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// fleetTestMembers builds a small heterogeneous fleet over the quick mix.
func fleetTestMembers(t *testing.T, p *Platform, n int, sch Scheme) []FleetMember {
	t.Helper()
	apps := []string{"gamess", "mcf", "blackscholes", "streamcluster"}
	members := make([]FleetMember, n)
	for i := range members {
		w, err := workload.Lookup(apps[i%len(apps)])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = FleetMember{Scheme: sch, Workload: w}
	}
	return members
}

// fleetTestOptions is a short bounded run: 4 boards for 60 simulated seconds
// is enough for several reallocation periods and fault activity.
func fleetTestOptions(policyName string) FleetOptions {
	return FleetOptions{
		Budget:     fleet.Budget{TotalW: 8.8, MinW: 1.0, MaxW: 4.5},
		TreePolicy: testTreePolicy(policyName),
		MaxTime:    60 * time.Second,
	}
}

// testTreePolicy returns a factory of fresh instances of the named policy.
func testTreePolicy(name string) func() fleet.Policy {
	return func() fleet.Policy {
		pol, err := fleet.NewPolicy(name)
		if err != nil {
			panic(err)
		}
		return pol
	}
}

// TestFleetConservation is the cross-scheme conservation table: for every
// budget policy × fault class (plus clean) × scheme combination, the sum of
// allocated caps must stay within the fleet budget at every recorded
// interval. Run under -race in CI, this is also the fleet runner's data-race
// canary.
func TestFleetConservation(t *testing.T) {
	p := testPlatform(t)
	schemes := []Scheme{
		p.CoordinatedHeuristic(),
		p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams()),
	}
	classes := append([]string{"clean"}, fault.ClassNames()...)
	for _, sch := range schemes {
		for _, polName := range []string{"equal", "feedback"} {
			for _, class := range classes {
				opt := fleetTestOptions(polName)
				if class != "clean" {
					opt.Faults = fault.PresetClass(3, 1.0, class)
				}
				rec := obs.NewFleetRecorder(0)
				opt.Trace = rec
				res, err := FleetRun(p.Cfg, fleetTestMembers(t, p, 4, sch), opt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", sch.Name, polName, class, err)
				}
				if rec.Len() != res.Steps {
					t.Fatalf("%s/%s/%s: %d records for %d steps", sch.Name, polName, class, rec.Len(), res.Steps)
				}
				for i := 0; i < rec.Len(); i++ {
					r := rec.At(i)
					if r.AllocW > r.BudgetW+1e-9 {
						t.Fatalf("%s/%s/%s: step %d allocates %.6f W over the %.1f W budget",
							sch.Name, polName, class, r.Step, r.AllocW, r.BudgetW)
					}
					if r.Live+r.Done != 4 {
						t.Fatalf("%s/%s/%s: step %d live %d + done %d != 4",
							sch.Name, polName, class, r.Step, r.Live, r.Done)
					}
					if r.CapMaxW > 4.5+1e-9 || (r.Live > 0 && r.CapMinW < 1.0-1e-9) {
						t.Fatalf("%s/%s/%s: step %d caps [%.3f, %.3f] outside bounds",
							sch.Name, polName, class, r.Step, r.CapMinW, r.CapMaxW)
					}
				}
				if res.Reallocations == 0 {
					t.Fatalf("%s/%s/%s: no reallocations in %d steps", sch.Name, polName, class, res.Steps)
				}
			}
		}
	}
}

// fleetTraces runs one faulted fleet and returns the fleet JSONL plus every
// per-board JSONL, concatenated deterministically.
func fleetTraces(t *testing.T, p *Platform, parallelism int) []byte {
	t.Helper()
	sch := p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams())
	members := fleetTestMembers(t, p, 8, sch)
	opt := fleetTestOptions("feedback")
	opt.Budget.TotalW = 17.6
	opt.Faults = fault.Preset(5, 1.0)
	opt.Parallelism = parallelism
	opt.Trace = obs.NewFleetRecorder(0)
	boardRecs := make([]*obs.Recorder, len(members))
	for i := range boardRecs {
		boardRecs[i] = obs.NewRecorder(0)
	}
	opt.BoardTraces = boardRecs
	if _, err := FleetRun(p.Cfg, members, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opt.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for i, rec := range boardRecs {
		fmt.Fprintf(&buf, "--- board %d ---\n", i)
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFleetTraceParallelDeterminism asserts the fleet determinism contract:
// the coordination-layer trace and every per-board trace are byte-identical
// whether boards step sequentially or on eight workers.
func TestFleetTraceParallelDeterminism(t *testing.T) {
	p := testPlatform(t)
	seq := fleetTraces(t, p, 1)
	par := fleetTraces(t, p, 8)
	if len(seq) == 0 {
		t.Fatal("empty traces")
	}
	if !bytes.Equal(seq, par) {
		i := 0
		for i < len(seq) && i < len(par) && seq[i] == par[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(seq) {
			hi = len(seq)
		}
		t.Fatalf("traces diverge at byte %d:\nseq: %q\npar: %q", i, seq[lo:hi], par[min(hi, len(par)):])
	}
}

// TestFleetBoardZeroPairsWithSolo asserts the common-random-numbers pairing:
// board 0 of a fleet derives the identical fault stream as the solo run of
// the same (scheme, app), because RunKey with board index 0 is byte-for-byte
// the historical two-argument key.
func TestFleetBoardZeroPairsWithSolo(t *testing.T) {
	if got, want := fault.RunKey("s", "a", 0), fault.RunKey("s", "a"); got != want {
		t.Fatalf("RunKey with board 0 = %q, want %q", got, want)
	}
	if fault.RunKey("s", "a", 1) == fault.RunKey("s", "a") {
		t.Fatal("board 1 must not alias the solo key")
	}
}

// TestFleetRunValidation exercises the entry-point guards, and checks that a
// run without a topology reports the one-level tree it ran.
func TestFleetRunValidation(t *testing.T) {
	p := testPlatform(t)
	sch := p.CoordinatedHeuristic()
	members := fleetTestMembers(t, p, 4, sch)
	if _, err := FleetRun(p.Cfg, nil, fleetTestOptions("equal")); err == nil {
		t.Fatal("empty fleet accepted")
	}
	opt := fleetTestOptions("equal")
	opt.TreePolicy = nil
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("nil policy accepted")
	}
	opt = fleetTestOptions("equal")
	opt.Budget.TotalW = 2 // cannot cover 4 × 1 W floors
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	for _, bud := range []fleet.Budget{
		{TotalW: 0, MinW: 1, MaxW: 4.5},
		{TotalW: 8.8, MinW: 0, MaxW: 4.5},
		{TotalW: 8.8, MinW: 2, MaxW: 1},
	} {
		opt = fleetTestOptions("equal")
		opt.Budget = bud
		if _, err := FleetRun(p.Cfg, members, opt); err == nil {
			t.Fatalf("invalid budget %+v accepted", bud)
		}
	}
	opt = fleetTestOptions("equal")
	opt.BoardTraces = make([]*obs.Recorder, 2)
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("mis-sized BoardTraces accepted")
	}
	opt = fleetTestOptions("equal")
	opt.Topology, _ = fleet.ParseTopology("2x2")
	if _, err := FleetRun(p.Cfg, members[:3], opt); err == nil {
		t.Fatal("topology covering 4 boards accepted for 3 members")
	}
	opt = fleetTestOptions("equal")
	opt.Engine = "lockstep" // the deprecated field names the one engine or nothing
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("engine \"lockstep\" accepted")
	}

	opt = fleetTestOptions("equal")
	opt.MaxTime = 10 * time.Second
	opt.Engine = EngineEvent
	res, err := FleetRun(p.Cfg, members, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 || res.Depth != 1 || res.NodeReallocations != res.Reallocations || res.Reallocations == 0 {
		t.Fatalf("topology-less run: nodes %d, depth %d, node reallocations %d, reallocations %d; want the one-level tree",
			res.Nodes, res.Depth, res.NodeReallocations, res.Reallocations)
	}
}
