package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"yukta/internal/board"
	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// equivSchemes is the scheme set the engine-versus-oracle property test
// sweeps — the same five families the golden suite pins.
func equivSchemes(p *Platform) []Scheme {
	hp, op := DefaultHWParams(), DefaultOSParams()
	return []Scheme{
		p.CoordinatedHeuristic(),
		p.DecoupledHeuristic(),
		p.MonolithicLQG(),
		p.YuktaFullSSV(hp, op),
		p.SupervisedYuktaSSV(hp, op),
	}
}

// equivClasses is clean plus every isolated fault class.
func equivClasses() []string {
	return append([]string{"clean"}, fault.ClassNames()...)
}

// soloFingerprint executes one solo run and returns its full observable
// output: the per-interval JSONL trace followed by every scalar of the
// result.
func soloFingerprint(t *testing.T, p *Platform, sch Scheme, class string) []byte {
	t.Helper()
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	opt := RunOptions{
		MaxTime:    20 * time.Second,
		SkipSeries: true,
		Trace:      rec,
	}
	if class != "clean" {
		opt.Faults = fault.PresetClass(7, 1.0, class)
	}
	res, err := Run(p.Cfg, sch, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "result: time=%v energy=%v exd=%v completed=%v emergencies=%d faults=%+v\n",
		res.TimeS, res.EnergyJ, res.ExD, res.Completed, res.EmergencyEvents, res.Faults)
	if res.Supervisor != nil {
		fmt.Fprintf(&buf, "supervisor: %+v\n", *res.Supervisor)
	}
	return buf.Bytes()
}

// fleetRunner is FleetRun or its lockstep oracle, refFleetRun.
type fleetRunner func(board.Config, []FleetMember, FleetOptions) (*FleetResult, error)

// equivMembers builds the fleet the engine-versus-oracle tests run. Even
// boards run the quick mix and last until MaxTime; odd boards, and every
// board when allFinish is set, run a short synthetic workload sized by board
// index, so boards finish at staggered intervals, mostly inside an epoch.
// That exercises the completion path: the finishing interval recorded as
// done, done boards leaving the clock and their caps zeroed, and, with
// allFinish, the run ending before MaxTime with slower coordinators' events
// still pending.
func equivMembers(t *testing.T, p *Platform, n int, sch Scheme, allFinish bool) []FleetMember {
	t.Helper()
	members := fleetTestMembers(t, p, n, sch)
	for i := range members {
		if !allFinish && i%2 == 0 {
			continue
		}
		w, err := workload.NewApp("short", float64(12+9*(i%5)), []workload.Phase{
			{WorkFrac: 1, Threads: 8, MemBound: 0.25, IPCBig: 1.4, IPCLittle: 0.7},
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i].Workload = w
	}
	return members
}

// fleetFingerprint executes one n-board fleet run of equivMembers under the
// given topology (nil: the one-level tree) with run and returns the fleet
// JSONL trace, every per-board JSONL trace, and every scalar of the result.
func fleetFingerprint(t *testing.T, p *Platform, sch Scheme, class string, n int,
	topo *fleet.Topology, allFinish bool, run fleetRunner) []byte {
	t.Helper()
	members := equivMembers(t, p, n, sch, allFinish)
	opt := FleetOptions{
		Budget:      fleet.Budget{TotalW: 2.2 * float64(n), MinW: 1.0, MaxW: 4.5},
		Topology:    topo,
		TreePolicy:  testTreePolicy("feedback"),
		MaxTime:     30 * time.Second,
		Parallelism: 4,
	}
	if class != "clean" {
		opt.Faults = fault.PresetClass(7, 1.0, class)
	}
	opt.Trace = obs.NewFleetRecorder(0)
	boardRecs := make([]*obs.Recorder, n)
	for i := range boardRecs {
		boardRecs[i] = obs.NewRecorder(0)
	}
	opt.BoardTraces = boardRecs
	res, err := run(p.Cfg, members, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := topo
	if want == nil {
		if want, err = fleet.Uniform(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	if res.Topology != want.Spec || res.Nodes != len(want.Nodes) || res.Depth != want.Depth {
		t.Fatalf("tree result metadata %q/%d/%d, want %q/%d/%d",
			res.Topology, res.Nodes, res.Depth, want.Spec, len(want.Nodes), want.Depth)
	}
	if res.NodeReallocations < res.Reallocations {
		t.Fatalf("node reallocations %d < realloc instants %d", res.NodeReallocations, res.Reallocations)
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
	fmt.Fprintf(&buf, "result: steps=%d reallocs=%d makespan=%v energy=%v edp=%v geoexd=%v\n",
		res.Steps, res.Reallocations, res.MakespanS, res.EnergyJ, res.EDP, res.GeoExD)
	for _, br := range res.Boards {
		fmt.Fprintf(&buf, "board %d: %+v\n", br.Board, br)
	}
	return buf.Bytes()
}

// diffFingerprints reports the first diverging byte with context.
func diffFingerprints(t *testing.T, name string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		hi := i + 60
		if hi > len(b) {
			hi = len(b)
		}
		if lo > len(b) {
			return nil
		}
		return b[lo:hi]
	}
	t.Fatalf("%s: outputs diverge at byte %d:\nwant: %q\ngot:  %q", name, i, clip(want), clip(got))
}

// TestEngineEquivalence is the engine-versus-oracle property test: for every
// scheme × fault class (clean plus every isolated class) × fleet size
// N∈{1,4,16} on the one-level tree, FleetRun (the event engine) and
// refFleetRun (the lockstep oracle) must produce byte-identical observable
// output — every JSONL trace record and every result scalar. The one-board
// fleet finishes before MaxTime; larger fleets mix finishing and running
// boards (equivMembers). CI runs it under -race, so it also exercises the
// event engine's batch parallelism for races.
func TestEngineEquivalence(t *testing.T) {
	p := testPlatform(t)
	fleetNs := []int{1, 4, 16}
	for _, sch := range equivSchemes(p) {
		for ci, class := range equivClasses() {
			t.Run(sch.Name+"/"+class, func(t *testing.T) {
				t.Parallel()
				ns := fleetNs
				if testing.Short() {
					// Rotate one fleet size per cell in -short mode; the
					// full matrix still covers every N per scheme.
					ns = fleetNs[ci%3 : ci%3+1]
				}
				for _, n := range ns {
					want := fleetFingerprint(t, p, sch, class, n, nil, n == 1, refFleetRun)
					got := fleetFingerprint(t, p, sch, class, n, nil, n == 1, FleetRun)
					if len(want) == 0 {
						t.Fatalf("empty fleet fingerprint at N=%d", n)
					}
					diffFingerprints(t, fmt.Sprintf("fleet N=%d", n), want, got)
				}
			})
		}
	}
}
