package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// updateGolden regenerates the fixtures under testdata/golden instead of
// diffing against them: go test ./internal/exp -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden trace fixtures under testdata/golden")

// goldenDir is where the fixtures live, relative to this package.
const goldenDir = "testdata/golden"

// goldenRun is the short deterministic run every per-scheme fixture captures:
// one minute of gamess under a mild mixed fault campaign, long enough to
// exercise sensor dropouts, actuator holds and a forced throttle, short
// enough that five fixtures stay a few hundred KB total.
func goldenRun(rec *obs.Recorder) core.RunOptions {
	return core.RunOptions{
		MaxTime:    60 * time.Second,
		Faults:     fault.Preset(1, 0.5),
		SkipSeries: true,
		Trace:      rec,
	}
}

// goldenSchemes lists every scheme covered by the regression suite, keyed by
// fixture stem.
func goldenSchemes(c *Context) []struct {
	Stem   string
	Scheme core.Scheme
} {
	hp, op := core.DefaultHWParams(), core.DefaultOSParams()
	return []struct {
		Stem   string
		Scheme core.Scheme
	}{
		{"coordinated-heuristic", c.P.CoordinatedHeuristic()},
		{"decoupled-heuristic", c.P.DecoupledHeuristic()},
		{"monolithic-lqg", c.P.MonolithicLQG()},
		{"yukta-full-ssv", c.P.YuktaFullSSV(hp, op)},
		{"supervised-ssv", c.P.SupervisedYuktaSSV(hp, op)},
	}
}

// compareGolden diffs got against the fixture <stem>.jsonl byte for byte.
// With -update it rewrites the fixture instead. On a mismatch it writes the
// observed trace next to the fixture as <stem>.got.jsonl (CI uploads these as
// the golden-diff artifact) and reports the first diverging line.
func compareGolden(t *testing.T, stem string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, stem+".jsonl")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotPath := filepath.Join(goldenDir, stem+".got.jsonl")
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Errorf("writing %s: %v", gotPath, err)
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			wantLine := []byte("<missing>")
			if i < len(wantLines) {
				wantLine = wantLines[i]
			}
			t.Fatalf("%s diverges from golden at line %d:\n got: %s\nwant: %s\n(observed trace saved as %s; if the change is intended, regenerate with -update)",
				stem, i+1, clip(gotLines[i]), clip(wantLine), gotPath)
		}
	}
	t.Fatalf("%s shorter than golden: %d vs %d lines (observed trace saved as %s)",
		stem, len(gotLines), len(wantLines), gotPath)
}

// clip bounds one diff line for the failure message.
func clip(b []byte) string {
	const max = 240
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// TestGoldenTraces is the golden-trace regression suite: for every scheme it
// replays the same short deterministic faulted run and requires the flight
// recorder's JSONL to match the committed fixture byte for byte. Any change
// to controller numerics, the fault derivation, the supervisor's decisions or
// the export format shows up here as a precise first-divergence diff.
func TestGoldenTraces(t *testing.T) {
	c := testContext(t)
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenSchemes(c) {
		g := g
		t.Run(g.Stem, func(t *testing.T) {
			rec := obs.NewRecorder(0)
			if _, err := core.Run(c.P.Cfg, g.Scheme, w, goldenRun(rec)); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("empty trace")
			}
			compareGolden(t, g.Stem, buf.Bytes())
		})
	}
}

// TestGoldenFleetTrace extends the suite one layer up: a four-board
// heterogeneous fleet under the slack-feedback policy, pinned by both its
// coordination-layer trace and every per-board trace.
func TestGoldenFleetTrace(t *testing.T) {
	c := testContext(t)
	sch := c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams())
	members := make([]core.FleetMember, 4)
	for i, app := range quickApps {
		w, err := workload.Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	rec := obs.NewFleetRecorder(0)
	boardRecs := make([]*obs.Recorder, len(members))
	for i := range boardRecs {
		boardRecs[i] = obs.NewRecorder(0)
	}
	opt := core.FleetOptions{
		Budget:      fleet.Budget{TotalW: 8.8, MinW: 1.0, MaxW: 4.5},
		TreePolicy:  func() fleet.Policy { return fleet.NewSlackFeedback() },
		MaxTime:     60 * time.Second,
		Faults:      fault.Preset(1, 0.5),
		Trace:       rec,
		BoardTraces: boardRecs,
	}
	if _, err := core.FleetRun(c.P.Cfg, members, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fleet-feedback-n4.fleet", buf.Bytes())
	for i, br := range boardRecs {
		var bb bytes.Buffer
		if err := br.WriteJSONL(&bb); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, fmt.Sprintf("fleet-feedback-n4-board%d", i), bb.Bytes())
	}
}

// TestGoldenHierarchicalFleetTrace pins the coordinator-tree layer: the same
// four-board fleet as TestGoldenFleetTrace, but run under a 2×2 rack topology
// with one slack-feedback policy per node. The fleet fixture carries three
// records per interval (DC root plus two racks, the racks tagged with their
// node paths) and the per-board fixtures pin that rack-local budget division
// reaches board physics deterministically.
func TestGoldenHierarchicalFleetTrace(t *testing.T) {
	c := testContext(t)
	topo, err := fleet.ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	sch := c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams())
	members := make([]core.FleetMember, 4)
	for i, app := range quickApps {
		w, err := workload.Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	rec := obs.NewFleetRecorder(0)
	boardRecs := make([]*obs.Recorder, len(members))
	for i := range boardRecs {
		boardRecs[i] = obs.NewRecorder(0)
	}
	opt := core.FleetOptions{
		Budget:   fleet.Budget{TotalW: 8.8, MinW: 1.0, MaxW: 4.5},
		Topology: topo,
		TreePolicy: func() fleet.Policy {
			return fleet.NewSlackFeedback()
		},
		MaxTime:     60 * time.Second,
		Faults:      fault.Preset(1, 0.5),
		Trace:       rec,
		BoardTraces: boardRecs,
	}
	if _, err := core.FleetRun(c.P.Cfg, members, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fleet-tree-2x2.fleet", buf.Bytes())
	for i, br := range boardRecs {
		var bb bytes.Buffer
		if err := br.WriteJSONL(&bb); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, fmt.Sprintf("fleet-tree-2x2-board%d", i), bb.Bytes())
	}
}

// TestGoldenFleetCompletionTrace pins the fleet trace through board
// completion: five boards (an odd count) run short synthetic apps of
// staggered sizes, so they finish at different intervals inside and across
// reallocation epochs, while the fifth runs gamess until MaxTime. Every
// finishing interval is recorded as Done, and the budget a finished board
// frees is re-divided over the boards still live.
func TestGoldenFleetCompletionTrace(t *testing.T) {
	c := testContext(t)
	sch := c.P.CoordinatedHeuristic()
	members := make([]core.FleetMember, 5)
	for i := range members {
		var w workload.Workload
		if i == len(members)-1 {
			w = workload.MustLookup("gamess")
		} else {
			a, err := workload.NewApp("short", float64(14+11*i), []workload.Phase{
				{WorkFrac: 0.6, Threads: 8, MemBound: 0.25, IPCBig: 1.4, IPCLittle: 0.7},
				{WorkFrac: 0.4, Threads: 3, MemBound: 0.5, IPCBig: 0.9, IPCLittle: 0.5},
			})
			if err != nil {
				t.Fatal(err)
			}
			w = a
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	rec := obs.NewFleetRecorder(0)
	opt := core.FleetOptions{
		Budget:       fleet.Budget{TotalW: 11, MinW: 1.0, MaxW: 4.5},
		TreePolicy:   func() fleet.Policy { return fleet.NewSlackFeedback() },
		ReallocEvery: 4,
		MaxTime:      30 * time.Second,
		Faults:       fault.Preset(1, 0.5),
		Trace:        rec,
	}
	res, err := core.FleetRun(c.P.Cfg, members, opt)
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, br := range res.Boards {
		if br.Completed {
			finished++
		}
	}
	if finished != len(members)-1 {
		t.Fatalf("%d boards finished before MaxTime, want %d", finished, len(members)-1)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fleet-completion-n5.fleet", buf.Bytes())
}
