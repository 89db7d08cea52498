package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
)

// stepRunFingerprint drives a StepRun in the given chunk sizes (cycling) to
// completion and returns its trace + scalar fingerprint, shaped exactly like
// soloFingerprint's batch output.
func stepRunFingerprint(t *testing.T, p *Platform, sch Scheme, class string, chunks []int) []byte {
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
	sr, err := NewStepRun(p.Cfg, sch, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !sr.Done(); i++ {
		if n := sr.Step(chunks[i%len(chunks)]); n == 0 && !sr.Done() {
			t.Fatal("Step made no progress on an unfinished run")
		}
	}
	res := sr.Result()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Keep this format in lockstep with soloFingerprint so the byte diff is
	// apples-to-apples.
	fmt.Fprintf(&buf, "result: time=%v energy=%v exd=%v completed=%v emergencies=%d faults=%+v\n",
		res.TimeS, res.EnergyJ, res.ExD, res.Completed, res.EmergencyEvents, res.Faults)
	if res.Supervisor != nil {
		fmt.Fprintf(&buf, "supervisor: %+v\n", *res.Supervisor)
	}
	return buf.Bytes()
}

// TestStepRunMatchesBatch is the determinism-under-hosting gate at the core
// level: a run advanced incrementally in arbitrary chunk sizes must produce
// a byte-identical JSONL trace and identical result scalars to the batch
// Run of the same options, for a plain scheme and a supervised one, clean
// and under fault injection.
func TestStepRunMatchesBatch(t *testing.T) {
	p := testPlatform(t)
	hp, op := DefaultHWParams(), DefaultOSParams()
	schemes := []Scheme{p.CoordinatedHeuristic(), p.SupervisedYuktaSSV(hp, op)}
	chunkings := [][]int{{1}, {7}, {1, 13, 2}, {1000}}
	for _, sch := range schemes {
		for _, class := range []string{"clean", "all"} {
			batch := soloFingerprint(t, p, sch, class)
			for _, chunks := range chunkings {
				got := stepRunFingerprint(t, p, sch, class, chunks)
				diffFingerprints(t, sch.Name+"/"+class, batch, got)
			}
		}
	}
}

// TestStepRunForceTrip exercises the operator-forced trip: after ForceTrip
// on a supervised run, the next interval runs under the fallback, its record
// carries the trip with cause "operator", and the run's supervisor stats
// count exactly the trips the trace shows.
func TestStepRunForceTrip(t *testing.T) {
	p := testPlatform(t)
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	sch := p.SupervisedYuktaSSV(DefaultHWParams(), DefaultOSParams())
	sr, err := NewStepRun(p.Cfg, sch, w, RunOptions{
		MaxTime: 20 * time.Second, SkipSeries: true, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Supervised() {
		t.Fatal("supervised scheme not recognized as Supervised")
	}
	sr.Step(5)
	if st, ok := sr.SupervisorState(); !ok || st != supervisor.Nominal {
		t.Fatalf("pre-trip state = %v, %v; want Nominal", st, ok)
	}
	if !sr.ForceTrip() {
		t.Fatal("ForceTrip refused on a live supervised run")
	}
	sr.Step(1)
	if st, _ := sr.SupervisorState(); st != supervisor.Fallback {
		t.Fatalf("post-trip state = %v; want Fallback", st)
	}
	tripRec := rec.At(rec.Len() - 1)
	if !tripRec.SupTripped || tripRec.SupCause != "operator" || tripRec.SupState != "fallback" {
		t.Fatalf("trip record = tripped=%v cause=%q state=%q; want operator trip in fallback",
			tripRec.SupTripped, tripRec.SupCause, tripRec.SupState)
	}
	// Forcing again while already in fallback must not double-count.
	sr.ForceTrip()
	sr.Step(1)
	res := sr.Result()
	if res.Supervisor == nil || res.Supervisor.Trips != 1 ||
		res.Supervisor.Causes[supervisor.CauseOperator] != 1 {
		t.Fatalf("supervisor stats = %+v; want exactly one operator trip", res.Supervisor)
	}
	trips := 0
	for i := 0; i < rec.Len(); i++ {
		if rec.At(i).SupTripped {
			trips++
		}
	}
	if trips != 1 {
		t.Fatalf("trace shows %d trips; want 1", trips)
	}

	// An unsupervised run must refuse the trip.
	w2, _ := workload.Lookup("gamess")
	plain, err := NewStepRun(p.Cfg, p.CoordinatedHeuristic(), w2, RunOptions{
		MaxTime: 5 * time.Second, SkipSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Supervised() || plain.ForceTrip() {
		t.Fatal("unsupervised run accepted ForceTrip")
	}
}

// replayOpt builds the shared options of the ReplayTo gate, with a fresh
// recorder per run.
func replayOpt(rec *obs.Recorder) RunOptions {
	return RunOptions{
		MaxTime:    20 * time.Second,
		SkipSeries: true,
		Trace:      rec,
		Faults:     fault.PresetClass(7, 1.0, "all"),
	}
}

// TestReplayToReconstructsCrashedRun is the core-level crash-recovery gate:
// a run "killed" at step k and rebuilt by ReplayTo(k) on a fresh StepRun,
// then driven the same way from there (operator trip included), must end
// byte-identical to a run that was never interrupted — the determinism
// property the serve layer's write-ahead-log recovery rides.
func TestReplayToReconstructsCrashedRun(t *testing.T) {
	p := testPlatform(t)
	sch := p.SupervisedYuktaSSV(DefaultHWParams(), DefaultOSParams())
	finish := func(sr *StepRun, rec *obs.Recorder) []byte {
		t.Helper()
		sr.Step(4)
		if !sr.ForceTrip() {
			t.Fatal("ForceTrip refused")
		}
		for !sr.Done() {
			sr.Step(9)
		}
		res := sr.Result()
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "result: time=%v energy=%v exd=%v completed=%v emergencies=%d faults=%+v\n",
			res.TimeS, res.EnergyJ, res.ExD, res.Completed, res.EmergencyEvents, res.Faults)
		fmt.Fprintf(&buf, "supervisor: %+v\n", *res.Supervisor)
		return buf.Bytes()
	}
	mk := func() (*StepRun, *obs.Recorder) {
		t.Helper()
		w, err := workload.Lookup("gamess")
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(0)
		sr, err := NewStepRun(p.Cfg, sch, w, replayOpt(rec))
		if err != nil {
			t.Fatal(err)
		}
		return sr, rec
	}

	// Uninterrupted reference: step to 13, then finish.
	ref, refRec := mk()
	if n := ref.Step(13); n != 13 {
		t.Fatalf("reference advanced %d steps; want 13", n)
	}
	want := finish(ref, refRec)

	// Crash at step 13: a fresh run replayed to the same position and driven
	// identically from there must match byte for byte.
	const kill = 13
	crashed, crashedRec := mk()
	if err := crashed.ReplayTo(kill); err != nil {
		t.Fatalf("ReplayTo(%d): %v", kill, err)
	}
	if crashed.Steps() != kill {
		t.Fatalf("ReplayTo(%d) left the run at step %d", kill, crashed.Steps())
	}
	got := finish(crashed, crashedRec)
	diffFingerprints(t, fmt.Sprintf("replay@%d", kill), want, got)

	// Rewind and divergence are errors, not silent corruption: the finished
	// run refuses both a target behind its position and one past its end.
	if err := crashed.ReplayTo(3); err == nil {
		t.Fatal("ReplayTo accepted a target behind the current step")
	}
	if err := crashed.ReplayTo(crashed.MaxSteps() + 1000); err == nil {
		t.Fatal("ReplayTo accepted a target beyond the run's end")
	}
}
