package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"yukta/internal/core"
	"yukta/internal/exp"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// fleet-rack: 1024 boards on a 32x32 coordinator tree, the quick mix cycled
// across boards in the seed's order, the coordinated heuristic on every
// board, the slack-feedback policy dividing 2.2 W per board, with the fleet
// trace on, on the event engine. The cold start is identification only: no
// board runs a synthesized controller.

const (
	fleetTopo     = "32x32"
	fleetTopoTiny = "2x2"
	// fleetSetups is how many times the cold start is repeated for the
	// median setup_s.
	fleetSetups = 5
)

// fleetAssignment deals the quick mix to n boards — n/4 of each app, the
// mix cycled — in the seed's order over the tree.
func fleetAssignment(seed int64, n int) []string {
	mix := []string{"gamess", "mcf", "blackscholes", "streamcluster"}
	apps := make([]string, n)
	for i := range apps {
		apps[i] = mix[i%len(mix)]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// fleetMembers builds the member list: the coordinated heuristic on every
// board, each with its own workload instance.
func fleetMembers(p *core.Platform, apps []string) ([]core.FleetMember, error) {
	sch := p.CoordinatedHeuristic()
	members := make([]core.FleetMember, len(apps))
	for i, app := range apps {
		w, err := workload.Lookup(app)
		if err != nil {
			return nil, err
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	return members, nil
}

// fleetBudget is the harness's fleet budget calibration for n boards.
func fleetBudget(n int) fleet.Budget {
	return fleet.Budget{TotalW: exp.DefaultFleetBoardBudgetW * float64(n),
		MinW: exp.DefaultFleetMinCapW, MaxW: exp.DefaultFleetMaxCapW}
}

// fleetOptions builds one run's options with a fresh policy tree and trace.
func fleetOptions(spec string, workers int) (core.FleetOptions, error) {
	topo, err := fleet.ParseTopology(spec)
	if err != nil {
		return core.FleetOptions{}, err
	}
	n := topo.Boards
	return core.FleetOptions{
		Budget:      fleetBudget(n),
		Topology:    topo,
		TreePolicy:  func() fleet.Policy { return fleet.NewSlackFeedback() },
		MaxTime:     sweepMaxTime,
		Interval:    interval,
		Parallelism: workers,
		Engine:      core.EngineEvent,
		Trace:       obs.NewFleetRecorder(int(sweepMaxTime/interval) + 1),
	}, nil
}

// fleetRun is one measured fleet run.
type fleetRun struct {
	res      *core.FleetResult
	wall     time.Duration
	members  time.Duration // building the member list
	traceOut time.Duration // reading the fleet trace back as JSONL
	records  int
	// speed is the probe's speed factor over the run (1 untraced).
	speed float64
}

// boardIntervals is the number of board control intervals the run executed.
func (r fleetRun) boardIntervals() int {
	n := 0
	for _, b := range r.res.Boards {
		n += int(math.Round(b.TimeS / interval.Seconds()))
	}
	return n
}

// runFleetOnce builds the members, runs the fleet, and reads its trace back.
func runFleetOnce(p *core.Platform, apps []string, spec string, workers int) (fleetRun, error) {
	var fr fleetRun
	opt, err := fleetOptions(spec, workers)
	if err != nil {
		return fr, err
	}
	t := time.Now()
	members, err := fleetMembers(p, apps)
	if err != nil {
		return fr, err
	}
	fr.members = time.Since(t)
	t = time.Now()
	fr.res, err = core.FleetRun(p.Cfg, members, opt)
	fr.wall = time.Since(t)
	if err != nil {
		return fr, err
	}
	var buf bytes.Buffer
	t = time.Now()
	err = opt.Trace.WriteJSONL(&buf)
	fr.traceOut = time.Since(t)
	fr.records = opt.Trace.Len()
	return fr, err
}

func runFleetRack(rc runConfig) (*report, error) {
	rep := newReport()
	var led *ledger
	var p *core.Platform
	if rc.trace {
		led = newLedger(rc.start)
		rep.led = led
		ph := led.phase("setup")
		var err error
		if p, err = tracedPlatform(ph); err != nil {
			return nil, err
		}
		ph.close()
		rep.setupS = []float64{time.Since(rc.start).Seconds()}
		rep.values["identify.collect_s"] = led.seconds("identify.collect")
		rep.values["identify.fit_s"] = led.seconds("identify.fit")
	} else {
		for i := 0; i < fleetSetups; i++ {
			t := time.Now()
			if i == 0 {
				t = rc.start
			}
			var err error
			if p, err = newPlatform(); err != nil {
				return nil, err
			}
			rep.setupAt(rc, t)
		}
	}
	spec := fleetTopo
	if rc.tiny {
		spec = fleetTopoTiny
	}
	topo, err := fleet.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	apps := fleetAssignment(rc.seed, topo.Boards)

	var physUS, stepUS float64
	if rc.trace {
		pr := led.phase("probes")
		var err error
		if physUS, stepUS, err = probeFleetLayers(pr, rep, p, topo, rc.seed, rc.workers); err != nil {
			return nil, err
		}
		pr.close()
		// The measured fleet runs below are timed as whole calls, exactly as
		// untraced, and their layers are attributed from the probes: tracing
		// adds nothing to them.
		rep.values["trace.overhead_s"] = 0
	}

	var fl *phase
	if rc.trace {
		fl = led.phase("fleet")
	}
	mem := beginMeasured()
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	var runs []fleetRun
	for len(runs) == 0 || time.Now().Before(deadline) {
		t := time.Now()
		fr, err := runFleetOnce(p, apps, spec, rc.workers)
		rep.op(err, "fleet run")
		if err != nil {
			break
		}
		fr.speed = rc.probe.factor(t, time.Now())
		runs = append(runs, fr)
	}
	if len(runs) == 0 {
		return rep, nil
	}
	intervals := 0
	var lat []latency
	var rates, hostRates, speeds []float64
	var wall, traceOut, attributed time.Duration
	for _, fr := range runs {
		intervals += fr.boardIntervals()
		// Each run's time is scaled to reference speed by its own factor.
		lat = append(lat, latency{0, fr.wall.Seconds() * 1e3 / fr.speed})
		hostRate := float64(fr.boardIntervals()) / fr.wall.Seconds()
		rates = append(rates, hostRate*fr.speed)
		hostRates = append(hostRates, hostRate)
		speeds = append(speeds, fr.speed)
		wall += fr.wall
		traceOut += fr.traceOut
		if fl != nil {
			// Attribute each run's wall time: the board physics and controller
			// steps at their probed per-call cost spread over the pool, the
			// rest to the engine (event clock, pool barriers, reallocation,
			// fleet recorder).
			bi := float64(fr.boardIntervals()) / float64(rc.workers)
			phys := time.Duration(bi * physUS * 1e3)
			step := time.Duration(bi * stepUS * 1e3)
			attributed += phys + step
			fl.add("fleet.members", fr.members)
			fl.add("board.run", phys)
			fl.add("session.step", step)
			fl.add("obs.jsonl", fr.traceOut)
		}
	}
	rep.recordRuntime(mem, intervals)
	if fl != nil {
		fl.close()
		led.close()
		rep.values["fleet.engine_residual_frac"] = (wall - attributed).Seconds() / wall.Seconds()
		rep.values["fleet.node_reallocs"] = float64(runs[0].res.NodeReallocations)
		rep.values["obs.jsonl_us_per_record"] = traceOut.Seconds() * 1e6 / float64(len(runs)*runs[0].records)
		rep.values["trace_read_p50_ms"] = traceOut.Seconds() * 1e3 / float64(len(runs))
	}

	// A fleet run outlasts a throughput window, so the rate is the median of
	// the runs' own rates.
	rep.values["intervals_per_s"] = median(rates)
	rep.recordSteps(lat, 0, nil)
	rep.samples["host_intervals_per_s"] = median(hostRates)
	rep.samples["speed_factors"] = speeds
	rep.samples["board_intervals"] = intervals

	// Correctness: every board completes, every repeat reproduces the first
	// run, and the default seed matches the committed reference.
	first := runs[0].res
	for i, b := range first.Boards {
		rep.verify(b.Completed, "fleet board %d (%s) did not complete", i, b.App)
	}
	for k, fr := range runs[1:] {
		r := fr.res
		rep.verify(r.EDP == first.EDP && r.MakespanS == first.MakespanS && r.EnergyJ == first.EnergyJ,
			"fleet repeat %d differs from the first run", k+1)
	}
	got := fleetRef{Seed: defaultSeed, Topology: spec, EDP: first.EDP, MakespanS: first.MakespanS, EnergyJ: first.EnergyJ}
	checkFleetReference(rep, rc.seed, got)
	rep.ref = got
	norm, err := fleetExDNorm(p, first)
	if err != nil {
		return nil, err
	}
	rep.values["exd_norm"] = norm
	return rep, nil
}

// fleetExDNorm is the geometric mean over boards of each board's E×D under
// the shared budget divided by the same app's E×D on a lone, uncapped board
// under the same scheme: what the 2.2 W budget costs the fleet.
func fleetExDNorm(p *core.Platform, res *core.FleetResult) (float64, error) {
	solo := map[string]float64{}
	logSum := 0.0
	for _, b := range res.Boards {
		ref, ok := solo[b.App]
		if !ok {
			w, err := workload.Lookup(b.App)
			if err != nil {
				return 0, err
			}
			r, err := core.Run(p.Cfg, p.CoordinatedHeuristic(), w,
				core.RunOptions{MaxTime: sweepMaxTime, Interval: interval, SkipSeries: true})
			if err != nil {
				return 0, err
			}
			ref = r.ExD
			solo[b.App] = ref
		}
		logSum += math.Log(b.ExD / ref)
	}
	return math.Exp(logSum / float64(len(res.Boards))), nil
}

// probeFleetLayers measures the fleet's layers standalone: the board physics
// and coordinated controller step per interval on lone boards under the
// fleet's per-board cap, and the coordination calls on the fleet's shapes.
// It returns the per-interval physics and controller cost in microseconds.
func probeFleetLayers(pr *phase, rep *report, p *core.Platform, topo *fleet.Topology,
	seed int64, workers int) (physUS, stepUS float64, err error) {

	acc := newLoopAcc()
	rec := obs.NewRecorder(0)
	sch := p.CoordinatedHeuristic()
	opt := core.RunOptions{MaxTime: sweepMaxTime, Interval: interval, SkipSeries: true}
	for _, app := range []string{"gamess", "mcf", "blackscholes", "streamcluster"} {
		if _, err := tracedRun(acc, p.Cfg, sch, "coordinated", app, opt, exp.DefaultFleetBoardBudgetW, rec); err != nil {
			return 0, 0, err
		}
	}
	acc.book(pr)
	physUS = perCallUS(acc.run, acc.nRun)
	stepUS = perCallUS(acc.step["coordinated"], acc.nStep["coordinated"])
	rep.values["board.run_us"] = physUS
	rep.values["session.step_us.coordinated"] = stepUS

	if err := probeTree(pr, rep, topo, seed); err != nil {
		return 0, 0, err
	}
	probeSched(pr, rep, topo.Boards, seed)
	probePool(pr, rep, topo.Boards, workers)
	probeFleetRecorder(pr, rep)
	return physUS, stepUS, nil
}
