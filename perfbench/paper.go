package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/heuristic"
	"yukta/internal/obs"
	"yukta/internal/robust"
	"yukta/internal/serve"
	"yukta/internal/workload"
)

// paper-sweep: the 14 evaluation apps under Table IV's six schemes plus the
// supervised stack, clean and under the seed's harshest fault campaign, as
// solo core.Run calls fanned out over the pool — what yukta-bench -fig 9,
// 12 and 14 with -faults run. The cold start synthesizes every design.

// sweepSchemes are the measured schemes by API name (serve.DefaultSchemes).
var sweepSchemes = []string{"coordinated", "decoupled", "yukta-hw", "yukta-full",
	"lqg-decoupled", "lqg-mono", "yukta-supervised"}

// interval is the control interval every workload runs at (§V-A).
const interval = 500 * time.Millisecond

// sweepMaxTime is yukta-bench's per-run limit for the scalar sweeps.
const sweepMaxTime = 1500 * time.Second

// cell is one solo run of the sweep.
type cell struct {
	app, scheme string
	faulted     bool
}

func (c cell) key() string {
	cond := "clean"
	if c.faulted {
		cond = "faulted"
	}
	return c.app + "|" + c.scheme + "|" + cond
}

// cellResult holds a run's scalars and its interval count.
type cellResult struct {
	ExD, TimeS, EnergyJ float64
	Intervals           int
}

func resultOf(r *core.RunResult) cellResult {
	return cellResult{ExD: r.ExD, TimeS: r.TimeS, EnergyJ: r.EnergyJ,
		Intervals: int(math.Round(r.TimeS / r.IntervalS))}
}

func (r cellResult) same(o cellResult) bool {
	return r.ExD == o.ExD && r.TimeS == o.TimeS && r.EnergyJ == o.EnergyJ
}

// paperCells lays out one pass of the sweep: the evaluation apps in the
// seed's order, each under every scheme, clean then faulted.
func paperCells(seed int64, tiny bool) []cell {
	apps := append(workload.EvaluationSPEC(), workload.EvaluationPARSEC()...)
	rand.New(rand.NewSource(seed)).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	if tiny {
		apps = apps[:1]
	}
	var cells []cell
	for _, app := range apps {
		for _, s := range sweepSchemes {
			cells = append(cells, cell{app, s, false}, cell{app, s, true})
		}
	}
	return cells
}

// cellOptions are a cell's run options: yukta-bench's scalar-sweep limits,
// with the seed's campaign on faulted cells.
func cellOptions(c cell, plan fault.Plan) core.RunOptions {
	opt := core.RunOptions{MaxTime: sweepMaxTime, Interval: interval, SkipSeries: true}
	if c.faulted {
		opt.Faults = plan
	}
	return opt
}

// runCell executes one cell through core.Run.
func runCell(cfg board.Config, sch core.Scheme, c cell, plan fault.Plan) (cellResult, error) {
	w, err := workload.Lookup(c.app)
	if err != nil {
		return cellResult{}, err
	}
	r, err := core.Run(cfg, sch, w, cellOptions(c, plan))
	if err != nil {
		return cellResult{}, err
	}
	return resultOf(r), nil
}

// newPlatform is the identification every workload's cold start pays.
func newPlatform() (*core.Platform, error) {
	return core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
}

// tracedPlatform assembles the platform core.NewPlatform builds from its
// public parts, timing data collection and model fitting separately.
func tracedPlatform(ph *phase) (*core.Platform, error) {
	cfg := board.DefaultConfig()
	var td *core.TrainingData
	if err := ph.time("identify.collect", func() (err error) {
		td, err = core.CollectTrainingData(cfg, core.DefaultIdentifyOptions())
		return err
	}); err != nil {
		return nil, err
	}
	p := &core.Platform{Cfg: cfg, Lim: heuristic.DefaultLimits(), Data: td}
	err := ph.time("identify.fit", func() (err error) {
		if p.HW, err = td.HWModel(); err != nil {
			return err
		}
		if p.OS, err = td.OSModel(); err != nil {
			return err
		}
		if p.HWOnly, err = td.HWOnlyModel(); err != nil {
			return err
		}
		if p.OSOnly, err = td.OSOnlyModel(); err != nil {
			return err
		}
		p.Mono, err = td.MonoModel()
		return err
	})
	return p, err
}

// sweepPlan is the seed's fault campaign at the harshest preset intensity.
func sweepPlan(seed int64) fault.Plan { return fault.Preset(seed, 1.0) }

func runPaperSweep(rc runConfig) (*report, error) {
	if rc.trace {
		return tracePaperSweep(rc)
	}
	rep := newReport()
	p, err := newPlatform()
	if err != nil {
		return nil, err
	}
	if err := p.WarmCaches([]core.HWParams{core.DefaultHWParams()},
		[]core.OSParams{core.DefaultOSParams()}, true); err != nil {
		return nil, err
	}
	rep.setupAt(rc, rc.start)

	schemes := serve.DefaultSchemes(p)
	cells := paperCells(rc.seed, rc.tiny)
	plan := sweepPlan(rc.seed)
	type done struct {
		i   int
		res cellResult
		ms  float64
		at  float64
		err error
	}
	outs := make([][]done, rc.workers)
	var next atomic.Int64
	mem := beginMeasured()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(rc.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				// Every worker keeps issuing until the deadline, and the first
				// full pass always completes.
				i := int(next.Add(1) - 1)
				if i >= len(cells) && time.Now().After(deadline) {
					return
				}
				c := cells[i%len(cells)]
				s := time.Now()
				res, err := runCell(p.Cfg, schemes[c.scheme], c, plan)
				outs[w] = append(outs[w], done{i, res, msSince(s), time.Since(t0).Seconds(), err})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	first := make([]cellResult, len(cells))
	var lat []latency
	var comps []completion
	intervals := 0
	for _, o := range outs {
		for _, d := range o {
			rep.op(d.err, cells[d.i%len(cells)].key())
			if d.err != nil {
				continue
			}
			lat = append(lat, latency{d.at, d.ms})
			comps = append(comps, completion{d.at, d.res.Intervals})
			intervals += d.res.Intervals
			if d.i < len(cells) {
				first[d.i] = d.res
			}
		}
	}
	// Every repeat of a cell must reproduce its first pass exactly.
	for _, o := range outs {
		for _, d := range o {
			if d.err == nil && d.i >= len(cells) {
				rep.verify(d.res.same(first[d.i%len(cells)]), "%s: repeat %d differs from the first pass",
					cells[d.i%len(cells)].key(), d.i/len(cells))
			}
		}
	}
	checkPaperReference(rep, rc.seed, cells, first)
	rep.recordRuntime(mem, intervals)
	fs := rc.probe.windowFactors(t0, elapsed)
	rep.values["intervals_per_s"] = windowedRate(comps, elapsed, fs)
	rep.recordSteps(lat, elapsed, fs)
	rep.samples["host_intervals_per_s"] = windowedRate(comps, elapsed, nil)
	rep.samples["host_step_p50_ms"] = latencyQuantile(lat, elapsed, 0.5, nil)
	rep.samples["speed_factors"] = fs
	rep.values["exd_norm"] = exdNorm(cells, first)
	rep.samples["passes"] = float64(len(lat)) / float64(len(cells))
	rep.samples["intervals"] = intervals
	rep.ref = paperReference(cells, first)
	return rep, nil
}

// exdNorm is the geometric mean over (app, condition) of Yukta-full E×D
// over Coordinated-heuristic E×D.
func exdNorm(cells []cell, res []cellResult) float64 {
	byKey := map[string]cellResult{}
	for i, c := range cells {
		byKey[c.key()] = res[i]
	}
	logSum, n := 0.0, 0
	for _, c := range cells {
		if c.scheme != "yukta-full" {
			continue
		}
		base := byKey[cell{c.app, "coordinated", c.faulted}.key()]
		if base.ExD > 0 && byKey[c.key()].ExD > 0 {
			logSum += math.Log(byKey[c.key()].ExD / base.ExD)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// tracePaperSweep is the traced run: the set-up with each layer timed, the
// layer probes, one untraced reference pass through core.Run, then traced
// passes in which the benchmark drives each run's interval loop itself from
// public calls, timing every call, and last the serving loop, which hosts
// the same designs over HTTP. Each traced run must reproduce its core.Run
// scalars bit for bit.
func tracePaperSweep(rc runConfig) (*report, error) {
	rep := newReport()
	led := newLedger(rc.start)
	rep.led = led

	ph := led.phase("setup")
	p, err := tracedPlatform(ph)
	if err != nil {
		return nil, err
	}
	hp, op := core.DefaultHWParams(), core.DefaultOSParams()
	var hwCtl, osCtl *robust.Controller
	if err := ph.time("synth.hw_validated", func() (err error) {
		hwCtl, err = p.HWControllerValidated(hp)
		return err
	}); err != nil {
		return nil, err
	}
	if err := ph.time("synth.os_validated", func() (err error) {
		osCtl, err = p.OSControllerValidated(op)
		return err
	}); err != nil {
		return nil, err
	}
	if err := ph.time("synth.lqg", func() error {
		if _, err := p.MonolithicLQGController(); err != nil {
			return err
		}
		_, _, err := p.DecoupledLQGControllers()
		return err
	}); err != nil {
		return nil, err
	}
	ph.close()
	rep.setupS = []float64{time.Since(rc.start).Seconds()}
	for _, k := range []string{"identify.collect", "identify.fit", "synth.hw_validated", "synth.os_validated", "synth.lqg"} {
		rep.values[k+"_s"] = led.seconds(k)
	}
	rep.values["robust.ssv_iterations"] = float64(hwCtl.Report.Iterations + osCtl.Report.Iterations)

	pr := led.phase("probes")
	if err := pr.time("robust.synthesize", func() error {
		_, err := p.SynthesizeHWSSV(hp)
		return err
	}); err != nil {
		return nil, err
	}
	rep.values["robust.synthesize_s"] = led.seconds("robust.synthesize")
	probeMu(pr, rep, rc.seed, hwCtl)
	if err := probeSSVCtl(pr, rep, p, hwCtl); err != nil {
		return nil, err
	}
	if err := probeOptimizer(pr, rep, rc.seed); err != nil {
		return nil, err
	}
	pr.close()

	schemes := serve.DefaultSchemes(p)
	cells := paperCells(rc.seed, rc.tiny)
	plan := sweepPlan(rc.seed)

	// The untraced reference: one sequential pass through core.Run.
	rf := led.phase("reference")
	ref := make([]cellResult, len(cells))
	for i, c := range cells {
		rep.op(rf.time("core.run", func() (err error) {
			ref[i], err = runCell(p.Cfg, schemes[c.scheme], c, plan)
			return err
		}), c.key())
	}
	refWall := rf.close()
	checkPaperReference(rep, rc.seed, cells, ref)

	tp := led.phase("traced")
	acc := newLoopAcc()
	rec := obs.NewRecorder(0)
	mem := beginMeasured()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(rc.seconds * float64(time.Second)))
	var firstPass time.Duration
	var lat []latency
	intervals := 0
	for i := 0; i < len(cells) || time.Now().Before(deadline); i++ {
		c := cells[i%len(cells)]
		s := time.Now()
		res, err := tracedRun(acc, p.Cfg, schemes[c.scheme], c.scheme, c.app, cellOptions(c, plan), 0, rec)
		lat = append(lat, latency{time.Since(t0).Seconds(), msSince(s)})
		rep.op(err, "traced "+c.key())
		if err == nil {
			rep.verify(res.same(ref[i%len(cells)]), "traced %s: E×D %v, core.Run %v", c.key(), res.ExD, ref[i%len(cells)].ExD)
		}
		intervals += res.Intervals
		if i == len(cells)-1 {
			firstPass = time.Since(t0)
		}
	}
	rep.recordSteps(lat, time.Since(t0).Seconds(), nil)
	acc.book(tp)
	tp.close()
	rep.recordRuntime(mem, intervals)
	if err := traceServing(rc, led, rep, p); err != nil {
		return nil, err
	}
	led.close()
	acc.report(rep)
	rep.values["trace.overhead_s"] = firstPass.Seconds() - refWall.Seconds()
	rep.samples["traced_intervals"] = intervals
	rep.samples["traced_runs"] = acc.runs
	return rep, nil
}

// loopAcc accumulates the per-call timings of traced interval loops.
type loopAcc struct {
	runs                        int
	build, advance, run, record time.Duration
	nAdvance, nRun, nRecord     int
	step                        map[string]time.Duration
	nStep                       map[string]int
}

func newLoopAcc() *loopAcc {
	return &loopAcc{step: map[string]time.Duration{}, nStep: map[string]int{}}
}

// tracedRun drives one solo run's interval loop from public calls, exactly
// as core.Run's interval body does — fault injector advance, board physics,
// controller step — plus a flight-recorder append, timing each call. capW,
// when positive, caps the board's power as a fleet coordinator would. The
// scheme is keyed by its API name in the accumulator.
func tracedRun(acc *loopAcc, cfg board.Config, sch core.Scheme, schemeName, app string,
	opt core.RunOptions, capW float64, rec *obs.Recorder) (cellResult, error) {

	t := time.Now()
	sess, err := sch.New()
	if err != nil {
		return cellResult{}, err
	}
	w0, err := workload.Lookup(app)
	if err != nil {
		return cellResult{}, err
	}
	var w workload.Workload = w0
	var inj *fault.Injector
	if opt.Faults.Enabled() {
		key := sch.FaultKey
		if key == "" {
			key = sch.Name
		}
		runKey := fault.RunKey(key, w.Name())
		inj = opt.Faults.NewInjector(runKey)
		w = opt.Faults.Disturb(w, runKey)
	}
	w.Reset()
	b := board.New(cfg)
	if inj != nil {
		b.AttachSensorTap(inj)
		b.AttachActuatorTap(inj)
	}
	if capW > 0 {
		b.SetPowerCapW(capW)
	}
	maxSteps := int(opt.MaxTime / opt.Interval)
	acc.build += time.Since(t)
	acc.runs++

	var advance, run, step, record time.Duration
	n := 0
	for ; n < maxSteps && !w.Done(); n++ {
		if inj != nil {
			t0 := time.Now()
			inj.Advance(b)
			advance += time.Since(t0)
		}
		t1 := time.Now()
		s := b.Run(w, opt.Interval)
		threads := w.Profile().Threads
		t2 := time.Now()
		sess.Step(s, b, threads)
		t3 := time.Now()
		rec.Add(obs.Record{Step: n, TimeS: s.TimeS, BigPowerW: s.BigPowerW,
			LittlePowerW: s.LittlePowerW, TempC: s.TempC, BIPS: s.BIPS,
			LatencyNS: t3.Sub(t2).Nanoseconds()})
		t4 := time.Now()
		run += t2.Sub(t1)
		step += t3.Sub(t2)
		record += t4.Sub(t3)
	}
	if inj != nil {
		acc.advance += advance
		acc.nAdvance += n
	}
	acc.run += run
	acc.nRun += n
	acc.step[schemeName] += step
	acc.nStep[schemeName] += n
	acc.record += record
	acc.nRecord += n
	return cellResult{ExD: b.EnergyJ() * b.TimeS(), TimeS: b.TimeS(), EnergyJ: b.EnergyJ(), Intervals: n}, nil
}

// stepTotal is the controller time summed over schemes.
func (a *loopAcc) stepTotal() time.Duration {
	var d time.Duration
	for _, s := range a.step {
		d += s
	}
	return d
}

// book charges the accumulated calls to the phase's ledger entries.
func (a *loopAcc) book(ph *phase) {
	ph.add("run.build", a.build)
	ph.add("fault.advance", a.advance)
	ph.add("board.run", a.run)
	ph.add("session.step", a.stepTotal())
	ph.add("obs.record_add", a.record)
}

// report fills the per-call metrics of the traced loop.
func (a *loopAcc) report(rep *report) {
	rep.values["board.run_us"] = perCallUS(a.run, a.nRun)
	rep.values["fault.advance_us"] = perCallUS(a.advance, a.nAdvance)
	rep.values["obs.record_add_ns"] = perCallUS(a.record, a.nRecord) * 1e3
	for _, s := range []string{"coordinated", "yukta-full", "yukta-supervised", "lqg-mono"} {
		if a.nStep[s] > 0 {
			rep.values["session.step_us."+s] = perCallUS(a.step[s], a.nStep[s])
		}
	}
}

// perCallUS is the mean duration per call in microseconds (0 for no calls).
func perCallUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(n)
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }
