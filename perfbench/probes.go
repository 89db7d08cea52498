package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"yukta/internal/core"
	"yukta/internal/exp"
	"yukta/internal/fleet"
	"yukta/internal/mat"
	"yukta/internal/obs"
	"yukta/internal/optimizer"
	"yukta/internal/pool"
	"yukta/internal/robust"
	"yukta/internal/sched"
	"yukta/internal/serve"
	"yukta/internal/workload"
)

// Standalone layer probes: each calls one layer's public function
// repeatedly on seeded inputs shaped like the workload's, books the time to
// the ledger, and reports the mean cost per call.

const (
	// probeBudget is how long each probe keeps calling.
	probeBudget = 200 * time.Millisecond
	// probeMatrices is how many seeded inputs a kernel probe cycles through.
	probeMatrices = 16
)

// probe calls fn in batches until probeBudget has elapsed (at least one
// batch), books the total to entry, and returns the mean seconds per call.
func (p *phase) probe(entry string, batch int, fn func(i int)) float64 {
	t := time.Now()
	n := 0
	for n == 0 || time.Since(t) < probeBudget {
		for k := 0; k < batch; k++ {
			fn(n)
			n++
		}
	}
	d := time.Since(t)
	p.add(entry, d)
	return d.Seconds() / float64(n)
}

// probeMu times the μ kernels on seeded complex matrices the size of the
// hardware design's Δ-facing block (one scalar per output and control), and
// the eigensolver on real matrices of its controller's state dimension.
func probeMu(pr *phase, rep *report, seed int64, hwCtl *robust.Controller) {
	rng := rand.New(rand.NewSource(seed))
	n := hwCtl.NumOut + hwCtl.NumCtrl
	cms := make([]*mat.CMatrix, probeMatrices)
	for k := range cms {
		cms[k] = mat.CZeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cms[k].Set(i, j, complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()))
			}
		}
	}
	order := hwCtl.K.Order()
	rms := make([]*mat.Matrix, probeMatrices)
	for k := range rms {
		rms[k] = mat.Zeros(order, order)
		for i := 0; i < order; i++ {
			for j := 0; j < order; j++ {
				rms[k].Set(i, j, 0.3*rng.NormFloat64())
			}
		}
	}
	rep.values["robust.mu_upper_us"] = 1e6 * pr.probe("robust.mu_upper", 1, func(i int) {
		robust.MuUpperBound(cms[i%probeMatrices])
	})
	rep.values["robust.mu_lower_us"] = 1e6 * pr.probe("robust.mu_lower", 1, func(i int) {
		robust.MuLowerBound(cms[i%probeMatrices])
	})
	rep.values["mat.cmax_sv_us"] = 1e6 * pr.probe("mat.cmax_sv", 1, func(i int) {
		mat.CMaxSingularValue(cms[i%probeMatrices])
	})
	rep.values["mat.eig_us"] = 1e6 * pr.probe("mat.eig", 1, func(i int) {
		_, _ = mat.Eigenvalues(rms[i%probeMatrices])
	})
}

// probeSSVCtl times one step of the hardware SSV runtime (the §VI-D
// per-invocation cost) at a fixed operating point.
func probeSSVCtl(pr *phase, rep *report, p *core.Platform, hwCtl *robust.Controller) error {
	rt, err := p.NewHWRuntime(hwCtl)
	if err != nil {
		return err
	}
	if err := rt.SetTargets([]float64{6, 2.9, 0.25, 74}); err != nil {
		return err
	}
	meas := []float64{5.5, 2.8, 0.2, 72}
	ext := []float64{6, 1.5, 1}
	applied := []float64{4, 4, 1.2, 1.2}
	var stepErr error
	rep.values["ssvctl.step_ns"] = 1e9 * pr.probe("ssvctl.step", 256, func(int) {
		if _, err := rt.Step(meas, ext, applied); err != nil {
			stepErr = err
		}
	})
	return stepErr
}

// probeOptimizer times the E×D target search's update on a seeded cost
// sequence, configured like the hardware layer's optimizer.
func probeOptimizer(pr *phase, rep *report, seed int64) error {
	o, err := optimizer.New(optimizer.Config{
		Initial:         []float64{7, 2.9, 0.25},
		UpStep:          []float64{0.7, 0.06, 0.008},
		DownStep:        []float64{0.25, 0.15, 0.02},
		Lo:              []float64{0.5, 0.5, 0.05},
		Hi:              []float64{12, 3.2, 0.45},
		SettleIntervals: 5,
		Smoothing:       0.7,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, 1024)
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()
	}
	dst := make([]float64, 3)
	rep.values["optimizer.update_ns"] = 1e9 * pr.probe("optimizer.update", 1024, func(i int) {
		dst = o.UpdateInto(dst, costs[i%len(costs)])
	})
	return nil
}

// probeTree times one reallocation of every node of the fleet's coordinator
// tree under the slack-feedback policy, on seeded board telemetry.
func probeTree(pr *phase, rep *report, topo *fleet.Topology, seed int64) error {
	n := topo.Boards
	tree, err := fleet.NewTree(topo, fleetBudget(n), 10, 0, func() fleet.Policy { return fleet.NewSlackFeedback() })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	tel := make([]fleet.Telemetry, n)
	caps := make([]float64, n)
	for i := range tel {
		caps[i] = exp.DefaultFleetBoardBudgetW
		tel[i] = fleet.Telemetry{PowerW: 1.5 + 2*rng.Float64(), BIPS: 2 + 6*rng.Float64(),
			CapW: exp.DefaultFleetBoardBudgetW, Throttled: rng.Intn(3) == 0}
	}
	due := tree.Due(0, nil)
	rep.values["fleet.tree_realloc_us"] = 1e6 * pr.probe("fleet.tree_realloc", 1, func(int) {
		tree.Realloc(due, tel, caps)
	})
	return nil
}

// probeSched times the event heap: one call schedules a wake per board over
// one reallocation epoch and drains it batch by batch; the metric is per
// event.
func probeSched(pr *phase, rep *report, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]sched.Event, n)
	for i := range evs {
		evs[i] = sched.Event{Time: rng.Intn(10), Kind: 1, ID: int32(i)}
	}
	h := sched.NewHeap(n)
	var buf []sched.Event
	perCall := pr.probe("sched.heap", 1, func(int) {
		for _, e := range evs {
			h.Push(e)
		}
		for h.Len() > 0 {
			buf = h.PopBatch(buf[:0])
		}
	})
	rep.values["sched.event_ns"] = 1e9 * perCall / float64(n)
}

// probePool times one fan-out of the fleet's board count over the pool with
// an empty body: the barrier cost the engine pays per wake batch.
func probePool(pr *phase, rep *report, n, workers int) {
	rep.values["pool.fanout_us"] = 1e6 * pr.probe("pool.fanout", 1, func(int) {
		_ = pool.ForEachMetered(workers, n, nil, func(int) error { return nil })
	})
}

// probeFleetRecorder times one fleet-trace append.
func probeFleetRecorder(pr *phase, rep *report) {
	r := obs.NewFleetRecorder(0)
	rep.values["obs.fleet_record_add_ns"] = 1e9 * pr.probe("obs.fleet_record_add", 1024, func(i int) {
		r.Add(obs.FleetRecord{Step: i, TimeS: float64(i) * 0.5, BudgetW: 2252.8, AllocW: 2252.8, Live: 1024})
	})
}

// probeServeLayers measures the serving path's layers without HTTP: a
// one-record append+fsync in the daemon's data directory, the hosted run's
// single-interval step in process, and the flight recorder's JSONL export.
func probeServeLayers(pr *phase, rep *report, p *core.Platform, mix []serve.CreateRequest, dataDir string) error {
	f, err := os.Create(filepath.Join(dataDir, "fsync-probe.log"))
	if err != nil {
		return err
	}
	line := []byte(`{"t":"step","n":1,"seq":1}` + "\n")
	var ioErr error
	rep.values["disk.fsync_us"] = 1e6 * pr.probe("disk.fsync", 1, func(int) {
		if _, err := f.Write(line); err != nil {
			ioErr = err
			return
		}
		if err := f.Sync(); err != nil {
			ioErr = err
		}
	})
	if err := f.Close(); err != nil && ioErr == nil {
		ioErr = err
	}
	if ioErr != nil {
		return ioErr
	}

	schemes := serve.DefaultSchemes(p)
	var stepD, jsonD time.Duration
	steps, records := 0, 0
	for _, req := range mix[:2] {
		opt, rec := serveRunOptions(req)
		w, err := workload.Lookup(req.App)
		if err != nil {
			return err
		}
		run, err := core.NewStepRun(p.Cfg, schemes[req.Scheme], w, opt)
		if err != nil {
			return err
		}
		for !run.Done() {
			t := time.Now()
			run.Step(1)
			stepD += time.Since(t)
			steps++
		}
		var buf bytes.Buffer
		t := time.Now()
		if err := rec.WriteJSONL(&buf); err != nil {
			return err
		}
		jsonD += time.Since(t)
		records += rec.Len()
	}
	pr.add("core.steprun_step", stepD)
	pr.add("obs.jsonl", jsonD)
	rep.values["core.steprun_step_us"] = perCallUS(stepD, steps)
	rep.values["obs.jsonl_us_per_record"] = perCallUS(jsonD, records)
	return nil
}
