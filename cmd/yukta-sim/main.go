// Command yukta-sim runs one workload under one controller scheme on the
// simulated ODROID XU3 board and prints the measured outcome plus ASCII
// traces of power and performance.
//
// Usage:
//
//	yukta-sim -app blackscholes -scheme yukta-full
//	yukta-sim -app mcf -scheme coordinated -trace
//	yukta-sim -app gamess -scheme yukta-supervised -faults 2 -record run.jsonl
//	yukta-sim -list
//
// With -via, the same run executes inside a running yukta-serve daemon
// instead of in-process: the CLI creates a session, steps it to completion
// over HTTP, and prints the hosted result. Determinism survives hosting, so
// -record captures a trace byte-identical to the local run's:
//
//	yukta-sim -via http://localhost:8871 -app gamess -scheme yukta-supervised -faults 1 -record run.jsonl
//
// The hosted path rides the hardened internal/client: transient failures
// (daemon restart, rate limiting, the recovery fence after a crash) are
// retried with exponential backoff and jitter, and every step request
// carries an idempotency sequence number so a retry never double-advances
// the session.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"yukta"
	"yukta/internal/client"
	"yukta/internal/serve"
)

func schemes(p *yukta.Platform) map[string]yukta.Scheme {
	return map[string]yukta.Scheme{
		"coordinated":      p.CoordinatedHeuristic(),
		"decoupled":        p.DecoupledHeuristic(),
		"yukta-hw":         p.YuktaHWSSVOSHeuristic(yukta.DefaultHWParams()),
		"yukta-full":       p.YuktaFullSSV(yukta.DefaultHWParams(), yukta.DefaultOSParams()),
		"yukta-supervised": p.SupervisedYuktaSSV(yukta.DefaultHWParams(), yukta.DefaultOSParams()),
		"lqg-mono":         p.MonolithicLQG(),
		"lqg-decoupled":    p.DecoupledLQG(),
	}
}

func main() {
	var (
		app       = flag.String("app", "blackscholes", "workload name")
		scheme    = flag.String("scheme", "yukta-full", "controller scheme")
		trace     = flag.Bool("trace", false, "print ASCII power/performance traces")
		maxTime   = flag.Duration("max", 25*time.Minute, "simulation time budget")
		noise     = flag.Float64("noise", 0, "power-sensor noise std-dev in watts (failure injection)")
		faults    = flag.Float64("faults", 0, "fault-campaign intensity (0 = clean; 1 = harness's harshest default)")
		faultSeed = flag.Int64("faultseed", 1, "base seed of the injected fault campaign")
		record    = flag.String("record", "", "write the flight-recorder decision log to this JSONL path and print its timeline")
		via       = flag.String("via", "", "base URL of a running yukta-serve daemon; runs the session there instead of in-process")
		watch     = flag.Bool("watch", false, "with -via: stream the hosted session's live event feed and render each interval as it executes")
		list      = flag.Bool("list", false, "list workloads and schemes")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", yukta.EvaluationApps())
		fmt.Println("training: ", yukta.TrainingApps())
		fmt.Println("mixes:    blmc stga blst mcga")
		fmt.Println("schemes:  coordinated decoupled yukta-hw yukta-full yukta-supervised lqg-mono lqg-decoupled")
		return
	}

	if *via != "" {
		if *trace || *noise > 0 {
			fatal(fmt.Errorf("-trace and -noise are local-only; the hosted path runs scalar sessions"))
		}
		if err := runVia(*via, *scheme, *app, *maxTime, *faults, *faultSeed, *record, *watch); err != nil {
			fatal(err)
		}
		return
	}
	if *watch {
		fatal(fmt.Errorf("-watch streams a hosted session; pair it with -via"))
	}

	fmt.Fprintln(os.Stderr, "building platform (identification + synthesis)...")
	p, err := yukta.NewDefaultPlatform()
	if err != nil {
		fatal(err)
	}
	sch, ok := schemes(p)[*scheme]
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q (see -list)", *scheme))
	}
	w, err := lookup(*app)
	if err != nil {
		fatal(err)
	}
	cfg := p.Cfg
	if *noise > 0 {
		cfg.SensorNoiseStd = *noise
		cfg.SensorNoiseSeed = 1
	}
	opt := yukta.RunOptions{MaxTime: *maxTime}
	if *faults > 0 {
		opt.Faults = yukta.FaultPreset(*faultSeed, *faults)
	}
	var rec *yukta.FlightRecorder
	if *record != "" {
		rec = yukta.NewFlightRecorder(int(*maxTime/(500*time.Millisecond)) + 1)
		opt.Trace = rec
	}
	res, err := yukta.Run(cfg, sch, w, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("app=%s scheme=%q\n", res.App, res.Scheme)
	fmt.Printf("completed=%v time=%.1fs energy=%.1fJ ExD=%.0fJ·s emergencies=%d\n",
		res.Completed, res.TimeS, res.EnergyJ, res.ExD, res.EmergencyEvents)
	st := res.BigPower.Summarize()
	fmt.Printf("big power: mean=%.2fW max=%.2fW swings=%d\n", st.Mean, st.Max, st.Oscillations)
	if sup := res.Supervisor; sup != nil {
		fmt.Printf("supervisor: trips=%d recoveries=%d fallback=%.1fs\n",
			sup.Trips, sup.Recoveries, float64(sup.FallbackSteps)*res.IntervalS)
	}
	if fs := res.Faults; fs.DroppedReadings+fs.StaleReadings+fs.HeldCommands+fs.SkewedCommands+fs.ForcedThrottles > 0 {
		fmt.Printf("faults: dropped=%d stale=%d held=%d skewed=%d forcedTMU=%d\n",
			fs.DroppedReadings, fs.StaleReadings, fs.HeldCommands, fs.SkewedCommands, fs.ForcedThrottles)
	}
	if rec != nil {
		if err := writeRecord(*record, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *record, rec.Len())
		fmt.Println(rec.Timeline(76))
	}
	if *trace {
		fmt.Println(res.BigPower.RenderASCII(76, 10))
		fmt.Println(res.Perf.RenderASCII(76, 10))
		fmt.Println(res.Temp.RenderASCII(76, 10))
	}
}

// runVia executes the run inside a yukta-serve daemon: create a session with
// the same tuple the local path would use, step it to completion over HTTP,
// print the hosted result, and optionally download the trace. The daemon's
// trace is byte-identical to the local run's (the serve package's
// determinism gate), so -record output is interchangeable between paths.
// Steps ride the hardened client's idempotent retry loop, which also makes
// the drive survive a daemon crash-and-recover in the middle of the run.
func runVia(base, scheme, app string, maxTime time.Duration, faults float64, faultSeed int64, record string, watch bool) error {
	c := client.New(client.Config{
		Base:       base,
		JitterSeed: time.Now().UnixNano(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "yukta-sim: "+format+"\n", args...)
		},
	})
	req := serve.CreateRequest{
		Scheme:   scheme,
		App:      app,
		MaxTimeS: maxTime.Seconds(),
	}
	if faults > 0 {
		// The local path's -faults intensity is the full campaign: class
		// "all" on the hosted API.
		req.FaultClass = "all"
		req.FaultIntensity = faults
		req.FaultSeed = faultSeed
	}
	sess, info, err := c.CreateSession(req)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "session %s on %s\n", info.ID, base)

	var watchDone chan error
	var watchCancel context.CancelFunc
	if watch {
		var ctx context.Context
		ctx, watchCancel = context.WithCancel(context.Background())
		defer watchCancel()
		watchDone = make(chan error, 1)
		connected := make(chan struct{})
		go func() {
			watchDone <- sess.Watch(ctx, renderWatchRecord, client.WatchConnected(connected))
		}()
		// Don't step until the stream is attached, or the first intervals
		// (or, for a short run, the whole thing) would execute unwatched.
		select {
		case <-connected:
		case err := <-watchDone:
			return fmt.Errorf("watch stream failed to attach: %w", err)
		}
	}

	if _, err := sess.StepToDone(500); err != nil {
		return err
	}
	if watchDone != nil {
		// The server closes the stream with its done sentinel once the run
		// completes; give a wedged stream a bounded grace period.
		select {
		case err := <-watchDone:
			if err != nil {
				fmt.Fprintf(os.Stderr, "yukta-sim: watch stream: %v\n", err)
			}
		case <-time.After(30 * time.Second):
			watchCancel()
			fmt.Fprintln(os.Stderr, "yukta-sim: watch stream never finished; abandoned")
		}
	}

	fin, err := sess.Info()
	if err != nil {
		return err
	}
	fmt.Printf("app=%s scheme=%q (hosted)\n", fin.App, fin.Scheme)
	fmt.Printf("completed=%v time=%.1fs energy=%.1fJ ExD=%.0fJ·s emergencies=%d\n",
		fin.Result.Completed, fin.Result.TimeS, fin.Result.EnergyJ, fin.Result.ExDJS, fin.Result.Emergencies)
	if fin.SupState != "" {
		fmt.Printf("supervisor: trips=%d recoveries=%d state=%s\n",
			fin.Result.Trips, fin.Result.Recoveries, fin.SupState)
	}
	if fin.Result.FaultsInjected > 0 {
		fmt.Printf("faults injected: %d\n", fin.Result.FaultsInjected)
	}

	if record != "" {
		if dir := filepath.Dir(record); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		cErr := sess.WriteTrace(f)
		if err := f.Close(); cErr == nil {
			cErr = err
		}
		if cErr != nil {
			return cErr
		}
		st, err := os.Stat(record)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", record, st.Size())
	}
	// Free the daemon's session slot.
	return sess.Delete()
}

// renderWatchRecord prints one live interval from the -watch event stream as
// a compact timeline line. Each payload is a flight-record JSONL line
// (byte-identical to the /trace export), so only the displayed fields are
// decoded.
func renderWatchRecord(raw []byte) error {
	var rec struct {
		Step     int     `json:"step"`
		TimeS    float64 `json:"t_s"`
		BigW     float64 `json:"big_w"`
		LittleW  float64 `json:"little_w"`
		TempC    float64 `json:"temp_c"`
		BIPS     float64 `json:"bips"`
		SupState string  `json:"sup_state"`
		Tripped  bool    `json:"sup_tripped"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("undecodable watch record: %w", err)
	}
	line := fmt.Sprintf("watch step %4d  t=%7.1fs  P=%5.2fW  T=%5.1f°C  bips=%6.3f",
		rec.Step, rec.TimeS, rec.BigW+rec.LittleW, rec.TempC, rec.BIPS)
	if rec.SupState != "" {
		line += "  sup=" + rec.SupState
		if rec.Tripped {
			line += " TRIP"
		}
	}
	fmt.Fprintln(os.Stderr, line)
	return nil
}

// writeRecord persists the flight recorder's decision log as JSONL.
func writeRecord(path string, rec *yukta.FlightRecorder) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rec.WriteJSONL(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// lookup resolves an app or mix name.
func lookup(name string) (yukta.Workload, error) {
	for _, m := range yukta.HeterogeneousMixes() {
		if m.Name() == name {
			return m, nil
		}
	}
	return yukta.LookupWorkload(name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yukta-sim:", err)
	os.Exit(1)
}
