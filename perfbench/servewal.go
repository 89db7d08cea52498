package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"yukta/internal/client"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/serve"
	"yukta/internal/workload"
)

// The serving path, measured as a phase of paper-sweep's traced run: an
// in-process serve.Server with a data directory (write-ahead log with fsync)
// on a loopback listener, driven through internal/client by one closed-loop
// client. It loops: create, step one interval per request until done, GET
// the session every 10 steps, GET its trace, DELETE. It is not a workload of
// its own because its wall-clock figures follow the host's vCPU wake-up and
// fsync latency: on a shared 2-CPU host its throughput spread 0.17 to 0.54
// across ten seeds from one set of runs to the next, beyond any bound the
// benchmark may set.

// serveInfoEvery is the step-request period of the status reads.
const serveInfoEvery = 10

// serveMix is the seed's request cycle: the evaluation apps in the seed's
// order, each with the coordinated and lqg-mono schemes alternating, clean
// and under every fault class with the seed's campaign.
func serveMix(seed int64, tiny bool) []serve.CreateRequest {
	apps := append(workload.EvaluationSPEC(), workload.EvaluationPARSEC()...)
	rand.New(rand.NewSource(seed)).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	if tiny {
		apps = apps[:1]
	}
	var mix []serve.CreateRequest
	for _, app := range apps {
		for _, faulted := range []bool{false, true} {
			for _, sch := range []string{"coordinated", "lqg-mono"} {
				req := serve.CreateRequest{Tenant: "bench", Scheme: sch, App: app}
				if faulted {
					req.FaultClass, req.FaultSeed, req.FaultIntensity = "all", seed, 1.0
				}
				mix = append(mix, req)
			}
		}
	}
	return mix
}

// serveRunOptions are the batch run options equivalent to a create request,
// as the daemon derives them, with a fresh default-capacity recorder.
func serveRunOptions(req serve.CreateRequest) (core.RunOptions, *obs.Recorder) {
	rec := obs.NewRecorder(0)
	opt := core.RunOptions{SkipSeries: true, Trace: rec}
	if req.FaultClass != "" {
		seed, intensity := req.FaultSeed, req.FaultIntensity
		if seed == 0 {
			seed = 1
		}
		if intensity == 0 {
			intensity = 1
		}
		opt.Faults = fault.PresetClass(seed, intensity, req.FaultClass)
	}
	return opt, rec
}

// server is the in-process daemon on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startServer(p *core.Platform, dataDir string) (*server, error) {
	srv, err := serve.New(serve.Config{Platform: p, DataDir: dataDir, TenantRate: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// clientLog is one closed-loop client's record of the measured phase.
type clientLog struct {
	create, step, info, trace, del []float64 // request latencies, ms
	stepped                        int
	attempted, failed              int
	errs                           []string
	// hashes holds each finished session's trace digest by mix index.
	hashes map[int][][32]byte
}

func (l *clientLog) op(lat *[]float64, t time.Time, err error, what string) bool {
	l.attempted++
	if err != nil {
		l.failed++
		l.errs = append(l.errs, what+": "+err.Error())
		return false
	}
	*lat = append(*lat, msSince(t))
	return true
}

// driveClient runs the client's loop until the deadline, always finishing
// the session it is on (the first session always runs).
func driveClient(c *client.Client, mix []serve.CreateRequest, deadline time.Time) *clientLog {
	l := &clientLog{hashes: map[int][][32]byte{}}
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % len(mix)
		t := time.Now()
		sess, _, err := c.CreateSession(mix[k])
		if !l.op(&l.create, t, err, "create") {
			continue
		}
		for n := 1; ; n++ {
			t = time.Now()
			resp, err := sess.Step(1)
			if !l.op(&l.step, t, err, "step") {
				break
			}
			l.stepped += resp.Executed
			if n%serveInfoEvery == 0 {
				t = time.Now()
				_, err := sess.Info()
				l.op(&l.info, t, err, "info")
			}
			if resp.Done {
				var buf bytes.Buffer
				t = time.Now()
				err := sess.WriteTrace(&buf)
				if l.op(&l.trace, t, err, "trace") {
					l.hashes[k] = append(l.hashes[k], sha256.Sum256(buf.Bytes()))
				}
				break
			}
		}
		t = time.Now()
		l.op(&l.del, t, sess.Delete(), "delete")
	}
	return l
}

// traceServing runs the serving loop for rc.seconds as phases of a traced
// run, on a platform whose lqg-mono design is built, and fills the serving
// layers' metrics. Every session's trace must equal the batch core.Run of
// its create request, byte for byte.
func traceServing(rc runConfig, led *ledger, rep *report, p *core.Platform) error {
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return err
	}
	dataDir, err := os.MkdirTemp(rc.workdir, "serve-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	srv, err := startServer(p, dataDir)
	if err != nil {
		return err
	}
	mix := serveMix(rc.seed, rc.tiny)
	var retries atomic.Int64
	transport := &http.Transport{}
	c := client.New(client.Config{
		Base:       srv.base,
		HTTPClient: &http.Client{Transport: transport},
		JitterSeed: rc.seed,
		Logf:       func(string, ...any) { retries.Add(1) },
	})

	lp := led.phase("serve")
	all := driveClient(c, mix, time.Now().Add(time.Duration(rc.seconds*float64(time.Second))))
	bookServe(lp, rep, srv.srv.Registry(), all)
	lp.close()
	stopErr := srv.stop()
	transport.CloseIdleConnections()
	if stopErr != nil {
		return fmt.Errorf("stopping server: %w", stopErr)
	}
	rep.attempted += all.attempted
	rep.failed += all.failed
	rep.mismatches = append(rep.mismatches, all.errs...)
	rep.values["create_p50_ms"] = median(all.create)
	rep.values["trace_read_p50_ms"] = median(all.trace)
	rep.values["client.retries"] = float64(retries.Load())
	rep.samples["serve_sessions"] = len(all.create)
	rep.samples["serve_intervals"] = all.stepped
	rep.samples["serve_step_p50_ms"] = median(all.step)

	vp := led.phase("serve.verify")
	schemes := serve.DefaultSchemes(p)
	for k, req := range mix {
		if len(all.hashes[k]) == 0 {
			continue
		}
		opt, rec := serveRunOptions(req)
		w, err := workload.Lookup(req.App)
		if err != nil {
			return err
		}
		t := time.Now()
		_, err = core.Run(p.Cfg, schemes[req.Scheme], w, opt)
		vp.add("core.run", time.Since(t))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			return err
		}
		want := sha256.Sum256(buf.Bytes())
		for _, h := range all.hashes[k] {
			rep.verify(h == want, "session trace of %s/%s/%q differs from batch core.Run", req.Scheme, req.App, req.FaultClass)
		}
	}
	vp.close()

	pr := led.phase("serve.probes")
	defer pr.close()
	return probeServeLayers(pr, rep, p, mix, dataDir)
}

// bookServe attributes the measured phase: the server's stage histograms
// (admission, step execution, WAL append+fsync, trace encode), then the rest
// of every request's round trip to HTTP and the client.
func bookServe(lp *phase, rep *report, reg *obs.Registry, all *clientLog) {
	stageSum := 0.0
	for _, st := range []string{"admission", "step_exec", "wal_append", "trace_encode"} {
		h := reg.Histogram("serve_stage_us/"+st, obs.StageBucketsUS())
		rep.values["serve.stage."+st+"_us"] = finite(h.Quantile(0.5))
		stageSum += h.Sum()
		lp.add("serve."+st, time.Duration(h.Sum()*1e3))
	}
	rtt := 0.0
	for _, xs := range [][]float64{all.create, all.step, all.info, all.trace, all.del} {
		for _, ms := range xs {
			rtt += ms * 1e3
		}
	}
	lp.add("http.client", time.Duration((rtt-stageSum)*1e3))
	// The step request's overhead compares means: the stage histograms'
	// sums are exact where their bucketed quantiles are not.
	stepStages := reg.Histogram("serve_stage_us/step_exec", obs.StageBucketsUS()).Mean() +
		reg.Histogram("serve_stage_us/wal_append", obs.StageBucketsUS()).Mean()
	rep.values["http.overhead_us"] = mean(all.step)*1e3 - finite(stepStages)
}
