// Command perfbench is the repository benchmark. It runs one workload per
// process — paper-sweep or fleet-rack — from a cold start, checks
// the simulated outputs against references, and prints every metric by name
// and unit.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the run times calls into each layer's public
// functions from this package and the last line carries the per-layer
// metrics. The line before it is a JSON document with the host fingerprint,
// sample counts, mismatches and (traced runs) the per-layer ledger.
// README.md in this directory maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed references under reference/ were
// recorded with; other seeds are checked for internal consistency only.
const defaultSeed = 1

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the user-visible metrics every workload reports untraced.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"intervals_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"exd_norm", "ratio"},
}

// perLayer are the traced per-layer metrics. Every workload reports all of
// them; a layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"identify.collect_s", "s"},
	{"identify.fit_s", "s"},
	{"synth.hw_validated_s", "s"},
	{"synth.os_validated_s", "s"},
	{"synth.lqg_s", "s"},
	{"robust.synthesize_s", "s"},
	{"robust.ssv_iterations", "count"},
	{"robust.mu_upper_us", "us"},
	{"robust.mu_lower_us", "us"},
	{"mat.cmax_sv_us", "us"},
	{"mat.eig_us", "us"},
	{"board.run_us", "us"},
	{"fault.advance_us", "us"},
	{"session.step_us.coordinated", "us"},
	{"session.step_us.yukta-full", "us"},
	{"session.step_us.yukta-supervised", "us"},
	{"session.step_us.lqg-mono", "us"},
	{"ssvctl.step_ns", "ns"},
	{"optimizer.update_ns", "ns"},
	{"obs.record_add_ns", "ns"},
	{"obs.fleet_record_add_ns", "ns"},
	{"obs.jsonl_us_per_record", "us"},
	{"fleet.tree_realloc_us", "us"},
	{"fleet.node_reallocs", "count"},
	{"sched.event_ns", "ns"},
	{"pool.fanout_us", "us"},
	{"fleet.engine_residual_frac", "ratio"},
	{"core.steprun_step_us", "us"},
	{"serve.stage.admission_us", "us"},
	{"serve.stage.wal_append_us", "us"},
	{"serve.stage.step_exec_us", "us"},
	{"serve.stage.trace_encode_us", "us"},
	{"disk.fsync_us", "us"},
	{"http.overhead_us", "us"},
	{"client.retries", "count"},
	{"step_p99_ms", "ms"},
	{"create_p50_ms", "ms"},
	{"trace_read_p50_ms", "ms"},
	{"alloc.per_interval", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"ledger.unattributed_frac", "ratio"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks the workload to smoke-test size (one app, a 2x2 fleet).
	tiny bool
	// workdir holds the files a run writes (the serving loop's data
	// directory); it is created if missing and cleaned up afterwards.
	workdir string
	// start is when the process began; setup_s counts from it.
	start time.Time
	// workers is the pool size: min(nproc, 2).
	workers int
	// probe measures the host's speed while an untraced run goes on (nil
	// in traced runs, which report host time as it is).
	probe *speedProbe
}

// report is one workload run's outcome.
type report struct {
	// setupS holds one wall time per set-up repetition; setup_s is their
	// median.
	setupS []float64
	// hostSetupS holds the same set-ups in host seconds.
	hostSetupS []float64
	// attempted and failed count operations: runs, fleet runs, or API
	// requests. Reference mismatches are added to both.
	attempted, failed int
	mismatches        []string
	// values holds the measured metrics by name (setup_s is filled in by
	// finish).
	values map[string]float64
	// samples records sample counts and other context for the info line.
	samples map[string]any
	// led is the traced run's per-layer ledger (nil untraced).
	led *ledger
	// ref is the run's reference document (--write-reference).
	ref any
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]any{}}
}

// op counts one operation, failed when err is non-nil.
func (r *report) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		r.mismatches = append(r.mismatches, what+": "+err.Error())
	}
}

// verify counts one correctness check as an operation, failed when !ok.
func (r *report) verify(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*report, error){
	"paper-sweep": runPaperSweep,
	"fleet-rack":  runFleetRack,
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: paper-sweep or fleet-rack")
	seed := flag.Int64("seed", defaultSeed, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	refOut := flag.String("write-reference", "", "write the run's reference document to this file")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-sweep|fleet-rack, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rc := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: ".bench_build", start: start, workers: poolWorkers(),
	}
	if !rc.trace {
		rc.probe = startProbe()
	}
	rep, err := run(rc)
	rc.probe.end()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *refOut != "" {
		if err := writeReference(*refOut, rep.ref); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing reference: %v\n", err)
			os.Exit(1)
		}
	}
	out, info := finish(rc, *name, rep)
	infoLine, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding info: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(infoLine))
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// poolWorkers is the pool size: the host's CPUs, at most 2,
// so hosts with more cores run the same load.
func poolWorkers() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish assembles the result line and the info document.
func finish(rc runConfig, name string, rep *report) (result, map[string]any) {
	rep.values["setup_s"] = median(rep.setupS)
	var doc ledgerDoc
	if rep.led != nil {
		doc = rep.led.document()
		rep.values["ledger.unattributed_frac"] = doc.UnattributedFrac
	}
	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	out := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, s := range specs {
		out.Metrics[s.name] = metric{Value: finite(rep.values[s.name]), Unit: s.unit}
	}
	info := map[string]any{
		"workload": name,
		"seed":     rc.seed,
		"seconds":  rc.seconds,
		"trace":    rc.trace,
		"host":     hostFingerprint(),
		"samples":  rep.samples,
		"setup_s":  rep.setupS,
	}
	if rc.probe != nil {
		info["host_setup_s"] = rep.hostSetupS
		info["probe_chunk_ms"] = rc.probe.chunkMS()
	}
	if len(rep.mismatches) > 0 {
		shown := rep.mismatches
		if len(shown) > 20 {
			shown = shown[:20]
		}
		info["mismatches"] = shown
		info["mismatch_count"] = len(rep.mismatches)
	}
	out.Correct = rep.failed == 0
	if rep.led != nil {
		info["ledger"] = doc
		out.Correct = out.Correct && doc.OK
	}
	return out, info
}

// finite maps NaN and infinities (an empty sample set) to 0, which JSON can
// carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// rssPeriod is how often the measured phase's resident set is sampled.
const rssPeriod = 10 * time.Millisecond

// rssSampler keeps the largest resident set size seen while it runs.
type rssSampler struct {
	stop, done chan struct{}
	peakMB     float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			s.peakMB = math.Max(s.peakMB, rssMB())
			select {
			case <-s.stop:
				s.peakMB = math.Max(s.peakMB, rssMB())
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak in MiB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	<-s.done
	return s.peakMB
}

// rssMB is the process's current resident set size in MiB (0 where
// /proc/self/statm is unavailable).
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// latency is one timed operation of the measured phase: when it finished,
// in seconds since the phase began, and how long it took in milliseconds.
type latency struct {
	at, ms float64
}

// latencyQuantile returns the q-quantile of the latencies, each divided by
// the speed factor fs of the window of [0, elapsed] it finished in (fs nil:
// host time as it is). When every one of rateWindows equal windows can hold
// ten samples beyond the quantile on average, it is the median of the
// windows' own q-quantiles, so a stall of the host confined to a few windows
// does not move it; otherwise it is the quantile of all samples.
func latencyQuantile(ls []latency, elapsed, q float64, fs []float64) float64 {
	all := make([]float64, len(ls))
	byWindow := make([][]float64, rateWindows)
	for i, l := range ls {
		k := windowOf(l.at, elapsed)
		all[i] = l.ms / factorAt(fs, k)
		byWindow[k] = append(byWindow[k], all[i])
	}
	if float64(len(ls))/rateWindows*(1-q) < 10 || elapsed <= 0 {
		return quantile(all, q)
	}
	var qs []float64
	for _, xs := range byWindow {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// tailPercentile is the highest percentile up to 99 that leaves at least ten
// of n samples beyond it, never below the median.
func tailPercentile(n int) float64 {
	q := 0.99
	if float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
		if q < 0.5 {
			q = 0.5
		}
	}
	return q
}

// windowOf is the index of the window of [0, elapsed] that at falls in (0
// when elapsed is not positive).
func windowOf(at, elapsed float64) int {
	if elapsed <= 0 {
		return 0
	}
	k := int(at / (elapsed / rateWindows))
	return min(max(k, 0), rateWindows-1)
}

// factorAt is window k's speed factor, 1 when fs is nil.
func factorAt(fs []float64, k int) float64 {
	if fs == nil {
		return 1
	}
	return fs[k]
}

// recordSteps fills step_p50_ms and step_p99_ms from the measured phase's
// unit operations, with latencies scaled to reference speed by the windows'
// speed factors fs.
func (r *report) recordSteps(ls []latency, elapsed float64, fs []float64) {
	q := tailPercentile(len(ls))
	r.values["step_p50_ms"] = latencyQuantile(ls, elapsed, 0.5, fs)
	r.values["step_p99_ms"] = latencyQuantile(ls, elapsed, q, fs)
	r.samples["step_samples"] = len(ls)
	r.samples["step_tail_percentile"] = q * 100
}

// completion is one operation finishing in the measured phase: when, in
// seconds since the phase began, and how many control intervals it
// executed.
type completion struct {
	at        float64
	intervals int
}

// rateWindows is how many equal windows the measured phase is cut into for
// the throughput median.
const rateWindows = 10

// windowedRate cuts [0, elapsed] into rateWindows equal windows, credits each
// completion's intervals to the window it finished in, scales each window's
// rate to reference speed by its speed factor in fs, and returns the median
// of the windows' rates: the phase's throughput, steadied against a
// transient stall of the host.
func windowedRate(cs []completion, elapsed float64, fs []float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	counts := make([]float64, rateWindows)
	for _, c := range cs {
		counts[windowOf(c.at, elapsed)] += float64(c.intervals)
	}
	rates := make([]float64, rateWindows)
	for i, n := range counts {
		rates[i] = n / (elapsed / rateWindows) * factorAt(fs, i)
	}
	return median(rates)
}

// measuredPhase brackets a workload's measured phase: the runtime and host
// counters at its start, and a sampler of the process's resident set.
type measuredPhase struct {
	before memStats
	rss    *rssSampler
}

// beginMeasured returns the memory set-up freed to the OS and starts the
// phase's counters. peak_rss_mb is the phase's peak: the process's lifetime
// peak falls in set-up on paper-sweep and depends on how the host schedules
// the garbage collector while the designs are synthesized (17–31 MB over
// ten seeds), where the phase's peak still counts every byte set-up left
// live.
func beginMeasured() *measuredPhase {
	debug.FreeOSMemory()
	return &measuredPhase{rss: startRSS(), before: readMem()}
}

// memStats snapshots the runtime and host counters a measured phase is
// judged by: allocations and GC pauses, the process's CPU time, and the
// host's CPU time stolen by the hypervisor.
type memStats struct {
	at             time.Time
	mallocs        uint64
	pauseNS        uint64
	cpuS           float64
	stealS, totalS float64
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := memStats{at: time.Now(), mallocs: m.Mallocs, pauseNS: m.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	s.stealS, s.totalS = hostSteal()
	return s
}

// setupAt records one set-up that began at from and has just ended, scaled
// to reference speed by the probe's factor over it; the host time goes to
// the info line.
func (r *report) setupAt(rc runConfig, from time.Time) {
	now := time.Now()
	host := now.Sub(from).Seconds()
	r.setupS = append(r.setupS, host/rc.probe.factor(from, now))
	r.hostSetupS = append(r.hostSetupS, host)
}

// recordRuntime ends the measured phase m, which executed intervals
// simulated control intervals: it fills peak_rss_mb and the runtime layer's
// metrics, and notes the phase's CPU use and the host's steal share in the
// info line.
func (r *report) recordRuntime(m *measuredPhase, intervals int) {
	after := readMem()
	before := m.before
	r.values["peak_rss_mb"] = m.rss.end()
	if intervals > 0 {
		r.values["alloc.per_interval"] = float64(after.mallocs-before.mallocs) / float64(intervals)
	}
	r.values["gc.pause_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
	r.samples["measured_wall_s"] = after.at.Sub(before.at).Seconds()
	r.samples["measured_cpu_s"] = after.cpuS - before.cpuS
	if total := after.totalS - before.totalS; total > 0 {
		r.samples["host_steal_frac"] = (after.stealS - before.stealS) / total
	}
}
