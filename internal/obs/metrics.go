package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level metric that also tracks its high-water
// mark (worker-pool occupancy is its canonical use). All methods are safe
// for concurrent use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by d (negative to decrement) and folds the new level
// into the high-water mark.
func (g *Gauge) Add(d int64) {
	n := g.v.Add(d)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Set forces the gauge to v and folds it into the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into the
// bucket of the first upper bound they do not exceed, with an implicit
// +Inf overflow bucket, and the count, sum, minimum and maximum are tracked
// exactly. All methods are safe for concurrent use; Observe is lock-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

// newHistogram builds a histogram over the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation (+Inf when empty).
func (h *Histogram) Min() float64 { return math.Float64frombits(h.minBits.Load()) }

// Max returns the largest observation (-Inf when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Bounds returns the histogram's upper bucket bounds (a copy; the implicit
// +Inf overflow bucket is not included).
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the current per-bucket observation counts, one per
// bound plus the trailing +Inf overflow bucket. Each count is an atomic load;
// a snapshot taken while observations race may momentarily disagree with
// Count, but the per-bucket values themselves are exact.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing it; samples in the overflow bucket report the
// exact tracked maximum. Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(n))
	var cum int64
	lower := 0.0
	for i := range h.buckets {
		cnt := h.buckets[i].Load()
		if cnt > 0 && float64(cum+cnt) >= rank {
			if i >= len(h.bounds) {
				return h.Max()
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(cnt)
			if frac < 0 {
				frac = 0
			}
			return lower + float64(frac*(upper-lower))
		}
		cum += cnt
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return h.Max()
}

// LatencyBucketsUS returns the standard per-scheme step-latency bucket
// bounds, in microseconds: controller steps run single-digit µs in steady
// state with synthesis-sized outliers on the first interval.
func LatencyBucketsUS() []float64 {
	return []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
}

// StageBucketsUS returns the bucket bounds for per-request stage latencies,
// in microseconds. Stages span a much wider range than controller steps —
// admission checks are sub-microsecond, step batches run milliseconds, a WAL
// append+fsync can take tens of milliseconds on slow disks — so the bounds
// run 1µs to 1s.
func StageBucketsUS() []float64 {
	return []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1e6}
}

// SecondsBuckets returns the standard bucket bounds for seconds-scale
// latencies (crash-recovery session replay is the canonical use: replay
// runs milliseconds for short sessions up to seconds for long faulted
// ones).
func SecondsBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30}
}

// Registry is a stdlib-only metrics registry: named counters, gauges and
// histograms created on first use and shared by name afterwards. One
// Registry aggregates across every run and worker of an experiment session;
// all methods are safe for concurrent use. The registry never touches the
// control loop unless explicitly attached (core.RunOptions.Metrics), so
// disabled observability costs nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls return the existing histogram and ignore
// bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns the registry's current state as a plain map (counters as
// int64, gauges as {value,max}, histograms as {count,mean,p50,p90,p99,max})
// — the expvar publication format.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = map[string]int64{"value": g.Value(), "max": g.Max()}
	}
	for name, h := range r.hists {
		if h.Count() == 0 {
			out[name] = map[string]any{"count": int64(0)}
			continue
		}
		out[name] = map[string]any{
			"count": h.Count(),
			"mean":  h.Mean(),
			"p50":   h.Quantile(0.5),
			"p90":   h.Quantile(0.9),
			"p99":   h.Quantile(0.99),
			"max":   h.Max(),
		}
	}
	return out
}

// Publish exposes the registry on the process-wide expvar namespace under
// the given name (readable via the expvar HTTP handler or expvar.Get). The
// first registry published under a name wins; later calls with the same
// name are no-ops, since expvar forbids re-publication.
func (r *Registry) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Render formats the registry as an aligned, name-sorted text block:
// counters, then gauges (value and high-water mark), then histograms
// (count, mean and tail quantiles).
func (r *Registry) Render() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out strings.Builder
	out.WriteString("metrics registry\n")
	section := func(title string, names []string, row func(string) string) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(&out, "  %s:\n", title)
		for _, n := range names {
			fmt.Fprintf(&out, "    %-40s %s\n", n, row(n))
		}
	}
	section("counters", keys(r.counters), func(n string) string {
		return fmt.Sprintf("%d", r.counters[n].Value())
	})
	section("gauges", keys(r.gauges), func(n string) string {
		g := r.gauges[n]
		return fmt.Sprintf("%d (max %d)", g.Value(), g.Max())
	})
	section("histograms", keys(r.hists), func(n string) string {
		h := r.hists[n]
		if h.Count() == 0 {
			return "count=0"
		}
		return fmt.Sprintf("count=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g",
			h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	})
	return out.String()
}

// keys returns a map's keys (unsorted; callers sort).
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
