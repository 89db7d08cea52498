package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was defined on changes speed by tens of percent
// for seconds to minutes at a time, with no steal reported: the two-worker
// phases swung between about 120 k and 220 k intervals/s from one run to the
// next. A timing taken in host seconds therefore spreads wider than any
// useful bound. The speed probe measures the host's speed while the workload
// runs, and the end-to-end timings are reported at a fixed reference speed.
//
// The probe is a fixed chunk of the benchmark's own code — updates of a small
// state through exp, then scattered reads of a 4 MiB buffer — run every
// probePeriod on a goroutine locked to its own thread and timed in that
// thread's CPU time, so waiting for a CPU does not count. A chunk's speed is
// probeRef divided by its CPU time; a span's speed is the trimmed mean of its
// chunks' speeds, the host's mean speed over it. The simulation follows the
// probe with a damped response: over 280 windows of 1.5 s on that host, with
// two workers running solo runs, the probe's speed moved 1.7× between its
// slowest and fastest twelfths and the simulation's rate 1.3×, a log-log
// slope of 0.45–0.55. A span that ran at speed S therefore has the factor
// S^-probeExponent: a host-second in it counts as that factor's inverse in
// reference seconds. Over the same run, dividing by that factor halved the
// quartile spread of 15 s throughput figures (0.10 to 0.05).

const (
	// probeWords is the probe buffer's length in float64s (4 MiB).
	probeWords = 1 << 19
	// probeRounds and probeReads size a chunk's two halves: updates of a
	// 64-element state, and scattered reads of the buffer.
	probeRounds = 850
	probeReads  = 150_000
	// probePeriod is how often a chunk runs.
	probePeriod = 50 * time.Millisecond
	// probeRef is a chunk's thread CPU time at the reference speed, about
	// the median on the host the benchmark was defined on.
	probeRef = 2500 * time.Microsecond
	// probeExponent is the simulation's response to the probe's speed.
	probeExponent = 0.5
	// probeTrim is the share of chunks dropped at each end of a span's
	// speeds before they are averaged.
	probeTrim = 0.1
	// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
	clockThreadCPUTime = 3
)

// probeSample is one timed chunk: when it ended and the CPU time it took.
type probeSample struct {
	at  time.Time
	cpu time.Duration
}

// speedProbe runs chunks in the background until end is called. A nil
// probe reports every factor as 1, so traced runs, which take host time as
// it is, pass none.
type speedProbe struct {
	mu         sync.Mutex
	samples    []probeSample
	stop, done chan struct{}
	sink       float64
}

// startProbe starts the probe's goroutine.
func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]float64, probeWords)
		for i := range buf {
			buf[i] = float64(i%97) * 0.01
		}
		close(ready)
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			before := threadCPU()
			p.sink += probeKernel(buf)
			cpu := threadCPU() - before
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{time.Now(), cpu})
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	<-ready
	return p
}

// end stops the probe and waits for its goroutine to exit.
func (p *speedProbe) end() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
}

// probeKernel is one chunk: probeRounds updates of a small state through
// exp, then probeReads reads of buf at positions from a fixed linear
// congruential sequence. It returns a sum of both, so no part can be
// elided.
func probeKernel(buf []float64) float64 {
	var st [64]float64
	for i := range st {
		st[i] = float64(i) * 0.1
	}
	s := 0.0
	for r := 0; r < probeRounds; r++ {
		for i, v := range st {
			v = v*0.999 + math.Exp(-v*0.01)*0.001
			st[i] = v
			s += v
		}
	}
	shift := 32 - uint(bitsOf(len(buf)))
	x := uint32(1)
	for i := 0; i < probeReads; i++ {
		x = x*1664525 + 1013904223
		s += buf[x>>shift]
	}
	return s
}

// bitsOf is log2 of n, a power of two.
func bitsOf(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// threadCPU is the calling thread's CPU time, from Linux's
// CLOCK_THREAD_CPUTIME_ID.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// factor is the factor of the span from from to to: its speed raised to
// -probeExponent, so above 1 when the host ran slower than the reference. A
// span that holds fewer than probeMinSamples chunks is widened symmetrically
// until it does.
func (p *speedProbe) factor(from, to time.Time) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return 1
	}
	for pad := time.Duration(0); ; pad += probePeriod {
		var speeds []float64
		for _, s := range p.samples {
			if !s.at.Before(from.Add(-pad)) && !s.at.After(to.Add(pad)) && s.cpu > 0 {
				speeds = append(speeds, probeRef.Seconds()/s.cpu.Seconds())
			}
		}
		if len(speeds) >= probeMinSamples || len(speeds) == len(p.samples) {
			return math.Pow(trimmedMean(speeds, probeTrim), -probeExponent)
		}
	}
}

// trimmedMean is the mean of xs without the lowest and highest share trim
// of them (1 for none).
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// probeMinSamples is the fewest chunks a factor is taken over.
const probeMinSamples = 5

// windowFactors is the factor over each of rateWindows equal windows of the
// phase that began at t0 and lasted elapsed seconds (nil for a nil probe).
func (p *speedProbe) windowFactors(t0 time.Time, elapsed float64) []float64 {
	if p == nil {
		return nil
	}
	w := time.Duration(elapsed / rateWindows * float64(time.Second))
	fs := make([]float64, rateWindows)
	for i := range fs {
		from := t0.Add(time.Duration(i) * w)
		fs[i] = p.factor(from, from.Add(w))
	}
	return fs
}

// chunkMS is the median chunk CPU time in milliseconds over the whole run,
// for the info line (0 for a nil probe).
func (p *speedProbe) chunkMS() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = s.cpu.Seconds() * 1e3
	}
	return median(ms)
}
