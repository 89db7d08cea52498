// Package workload models the benchmark applications the paper evaluates:
// 8-threaded PARSEC programs with native inputs, 8 copies of SPEC CPU2006
// programs with train inputs, the training set used for system
// identification, and the heterogeneous program mixes of Section VI-C.
//
// The real binaries are replaced by phase-structured application models (the
// substitution documented in DESIGN.md): each program is a sequence of
// phases with a thread count, a memory-boundedness factor and per-core-type
// IPC values. This preserves the control-relevant structure — e.g.
// blackscholes starts with a single thread and then runs 8 parallel threads
// with steady work, mcf is memory-bound with low IPC, gamess is compute
// bound — without requiring the SPEC/PARSEC sources.
package workload

import "fmt"

// Phase is one execution phase of an application.
type Phase struct {
	// WorkFrac is the fraction of the application's total instructions that
	// this phase covers. Fractions over an app must sum to 1.
	WorkFrac float64
	// Threads is the number of runnable threads during the phase.
	Threads int
	// MemBound is the fraction of execution stalled on memory at the
	// reference frequency (0 = pure compute, towards 1 = bandwidth bound).
	MemBound float64
	// IPCBig and IPCLittle are the per-thread instructions per cycle on a
	// big (Cortex-A15-class) and little (Cortex-A7-class) core.
	IPCBig, IPCLittle float64
}

// Profile is the aggregate execution profile a board simulator needs at one
// instant: how many threads are runnable and how they execute. Per the
// paper's software controller (§IV-B), threads are treated as
// interchangeable, so the profile aggregates over applications in a mix.
type Profile struct {
	Threads           int
	MemBound          float64
	IPCBig, IPCLittle float64
}

// Workload is a running instance of an application or mix.
type Workload interface {
	// Name identifies the workload (e.g. "blackscholes", "blmc").
	Name() string
	// Profile returns the current aggregate execution profile.
	Profile() Profile
	// Advance consumes executed instructions (in billions) and reports
	// whether the workload has completed.
	Advance(gInst float64) bool
	// Remaining returns the remaining work in billions of instructions.
	Remaining() float64
	// Total returns the total work in billions of instructions.
	Total() float64
	// Done reports completion.
	Done() bool
	// Reset rewinds the workload to its start.
	Reset()
}

// App is a phase-structured application model. Its 64 bytes are one whole
// allocation size class, so no two Apps share a cache line: fleet workers
// advance the Apps of neighbouring boards concurrently, and one more field
// would make them write to each other's lines every substep.
type App struct {
	name   string
	phases []appPhase
	total  float64 // billions of instructions

	done  float64 // consumed billions
	phase int     // index of the current phase; moves only forward until Reset
}

// appPhase is a phase with its running work fraction: cum is WorkFrac summed
// over this phase and every earlier one, in phase order.
type appPhase struct {
	Phase
	cum float64
}

// NewApp builds an application from its phase list. Phase work fractions
// must sum to 1 within 1e-6.
func NewApp(name string, totalGInst float64, phases []Phase) (*App, error) {
	if totalGInst <= 0 {
		return nil, fmt.Errorf("workload: %s: total instructions must be positive", name)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: %s: no phases", name)
	}
	var sum float64
	ph := make([]appPhase, len(phases))
	for i, p := range phases {
		if p.WorkFrac <= 0 || p.Threads < 1 || p.MemBound < 0 || p.MemBound >= 1 ||
			p.IPCBig <= 0 || p.IPCLittle <= 0 {
			return nil, fmt.Errorf("workload: %s: invalid phase %d: %+v", name, i, p)
		}
		sum += p.WorkFrac
		ph[i] = appPhase{Phase: p, cum: sum}
	}
	if sum < 1-1e-6 || sum > 1+1e-6 {
		return nil, fmt.Errorf("workload: %s: phase fractions sum to %v", name, sum)
	}
	return &App{name: name, phases: ph, total: totalGInst}, nil
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Total returns total work in billions of instructions.
func (a *App) Total() float64 { return a.total }

// Remaining returns outstanding work in billions of instructions.
func (a *App) Remaining() float64 {
	r := a.total - a.done
	if r < 0 {
		return 0
	}
	return r
}

// Done reports completion.
func (a *App) Done() bool { return a.done >= a.total }

// Reset rewinds to the start.
func (a *App) Reset() { a.done, a.phase = 0, 0 }

// currentPhase returns the first phase whose cumulative work fraction lies
// above the current progress point, or the last phase when none does (a NaN
// progress included). Progress only grows between Resets, so every phase
// before the cached index has already been passed and the search resumes
// there instead of at phase 0.
func (a *App) currentPhase() *Phase {
	frac := a.done / a.total
	for a.phase < len(a.phases)-1 && !(frac < a.phases[a.phase].cum) {
		a.phase++
	}
	return &a.phases[a.phase].Phase
}

// Profile returns the current phase's profile.
func (a *App) Profile() Profile {
	if a.Done() {
		return Profile{}
	}
	p := a.currentPhase()
	return Profile{Threads: p.Threads, MemBound: p.MemBound, IPCBig: p.IPCBig, IPCLittle: p.IPCLittle}
}

// Advance consumes gInst billions of instructions.
func (a *App) Advance(gInst float64) bool {
	if gInst < 0 {
		gInst = 0
	}
	a.done += gInst
	if a.done > a.total {
		a.done = a.total
	}
	return a.Done()
}

// Clone returns a fresh (reset) copy of the application.
func (a *App) Clone() *App {
	ph := make([]appPhase, len(a.phases))
	copy(ph, a.phases)
	return &App{name: a.name, phases: ph, total: a.total}
}

// Mix runs several applications concurrently (the heterogeneous workloads of
// §VI-C). Work is distributed across the live components in proportion to
// their thread counts; the mix completes when every component completes.
type Mix struct {
	name string
	apps []*App
}

// NewMix combines applications under the given name.
func NewMix(name string, apps ...*App) *Mix {
	cl := make([]*App, len(apps))
	for i, a := range apps {
		cl[i] = a.Clone()
	}
	return &Mix{name: name, apps: cl}
}

// Clone returns a fresh (reset) copy of the mix with no shared state, so
// concurrent runs of the same named mix never advance each other's progress.
func (m *Mix) Clone() *Mix {
	return NewMix(m.name, m.apps...)
}

// Name returns the mix name.
func (m *Mix) Name() string { return m.name }

// Total returns the summed work of all components.
func (m *Mix) Total() float64 {
	var s float64
	for _, a := range m.apps {
		s += a.Total()
	}
	return s
}

// Remaining returns the summed outstanding work.
func (m *Mix) Remaining() float64 {
	var s float64
	for _, a := range m.apps {
		s += a.Remaining()
	}
	return s
}

// Done reports whether every component completed.
func (m *Mix) Done() bool {
	for _, a := range m.apps {
		if !a.Done() {
			return false
		}
	}
	return true
}

// Reset rewinds every component.
func (m *Mix) Reset() {
	for _, a := range m.apps {
		a.Reset()
	}
}

// Profile aggregates the live components: thread counts add, per-thread
// characteristics are thread-weighted averages.
func (m *Mix) Profile() Profile {
	var out Profile
	var wsum float64
	for _, a := range m.apps {
		if a.Done() {
			continue
		}
		p := a.Profile()
		w := float64(p.Threads)
		out.Threads += p.Threads
		out.MemBound += float64(w * p.MemBound)
		out.IPCBig += float64(w * p.IPCBig)
		out.IPCLittle += float64(w * p.IPCLittle)
		wsum += w
	}
	if wsum > 0 {
		out.MemBound /= wsum
		out.IPCBig /= wsum
		out.IPCLittle /= wsum
	}
	return out
}

// Advance distributes executed instructions across live components in
// proportion to their runnable thread counts.
func (m *Mix) Advance(gInst float64) bool {
	var wsum float64
	for _, a := range m.apps {
		if !a.Done() {
			wsum += float64(a.Profile().Threads)
		}
	}
	if wsum == 0 {
		return true
	}
	for _, a := range m.apps {
		if !a.Done() {
			share := float64(a.Profile().Threads) / wsum
			a.Advance(gInst * share)
		}
	}
	return m.Done()
}

// Capped limits the number of threads a workload exposes as runnable — the
// actuator of an application-level controller layer (e.g. a thread-pool
// resizer). Work still completes, just with bounded parallelism. A Capped
// wrapper shares the progress state of the wrapped workload.
type Capped struct {
	Inner Workload
	cap   int
}

// NewCapped wraps w with an initially unlimited cap.
func NewCapped(w Workload) *Capped {
	return &Capped{Inner: w, cap: 1 << 30}
}

// SetCap bounds the runnable thread count (minimum 1).
func (c *Capped) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	c.cap = n
}

// Cap returns the current bound.
func (c *Capped) Cap() int { return c.cap }

// Name implements Workload.
func (c *Capped) Name() string { return c.Inner.Name() + "+cap" }

// Profile implements Workload, clamping the thread count.
func (c *Capped) Profile() Profile {
	p := c.Inner.Profile()
	if p.Threads > c.cap {
		p.Threads = c.cap
	}
	return p
}

// Advance implements Workload.
func (c *Capped) Advance(gInst float64) bool { return c.Inner.Advance(gInst) }

// Remaining implements Workload.
func (c *Capped) Remaining() float64 { return c.Inner.Remaining() }

// Total implements Workload.
func (c *Capped) Total() float64 { return c.Inner.Total() }

// Done implements Workload.
func (c *Capped) Done() bool { return c.Inner.Done() }

// Reset implements Workload (the cap is preserved).
func (c *Capped) Reset() { c.Inner.Reset() }
