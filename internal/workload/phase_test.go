package workload

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// scanCurrentPhase is App.currentPhase as it was before the phase index and
// the running fractions were cached: a scan from phase 0 on every call,
// summing WorkFrac as it goes. It is the oracle the cached lookup must match.
func scanCurrentPhase(a *App) Phase {
	frac := a.done / a.total
	var cum float64
	for _, p := range a.phases {
		cum += p.WorkFrac
		if frac < cum {
			return p.Phase
		}
	}
	return a.phases[len(a.phases)-1].Phase
}

// cums lists an app's cumulative phase fractions.
func cums(a *App) []float64 {
	var c []float64
	for _, p := range a.phases {
		c = append(c, p.cum)
	}
	return c
}

// scanProfile is App.Profile over the scan oracle. It reads a's state and
// never writes it.
func scanProfile(a *App) Profile {
	if a.Done() {
		return Profile{}
	}
	p := scanCurrentPhase(a)
	return Profile{Threads: p.Threads, MemBound: p.MemBound, IPCBig: p.IPCBig, IPCLittle: p.IPCLittle}
}

// scanMixProfile is Mix.Profile over the scan oracle.
func scanMixProfile(m *Mix) Profile {
	var out Profile
	var wsum float64
	for _, a := range m.apps {
		if a.Done() {
			continue
		}
		p := scanProfile(a)
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

// scanApp is an App whose Profile is the scan oracle, so a Disturbed
// wrapper around it is the oracle twin of one around a plain App.
type scanApp struct{ *App }

func (s scanApp) Profile() Profile { return scanProfile(s.App) }

func sameProfile(p, q Profile) bool {
	return p.Threads == q.Threads &&
		math.Float64bits(p.MemBound) == math.Float64bits(q.MemBound) &&
		math.Float64bits(p.IPCBig) == math.Float64bits(q.IPCBig) &&
		math.Float64bits(p.IPCLittle) == math.Float64bits(q.IPCLittle)
}

// scanTestAmount draws one Advance amount for a workload of the given total
// work whose cumulative phase fractions are cum and whose progress is done:
// zero, negative, tiny, onto a phase boundary, across one or more
// boundaries, past the end, +Inf or NaN.
func scanTestAmount(rng *rand.Rand, total, done float64, cum []float64) float64 {
	switch r := rng.Intn(100); {
	case r < 8:
		return 0
	case r < 16:
		return -rng.Float64() * total
	case r < 36:
		return 1e-9 * total * rng.Float64()
	case r < 56:
		// Onto (or, rounded, next to) a phase boundary, possibly a passed one.
		return cum[rng.Intn(len(cum))]*total - done
	case r < 90:
		return rng.Float64() * 0.4 * total
	case r < 94:
		return total * (1 + rng.Float64())
	case r < 97:
		return math.Inf(1)
	default:
		return math.NaN()
	}
}

// TestAppProfileMatchesScan drives apps, clones, half-thread apps, a mix and
// a disturbed wrapper through random Advance and Reset sequences and requires
// every Profile to equal the scan-from-phase-0 oracle bit for bit.
func TestAppProfileMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const ops = 3000

	var apps []*App
	for _, n := range append(append(EvaluationPARSEC(), EvaluationSPEC()...), TrainingSet()...) {
		apps = append(apps, MustLookup(n))
	}
	for _, n := range []string{"blackscholes", "bodytrack", "x264", "mcf"} {
		apps = append(apps, halfThreads(MustLookup(n)))
	}
	many := make([]Phase, 12)
	for i := range many {
		many[i] = Phase{WorkFrac: 1.0 / 12, Threads: 1 + i%8, MemBound: 0.05 * float64(i), IPCBig: 1 + 0.1*float64(i), IPCLittle: 0.5}
	}
	a12, err := NewApp("twelve", 97, many)
	if err != nil {
		t.Fatal(err)
	}
	apps = append(apps, a12)

	for _, a := range apps {
		check := func(step int, what string) {
			t.Helper()
			if got, want := a.Profile(), scanProfile(a); !sameProfile(got, want) {
				t.Fatalf("%s op %d after %s (done %v of %v): Profile %+v, scan %+v",
					a.Name(), step, what, a.done, a.total, got, want)
			}
		}
		check(-1, "start")
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(100); {
			case r < 4:
				a.Reset()
				check(i, "Reset")
			case r < 6:
				// A clone of an advanced app starts at its first phase.
				a = a.Clone()
				check(i, "Clone")
			default:
				g := scanTestAmount(rng, a.total, a.done, cums(a))
				a.Advance(g)
				check(i, "Advance")
				if a.Done() && rng.Intn(2) == 0 {
					a.Reset()
					check(i, "Reset")
				}
			}
		}
	}

	for _, m := range append(HeterogeneousMixes(), NewMix("bbx", MustLookup("bodytrack"), MustLookup("x264"), a12)) {
		check := func(step int, what string) {
			t.Helper()
			for _, a := range m.apps {
				if got, want := a.Profile(), scanProfile(a); !sameProfile(got, want) {
					t.Fatalf("%s/%s op %d after %s: Profile %+v, scan %+v", m.Name(), a.Name(), step, what, got, want)
				}
			}
			if got, want := m.Profile(), scanMixProfile(m); !sameProfile(got, want) {
				t.Fatalf("%s op %d after %s: Profile %+v, scan %+v", m.Name(), step, what, got, want)
			}
		}
		check(-1, "start")
		var cum []float64
		for _, a := range m.apps {
			cum = append(cum, cums(a)...)
		}
		for i := 0; i < ops; i++ {
			if rng.Intn(100) < 4 || (m.Done() && rng.Intn(2) == 0) {
				m.Reset()
				check(i, "Reset")
				continue
			}
			m.Advance(scanTestAmount(rng, m.Total(), m.Total()-m.Remaining(), cum))
			check(i, "Advance")
		}
	}

	d := Disturbance{MeanPeriodG: 20, DurationG: 8, ThreadFrac: 0.5, MemBoundAdd: 0.2}
	for _, n := range []string{"bodytrack", "x264", "blackscholes"} {
		a := MustLookup(n)
		dw, ref := NewDisturbed(a, d, 7), NewDisturbed(scanApp{a.Clone()}, d, 7)
		windows := 0
		for i := 0; i < ops; i++ {
			if rng.Intn(100) < 4 || (dw.Done() && rng.Intn(2) == 0) {
				dw.Reset()
				ref.Reset()
			} else {
				g := scanTestAmount(rng, a.total, a.done, cums(a))
				dw.Advance(g)
				ref.Advance(g)
			}
			if got, want := dw.Profile(), ref.Profile(); !sameProfile(got, want) {
				t.Fatalf("disturbed %s op %d: Profile %+v, scan %+v", n, i, got, want)
			}
			windows = max(windows, dw.Disturbances())
		}
		if windows == 0 {
			t.Fatalf("disturbed %s: no window opened; the wrapper was not exercised", n)
		}
	}
}

// TestAppOwnsItsCacheLine pins App at 64 bytes on 64-bit platforms. A 64-byte
// object is allocated 64-byte aligned, so it owns its cache line, and fleet
// workers advancing neighbouring boards' Apps never write to a shared line.
// In a profile of 1024-board fleet runs with App at 88 bytes (96-byte
// objects), Advance, Done and the phase lookup took 17% of the CPU; at 64
// bytes they take 6%.
func TestAppOwnsItsCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size class argument is for 64-bit platforms")
	}
	if s := unsafe.Sizeof(App{}); s != 64 {
		t.Fatalf("App is %d bytes, want 64", s)
	}
}
