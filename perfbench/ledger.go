package main

import (
	"math"
	"time"
)

// ledgerTolerance is the share of the traced wall time by which the ledger
// entries may miss it, and by which any one entry may be negative.
const ledgerTolerance = 0.05

// ledger attributes a traced run's wall time, from process start to the end
// of the traced work, to layers. Each phase of the run times the calls it
// makes into the program; the phase's wall time not covered by those calls
// is booked to a named residual entry. The check then asks whether the
// entries, whose timers are independent of the run's overall clock, add up
// to that clock: a gap means a phase went unrecorded, a negative residual
// means calls were double counted.
type ledger struct {
	start, end time.Time
	entries    []ledgerEntry
}

// ledgerEntry is one layer's self time (or a named residual) in seconds.
type ledgerEntry struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Residual bool    `json:"residual,omitempty"`
}

func newLedger(start time.Time) *ledger { return &ledger{start: start} }

// book adds seconds to the named entry, creating it on first use.
func (l *ledger) book(name string, seconds float64, residual bool) {
	for i := range l.entries {
		if l.entries[i].Name == name {
			l.entries[i].Seconds += seconds
			return
		}
	}
	l.entries = append(l.entries, ledgerEntry{Name: name, Seconds: seconds, Residual: residual})
}

// seconds returns the named entry's total (0 if absent).
func (l *ledger) seconds(name string) float64 {
	for _, e := range l.entries {
		if e.Name == name {
			return e.Seconds
		}
	}
	return 0
}

// close marks the end of the traced work.
func (l *ledger) close() { l.end = time.Now() }

// phase is one stretch of a traced run whose timed calls are booked to the
// ledger; close books the rest of its wall time to "<name>.residual".
type phase struct {
	l     *ledger
	name  string
	start time.Time
	spans float64
}

func (l *ledger) phase(name string) *phase {
	return &phase{l: l, name: name, start: time.Now()}
}

// add books a measured span of the phase to a layer entry.
func (p *phase) add(entry string, d time.Duration) {
	s := d.Seconds()
	p.spans += s
	p.l.book(entry, s, false)
}

// time runs fn and books its duration to entry.
func (p *phase) time(entry string, fn func() error) error {
	t := time.Now()
	err := fn()
	p.add(entry, time.Since(t))
	return err
}

// close books the phase's unattributed wall time and returns the phase's
// wall time.
func (p *phase) close() time.Duration {
	wall := time.Since(p.start)
	p.l.book(p.name+".residual", wall.Seconds()-p.spans, true)
	return wall
}

// ledgerDoc is the ledger as printed in the info line.
type ledgerDoc struct {
	WallS            float64       `json:"wall_s"`
	AttributedS      float64       `json:"attributed_s"`
	UnattributedFrac float64       `json:"unattributed_frac"`
	Tolerance        float64       `json:"tolerance"`
	OK               bool          `json:"ok"`
	Entries          []ledgerEntry `json:"entries"`
}

// document sums the entries against the traced wall time and applies the
// check: the entries must cover the wall time within ledgerTolerance and no
// entry may be negative by more than that share.
func (l *ledger) document() ledgerDoc {
	end := l.end
	if end.IsZero() {
		end = time.Now()
	}
	d := ledgerDoc{WallS: end.Sub(l.start).Seconds(), Tolerance: ledgerTolerance, Entries: l.entries}
	ok := d.WallS > 0
	for _, e := range l.entries {
		d.AttributedS += e.Seconds
		if e.Seconds < -ledgerTolerance*d.WallS {
			ok = false
		}
	}
	if d.WallS > 0 {
		d.UnattributedFrac = (d.WallS - d.AttributedS) / d.WallS
	}
	d.OK = ok && math.Abs(d.UnattributedFrac) <= ledgerTolerance
	return d
}
