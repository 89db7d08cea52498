// Package series provides time-series recording, summary statistics, CSV
// export and terminal (ASCII) rendering for the experiment harness. Every
// figure in the paper that plots a signal versus time (Figures 10, 11, 15a,
// 17) is produced through this package.
package series

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is a named, uniformly usable sequence of (time, value) samples.
type Series struct {
	// Name labels the series in CSV headers and chart titles.
	Name string
	// T holds the sample times in seconds, parallel to V.
	T []float64
	// V holds the sample values, parallel to T.
	V []float64
}

// New returns an empty series.
func New(name string) *Series {
	return &Series{Name: name}
}

// Add appends one sample.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.V) }

// Stats summarizes a series. Non-finite samples (NaN readings from faulted
// sensors) are excluded from every statistic and counted in NaNs.
type Stats struct {
	// Min, Max, Mean and Std are the extrema, mean and population standard
	// deviation of the finite samples.
	Min, Max, Mean, Std float64
	// Oscillation counts direction reversals whose amplitude exceeds 5% of
	// the series range — the "peaks and valleys" metric used to discuss
	// Figure 10.
	Oscillations int
	// NaNs counts the non-finite samples the other statistics excluded.
	NaNs int
}

// Summarize computes summary statistics over the finite samples. A nil,
// empty or all-non-finite series returns a zero Stats (with NaNs counting
// the excluded samples); a single finite sample yields Min = Max = Mean
// with zero Std and no oscillations.
func (s *Series) Summarize() Stats {
	var st Stats
	if s == nil || len(s.V) == 0 {
		return st
	}
	st.Min, st.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	n := 0
	for _, v := range s.V {
		if !finite(v) {
			st.NaNs++
			continue
		}
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
		sum += v
		n++
	}
	if n == 0 {
		return Stats{NaNs: st.NaNs}
	}
	st.Mean = sum / float64(n)
	var ss float64
	for _, v := range s.V {
		if !finite(v) {
			continue
		}
		d := v - st.Mean
		ss += float64(d * d)
	}
	st.Std = math.Sqrt(ss / float64(n))
	// Count significant direction reversals over the finite samples.
	thresh := 0.05 * (st.Max - st.Min)
	if thresh > 0 {
		lastExtreme := math.NaN()
		dir := 0
		for _, v := range s.V {
			if !finite(v) {
				continue
			}
			if math.IsNaN(lastExtreme) {
				lastExtreme = v
				continue
			}
			d := v - lastExtreme
			switch {
			case d > thresh:
				if dir < 0 {
					st.Oscillations++
				}
				dir = 1
				lastExtreme = v
			case d < -thresh:
				if dir > 0 {
					st.Oscillations++
				}
				dir = -1
				lastExtreme = v
			default:
				if (dir > 0 && v > lastExtreme) || (dir < 0 && v < lastExtreme) {
					lastExtreme = v
				}
			}
		}
	}
	return st
}

// Quantile returns the q-quantile (clamped to [0, 1]) of the series' finite
// values using linear interpolation between order statistics: q = 0 is the
// minimum, q = 1 the maximum, q = 0.5 the median. Non-finite samples are
// ignored. It returns NaN when the series is nil, empty or has no finite
// sample — never a silent 0.
func (s *Series) Quantile(q float64) float64 {
	if s == nil {
		return math.NaN()
	}
	vals := make([]float64, 0, len(s.V))
	for _, v := range s.V {
		if finite(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := float64(q * float64(len(vals)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + float64(frac*(vals[lo+1]-vals[lo]))
}

// MeanAbove returns the mean of finite samples with t >= t0 (for
// steady-state analysis past an initialization transient). NaN samples from
// faulted sensors are excluded; 0 when no finite sample qualifies.
func (s *Series) MeanAbove(t0 float64) float64 {
	var sum float64
	var n int
	for i, t := range s.T {
		if t >= t0 && finite(s.V[i]) {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ErrNilSeries is returned by WriteCSV when the receiver is nil (a run
// executed with core.RunOptions.SkipSeries has nil trace series).
var ErrNilSeries = errors.New("series: cannot export a nil series")

// WriteCSV emits "time,value" rows with a header. A nil receiver returns
// ErrNilSeries instead of silently writing nothing.
func (s *Series) WriteCSV(w io.Writer) error {
	if s == nil {
		return ErrNilSeries
	}
	if _, err := fmt.Fprintf(w, "time_s,%s\n", s.Name); err != nil {
		return err
	}
	for i := range s.T {
		if _, err := fmt.Fprintf(w, "%.3f,%.6g\n", s.T[i], s.V[i]); err != nil {
			return err
		}
	}
	return nil
}

// finite reports whether v is a finite number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// RenderASCII draws the series as a compact ASCII chart of the given width
// and height, with min/max labels — enough to eyeball the oscillation
// structure of Figures 10/11/17 in a terminal.
func (s *Series) RenderASCII(width, height int) string {
	if len(s.V) == 0 || width < 8 || height < 2 {
		return "(empty series)\n"
	}
	st := s.Summarize()
	lo, hi := st.Min, st.Max
	if hi == lo {
		hi = lo + 1
	}
	// Downsample to width buckets by mean.
	buckets := make([]float64, width)
	counts := make([]int, width)
	t0, t1 := s.T[0], s.T[len(s.T)-1]
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	for i, t := range s.T {
		if !finite(s.V[i]) {
			continue
		}
		b := int(float64(width-1) * (t - t0) / span)
		buckets[b] += s.V[i]
		counts[b]++
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for b := 0; b < width; b++ {
		if counts[b] == 0 {
			continue
		}
		v := buckets[b] / float64(counts[b])
		r := int(float64(height-1) * (hi - v) / (hi - lo))
		grid[r][b] = '*'
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%s  [%.3g .. %.3g]\n", s.Name, lo, hi)
	for _, row := range grid {
		out.WriteString("|")
		out.Write(row)
		out.WriteString("|\n")
	}
	fmt.Fprintf(&out, " t: %.1fs .. %.1fs\n", t0, t1)
	return out.String()
}

// Table renders a simple aligned text table: the harness uses it to print
// each figure's bar data as rows.
type Table struct {
	// Header holds the column titles.
	Header []string
	// Rows holds the body cells, one slice per row.
	Rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// Normalize returns values divided by the value at key in baseline order —
// a helper for the paper's "normalized to Coordinated heuristic" bars.
func Normalize(values map[string]float64, baseline string) map[string]float64 {
	out := make(map[string]float64, len(values))
	base := values[baseline]
	for k, v := range values {
		if base != 0 {
			out[k] = v / base
		}
	}
	return out
}

// SortedKeys returns the map's keys in sorted order (stable table output).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
