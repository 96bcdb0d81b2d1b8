// Package bench provides the measurement and presentation utilities shared
// by the experiment drivers: repeated timing with warmup, summary
// statistics, and plain-text table/series rendering that mirrors the rows
// and series of the paper's tables and figures.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Measure times fn. It runs warmup unrecorded iterations, then reps
// recorded ones, and returns the median duration — the median is robust
// against scheduler noise, which matters when comparing schemes whose real
// difference is the quantity of interest.
func Measure(warmup, reps int, fn func()) time.Duration {
	for i := 0; i < warmup; i++ {
		fn()
	}
	if reps < 1 {
		reps = 1
	}
	samples := make([]time.Duration, reps)
	for i := range samples {
		start := time.Now()
		fn()
		samples[i] = time.Since(start)
	}
	return Median(samples)
}

// MeasureInterleaved times several functions against each other: warmup
// unrecorded rounds, then reps recorded rounds, each round calling every fn
// once in order. It returns each fn's median duration. Interleaving puts
// every fn under the same host conditions, where timing each in its own
// Measure block lets drift in host speed between blocks bias the ratios.
func MeasureInterleaved(warmup, reps int, fns []func()) []time.Duration {
	for i := 0; i < warmup; i++ {
		for _, fn := range fns {
			fn()
		}
	}
	if reps < 1 {
		reps = 1
	}
	samples := make([][]time.Duration, len(fns))
	for r := 0; r < reps; r++ {
		for i, fn := range fns {
			start := time.Now()
			fn()
			samples[i] = append(samples[i], time.Since(start))
		}
	}
	out := make([]time.Duration, len(fns))
	for i := range fns {
		out[i] = Median(samples[i])
	}
	return out
}

// Median returns the median of samples (which it sorts in place).
func Median(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// Mean returns the arithmetic mean of xs, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, the aggregation GeekBench-style
// scores use; 0 for empty input or any non-positive element.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks; xs is sorted in place.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// CI95 returns the mean of xs and the half-width of its 95% confidence
// interval under the normal approximation (1.96 σ/√n). With fewer than two
// samples the half-width is 0.
func CI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	return mean, 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Ratio formats a normalized ratio the way the paper's text does, e.g.
// "26.58x".
func Ratio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// Percent formats a relative change as a percentage with sign, e.g.
// "-5.90%".
func Percent(r float64) string { return fmt.Sprintf("%+.2f%%", r) }

// Table is a plain-text table with aligned columns.
type Table struct {
	// Title is printed above the table.
	Title string
	// Headers labels the columns.
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// WriteTo renders the table. It always returns a nil error; the signature
// keeps it usable with io plumbing.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}

// Series is one line of a figure: a named sequence of (x, y) points.
type Series struct {
	// Name is the legend entry.
	Name string
	// X holds the point labels, Y the values; both are index-aligned.
	X []string
	Y []float64
}

// Add appends a point.
func (s *Series) Add(x string, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing an x-axis, rendered as a table with one
// column per series — the textual equivalent of the paper's plots.
type Figure struct {
	// Title is printed above the figure.
	Title string
	// XLabel names the x-axis column.
	XLabel string
	// Format renders a y value; defaults to Ratio.
	Format func(float64) string
	series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, xlabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, Format: Ratio}
}

// AddSeries registers a new series and returns it for population. All
// series must be populated over the same x values in the same order.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.series = append(f.series, s)
	return s
}

// Series returns the registered series.
func (f *Figure) Series() []*Series { return f.series }

// String renders the figure.
func (f *Figure) String() string {
	headers := []string{f.XLabel}
	for _, s := range f.series {
		headers = append(headers, s.Name)
	}
	t := NewTable(f.Title, headers...)
	if len(f.series) > 0 {
		for i, x := range f.series[0].X {
			row := []string{x}
			for _, s := range f.series {
				if i < len(s.Y) {
					row = append(row, f.Format(s.Y[i]))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
	}
	return t.String()
}
