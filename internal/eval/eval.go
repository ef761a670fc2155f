// Package eval provides the measurement utilities behind the experiment
// harness: robust statistics over repeated runs (the paper reports medians
// over 11 runs), wall-clock timing, a simulated-cluster time model for the
// parallel experiments, and plain-text table rendering for the paper's
// tables and figure series.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Median returns the median of xs (average of middle two for even lengths).
// It panics on empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("eval: Median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return s[m-1]/2 + s[m]/2 // half-sums: no overflow for extreme values
}

// Mean returns the arithmetic mean of xs. It panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("eval: Mean of empty slice")
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Timed runs f and returns its wall-clock duration.
func Timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ClusterModel converts algorithmic work into simulated parallel wall-clock
// on an idealized cluster, so the Table 4 comparison can be reported at the
// paper's scale even though everything here runs on one machine. Work is
// measured in point-distance evaluations (n points × c centers counts n·c
// units); the critical-path time of a phase that scans W units on M machines
// is W/(M·Throughput) + Setup.
//
// The defaults are calibrated to commodity 2012-era Hadoop nodes: ~25M
// distance evaluations per second per node for d ≈ 42, and 30 s of per-round
// job setup (JVM spin-up, scheduling, shuffle barrier) — the cost structure
// §4.2.1's running-time argument relies on.
type ClusterModel struct {
	Machines   int     // cluster size
	Throughput float64 // distance evaluations per second per machine
	Setup      float64 // seconds of fixed overhead per MapReduce round
}

// DefaultCluster mirrors the scale of the paper's Hadoop evaluation.
func DefaultCluster() ClusterModel {
	return ClusterModel{Machines: 100, Throughput: 25e6, Setup: 30}
}

// PhaseSeconds returns the simulated time of one parallel phase that scans
// `work` distance-units with at most `machines` usable machines (capped at
// the model's cluster size; Partition's m-group cap enters here).
func (m ClusterModel) PhaseSeconds(work float64, machines int) float64 {
	if machines > m.Machines || machines <= 0 {
		machines = m.Machines
	}
	return work/(float64(machines)*m.Throughput) + m.Setup
}

// Table is a rendered experiment result: the rows the paper's corresponding
// table or figure reports.
type Table struct {
	ID      string   // experiment id, e.g. "table1", "fig5_2"
	Title   string   // human description
	Headers []string // column names
	Rows    [][]string
	Notes   []string // caveats, scaling factors, substitutions
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for j, h := range t.Headers {
		widths[j] = len(h)
	}
	for _, row := range t.Rows {
		for j, cell := range row {
			if j < len(widths) && len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for j, cell := range cells {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[j], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for j, w := range widths {
		if j > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// RenderCSV formats the table as machine-readable CSV (header row first,
// notes as trailing '#' comment lines) for downstream plotting.
func (t *Table) RenderCSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s: %s\n", t.ID, t.Title)
	writeCSVRow := func(cells []string) {
		for j, cell := range cells {
			if j > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeCSVRow(t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	return sb.String()
}

// FmtCost renders a clustering cost scaled by 10^scalePow with sensible
// precision, matching the paper's "scaled down by 10^k" table style.
func FmtCost(v float64, scalePow int) string {
	scaled := v / math.Pow(10, float64(scalePow))
	switch {
	case scaled == 0:
		return "0"
	case scaled >= 1000:
		return fmt.Sprintf("%.0f", scaled)
	case scaled >= 10:
		return fmt.Sprintf("%.0f", scaled)
	case scaled >= 1:
		return fmt.Sprintf("%.1f", scaled)
	default:
		return fmt.Sprintf("%.2g", scaled)
	}
}

// FmtSci renders a value in scientific notation like the paper's Table 3
// Random rows (e.g. "6.8e+07").
func FmtSci(v float64) string { return fmt.Sprintf("%.2g", v) }
