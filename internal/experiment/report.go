package experiment

// The measurement utilities behind the experiments: power-law fitting
// for asymptotic-cost validation (Table 1 of the paper reports
// Theta(mn) vs Theta(mn^2) costs, which we verify by fitting log-log
// slopes of measured counts) and plain-text table rendering for the
// experiment reports.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// PowerLawFit is the least-squares fit of y = a * x^k on log-log axes.
type PowerLawFit struct {
	// Exponent is k, the fitted slope on log-log axes.
	Exponent float64
	// Coefficient is a.
	Coefficient float64
	// R2 is the coefficient of determination in log space.
	R2 float64
}

// FitPowerLaw fits y = a*x^k by linear regression on (ln x, ln y). All
// inputs must be positive and the slices of equal length >= 2.
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) {
	if len(xs) != len(ys) {
		return PowerLawFit{}, fmt.Errorf("power-law fit: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return PowerLawFit{}, errors.New("power-law fit: need at least 2 points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	lys := make([]float64, len(xs))
	lxs := make([]float64, len(xs))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerLawFit{}, fmt.Errorf("power-law fit: non-positive point (%g, %g)", xs[i], ys[i])
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		lxs[i], lys[i] = lx, ly
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return PowerLawFit{}, errors.New("power-law fit: degenerate x values")
	}
	k := (n*sxy - sx*sy) / den
	b := (sy - k*sx) / n

	// R^2 in log space.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range lxs {
		pred := k*lxs[i] + b
		ssRes += (lys[i] - pred) * (lys[i] - pred)
		ssTot += (lys[i] - meanY) * (lys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 1e-12 {
		r2 = 1 - ssRes/ssTot
	}
	return PowerLawFit{Exponent: k, Coefficient: math.Exp(b), R2: r2}, nil
}

// Table is a simple aligned plain-text table for experiment reports.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as RFC-4180 CSV (headers first, no title row),
// for regenerating plots outside Go.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return ""
	}
	return b.String()
}
