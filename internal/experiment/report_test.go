package experiment

import (
	"math"
	"strings"
	"testing"
)

func TestFitPowerLawExact(t *testing.T) {
	tests := []struct {
		name     string
		fn       func(x float64) float64
		exponent float64
	}{
		{"linear", func(x float64) float64 { return 3 * x }, 1},
		{"quadratic", func(x float64) float64 { return 0.5 * x * x }, 2},
		{"cubic", func(x float64) float64 { return x * x * x }, 3},
		{"constant-ish", func(x float64) float64 { return 7 }, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			xs := []float64{2, 4, 8, 16, 32}
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = tt.fn(x)
			}
			fit, err := FitPowerLaw(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fit.Exponent-tt.exponent) > 1e-9 {
				t.Errorf("exponent = %v, want %v", fit.Exponent, tt.exponent)
			}
			if fit.R2 < 0.999 {
				t.Errorf("R2 = %v for exact power law", fit.R2)
			}
		})
	}
}

func TestFitPowerLawCoefficient(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{5, 10, 20, 40} // y = 5x
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coefficient-5) > 1e-9 {
		t.Errorf("coefficient = %v, want 5", fit.Coefficient)
	}
}

func TestFitPowerLawNoisy(t *testing.T) {
	// Quadratic with lower-order terms still fits near 2.
	xs := []float64{4, 8, 16, 32, 64}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x*x + 10*x + 7
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Exponent < 1.7 || fit.Exponent > 2.1 {
		t.Errorf("exponent = %v, want ~2", fit.Exponent)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	tests := []struct {
		name   string
		xs, ys []float64
	}{
		{"length mismatch", []float64{1, 2}, []float64{1}},
		{"too few", []float64{1}, []float64{1}},
		{"zero x", []float64{0, 2}, []float64{1, 2}},
		{"negative y", []float64{1, 2}, []float64{1, -2}},
		{"degenerate x", []float64{3, 3}, []float64{1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FitPowerLaw(tt.xs, tt.ys); err == nil {
				t.Error("invalid input accepted")
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"name", "count"}}
	tb.AddRow("alpha", 12)
	tb.AddRow("b", 3.14159)
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	out := tb.String()
	for _, want := range []string{"demo", "name", "count", "alpha", "12", "3.142", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := &Table{Headers: []string{"x"}}
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title produced leading newline")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "ignored in csv", Headers: []string{"a", "b"}}
	tb.AddRow(1, "x,y") // comma must be quoted
	tb.AddRow(2.5, "z")
	var buf strings.Builder
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n1,\"x,y\"\n2.500,z\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
