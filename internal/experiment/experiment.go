// Package experiment implements the reproduction harness: one experiment
// per paper artifact (Table 1's two columns, Figures 1 and 2) plus one
// empirical validation per theorem, as indexed in DESIGN.md. Each
// experiment produces a Report with plain-text tables and a pass/fail
// verdict; cmd/experiments runs them all and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sweeps and trial counts for use in tests; the full
	// experiments run from cmd/experiments.
	Quick bool
	// Seed drives every randomized workload for reproducibility.
	Seed int64
}

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "t1comm").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Tables holds the regenerated rows/series.
	Tables []*Table
	// Notes carry paper-vs-measured commentary.
	Notes []string
	// Pass reports whether the measured behaviour matches the paper's
	// claim (shape, not absolute numbers).
	Pass bool
}

func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "=== %s [%s] %s\n", r.ID, status, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner executes one experiment.
type Runner func(Config) (*Report, error)

// registry maps experiment IDs to runners. Populated in this package's
// files; keep IDs in sync with DESIGN.md's experiment index.
var registry = map[string]Runner{
	"t1comm":  runT1Comm,
	"t1comp":  runT1Comp,
	"f1":      runF1,
	"f2":      runF2,
	"truth":   runTruth,
	"faith":   runFaith,
	"svp":     runSVP,
	"priv":    runPriv,
	"approx":  runApprox,
	"degres":  runDegres,
	"related": runRelated,
	"tworand": runTwoRand,
	"quant":   runQuant,
	"latency": runLatency,
	"frugal":  runFrugal,
}

// order fixes the presentation order of All. The first ten reproduce the
// paper's artifacts; "related" and "tworand" cover the extensions
// (Section 5 future work and the related-work baseline).
var order = []string{
	"t1comm", "t1comp", "f1", "f2", "truth", "faith", "svp", "priv", "approx", "degres",
	"related", "tworand", "quant", "latency", "frugal",
}

// IDs returns all experiment identifiers in presentation order.
func IDs() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, known)
	}
	return r(cfg)
}

// RunAll executes every experiment in order, stopping on infrastructure
// errors but not on failed verdicts.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, id := range order {
		rep, err := Run(id, cfg)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
