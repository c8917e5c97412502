package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// loadReports reads a file of report lines (what --report appends) and
// groups the untraced ones by workload.
func loadReports(path string) (map[string][]*reportDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*reportDoc{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d reportDoc
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if d.Trace == 0 {
			out[d.Workload] = append(out[d.Workload], &d)
		}
	}
	return out, sc.Err()
}

// side summarizes one file's runs of one workload for one metric: the
// median of the runs' values and the median of their slice IQRs.
func side(runs []*reportDoc, metric string) (value, iqr float64, ok bool) {
	var vals, iqrs []float64
	for _, r := range runs {
		if s, found := r.Metrics[metric]; found {
			vals = append(vals, s.Value)
			iqrs = append(iqrs, s.IQR)
		}
	}
	return median(vals), median(iqrs), len(vals) > 0
}

// verdict classifies b against a for one metric. worse is how far b moved
// in the bad direction as a share of a (negative = better). A move is only
// resolved when the slices agree more tightly than the bound: otherwise
// the honest answer is that this pair of runs cannot tell.
func verdict(m metricDef, a, aIQR, b, bIQR float64) (worse float64, v string) {
	if a == 0 {
		return 0, "unresolved"
	}
	worse = (b - a) / a
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max(aIQR, bIQR) / a
	switch {
	case spread > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "regressed"
	case worse < -m.Bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return worse, v
}

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA slice IQR\tB median\tB slice IQR\tworse by\tbound\tverdict")
	rows := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			av, ai, okA := side(a[wl.Name], m.Name)
			bv, bi, okB := side(b[wl.Name], m.Name)
			if !okA || !okB {
				continue
			}
			worse, v := verdict(m, av, ai, bv, bi)
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, av, ai, bv, bi, 100*worse, 100*m.Bound, v)
			rows++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	return nil
}
