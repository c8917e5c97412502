package main

import (
	"bytes"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runCmd runs the command with args and returns its stdout and error.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

var ratioLine = regexp.MustCompile(`makespan: (\d+) +approximation ratio: ([0-9.]+) \(bound: (\d+)\)`)

// ratio returns the optimal makespan, the approximation ratio and the
// bound n that a run printed.
func ratio(t *testing.T, out string) (opt int, r float64, bound int) {
	t.Helper()
	m := ratioLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no approximation ratio in output:\n%s", out)
	}
	opt, _ = strconv.Atoi(m[1])
	r, _ = strconv.ParseFloat(m[2], 64)
	bound, _ = strconv.Atoi(m[3])
	return opt, r, bound
}

// TestDefaultFlagsPrintScheduleWithinBound: a random 4 x 6 instance gets
// a task line per task and a ratio within MinWork's n-approximation.
func TestDefaultFlagsPrintScheduleWithinBound(t *testing.T) {
	out, err := runCmd(t)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 6; j++ {
		if !strings.Contains(out, "  T"+strconv.Itoa(j)+" ") {
			t.Errorf("no allocation line for task %d:\n%s", j, out)
		}
	}
	if _, r, bound := ratio(t, out); bound != 4 || r < 1 || r > float64(bound) {
		t.Errorf("ratio %.2f with bound %d, want 1 <= ratio <= n = 4", r, bound)
	}
}

// TestWorstCaseThree: the worst-case family with n = 3 sends every task
// to agent 1 (makespan 3) against an optimum of 2, ratio 1.50: the
// instance's integer epsilon of 1 halves the ratio n it approaches as
// epsilon goes to 0 (see sched.ApproxWorstCase).
func TestWorstCaseThree(t *testing.T) {
	out, err := runCmd(t, "-worstcase", "-n", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n=3, m=3") || !strings.Contains(out, "makespan: 3 ") {
		t.Errorf("want a 3 x 3 instance of makespan 3:\n%s", out)
	}
	if opt, r, bound := ratio(t, out); opt != 2 || r != 1.5 || bound != 3 {
		t.Errorf("optimum %d, ratio %.2f, bound %d; want 2, 1.50, 3", opt, r, bound)
	}
}

func TestUnknownFlagIsAnError(t *testing.T) {
	out, err := runCmd(t, "-bogus")
	if !errors.Is(err, errUsage) {
		t.Errorf("error = %v, want errUsage", err)
	}
	if out != "" {
		t.Errorf("printed %q before rejecting the command line", out)
	}
}
