// Package mechanism implements the centralized scheduling mechanisms of
// Section 2.2 of the paper, foremost Nisan and Ronen's MinWork mechanism
// (Definition 5), which DMW distributes.
//
// MinWork runs an independent Vickrey auction per task: the task goes to
// the agent with the minimum reported time, and the winner is paid the
// second-lowest report. MinWork is truthful (Theorem 2) and an
// n-approximation for the makespan objective.
package mechanism

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dmw/internal/sched"
)

// Outcome is the result of running a scheduling mechanism: the schedule,
// per-agent payments, and per-task auction prices. A task whose auction
// did not complete (distributed abort) has Winner Unassigned and zero
// prices.
type Outcome struct {
	Schedule *sched.Schedule
	// Payments[i] is the total payment handed to agent i, the sum of the
	// second prices of the tasks it won (equation (1)).
	Payments []int64
	// FirstPrice[j] and SecondPrice[j] are the per-task auction prices.
	FirstPrice, SecondPrice []int64
}

// Equal reports whether o and p are the same outcome: every task goes to
// the same agent at the same first and second price, and every agent is
// paid the same.
func (o *Outcome) Equal(p *Outcome) bool {
	return slices.Equal(o.Schedule.Agent, p.Schedule.Agent) &&
		slices.Equal(o.FirstPrice, p.FirstPrice) &&
		slices.Equal(o.SecondPrice, p.SecondPrice) &&
		slices.Equal(o.Payments, p.Payments)
}

// Mechanism is a centralized scheduling mechanism: given the reported bid
// matrix (bids[i][j] = agent i's report for task j) it produces an
// allocation and payments.
type Mechanism interface {
	// Name identifies the mechanism in experiment reports.
	Name() string
	// Run computes the outcome for the given bid matrix.
	Run(bids *sched.Instance) (*Outcome, error)
}

// MinWork is the Nisan-Ronen mechanism of Definition 5. The zero value is
// ready to use.
type MinWork struct{}

var _ Mechanism = MinWork{}

// Name implements Mechanism.
func (MinWork) Name() string { return "MinWork" }

// Run allocates each task to the minimum bidder (ties to the lowest agent
// index, the deterministic stand-in for the paper's random tie-break) and
// pays each winner the second-lowest bid, per equation (1).
func (MinWork) Run(bids *sched.Instance) (*Outcome, error) {
	if err := bids.Validate(); err != nil {
		return nil, err
	}
	n, m := bids.Agents(), bids.Tasks()
	if n < 2 {
		return nil, errors.New("mechanism: MinWork needs at least 2 agents for second prices")
	}
	out := &Outcome{
		Schedule:    sched.NewSchedule(m),
		Payments:    make([]int64, n),
		FirstPrice:  make([]int64, m),
		SecondPrice: make([]int64, m),
	}
	for j := 0; j < m; j++ {
		first, second := int64(math.MaxInt64), int64(math.MaxInt64)
		winner := -1
		for i := 0; i < n; i++ {
			b := bids.Time[i][j]
			switch {
			case b < first:
				second = first
				first = b
				winner = i
			case b < second:
				second = b
			}
		}
		out.Schedule.Agent[j] = winner
		out.FirstPrice[j] = first
		out.SecondPrice[j] = second
		out.Payments[winner] += second
	}
	return out, nil
}

// Valuation returns agent i's valuation of the outcome under its true
// times: the negated total time of the tasks assigned to it
// (Definition 2, item 3).
func Valuation(out *Outcome, truth *sched.Instance, i int) int64 {
	var v int64
	for _, j := range out.Schedule.TasksOf(i) {
		v -= truth.Time[i][j]
	}
	return v
}

// Utility returns agent i's quasilinear utility P_i + V_i (Definition 2,
// item 4).
func Utility(out *Outcome, truth *sched.Instance, i int) int64 {
	return out.Payments[i] + Valuation(out, truth, i)
}

// Utilities returns every agent's utility.
func Utilities(out *Outcome, truth *sched.Instance) []int64 {
	us := make([]int64, truth.Agents())
	for i := range us {
		us[i] = Utility(out, truth, i)
	}
	return us
}

// DeviationGain reports the maximum utility an agent can gain by
// misreporting, over the supplied candidate reports for each task, holding
// the other agents' bids at their true values. For a truthful mechanism
// the gain is never positive. It returns the best gain found and the
// misreport matrix achieving it (nil when no misreport improves).
//
// The candidate set is tried per task independently, which is exhaustive
// for MinWork because its per-task auctions are independent.
func DeviationGain(mech Mechanism, truth *sched.Instance, agent int, candidates []int64) (int64, []int64, error) {
	if err := truth.Validate(); err != nil {
		return 0, nil, err
	}
	if agent < 0 || agent >= truth.Agents() {
		return 0, nil, fmt.Errorf("mechanism: agent %d out of range", agent)
	}
	base, err := mech.Run(truth)
	if err != nil {
		return 0, nil, err
	}
	baseU := Utility(base, truth, agent)

	m := truth.Tasks()
	bestGain := int64(0)
	var bestReport []int64
	// Per-task search: for each task try every candidate report.
	report := truth.Row(agent)
	for j := 0; j < m; j++ {
		origJ := report[j]
		for _, c := range candidates {
			if c <= 0 || c == origJ {
				continue
			}
			trial := truth.Clone()
			trial.Time[agent][j] = c
			out, err := mech.Run(trial)
			if err != nil {
				return 0, nil, err
			}
			// Utility is evaluated against TRUE values.
			if gain := Utility(out, truth, agent) - baseU; gain > bestGain {
				bestGain = gain
				bestReport = trial.Row(agent)
			}
		}
	}
	return bestGain, bestReport, nil
}

// CheckVoluntaryParticipation verifies that every truthful agent receives
// non-negative utility (Definition 4). It returns the first violating
// agent, or -1.
func CheckVoluntaryParticipation(mech Mechanism, truth *sched.Instance) (int, error) {
	out, err := mech.Run(truth)
	if err != nil {
		return -1, err
	}
	for i := 0; i < truth.Agents(); i++ {
		if Utility(out, truth, i) < 0 {
			return i, nil
		}
	}
	return -1, nil
}
