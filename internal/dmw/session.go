package dmw

import (
	"errors"
	"fmt"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/group"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

// SessionConfig configures a single agent's participation in a
// distributed mechanism execution over an external transport (a real
// network deployment: one process per agent, connected through
// package relaynet or any other transport.Conn implementation).
//
// Unlike RunConfig, a SessionConfig carries only what a real agent
// knows: the published parameters and its OWN true values.
type SessionConfig struct {
	// Params are the published cryptographic parameters (Phase I).
	Params *group.Params
	// Bid is the published bid-encoding configuration: W, c, n.
	Bid bidcode.Config
	// MyBids are this agent's true (discretized) values, one per task.
	MyBids []int
	// Strategy is this agent's strategy; nil means suggested.
	Strategy *strategy.Hooks
	// Seed drives this agent's polynomial randomness. Deployments
	// wanting cryptographic randomness should set CryptoRand instead.
	Seed int64
	// CryptoRand draws polynomial coefficients from crypto/rand,
	// ignoring Seed.
	CryptoRand bool
	// EchoVerification appends digest-exchange rounds hardening the run
	// against an equivocating broadcast medium (relay); see echo.go.
	EchoVerification bool
}

// Validate checks the session configuration.
func (c *SessionConfig) Validate() error {
	if c.Params == nil {
		return errors.New("dmw: nil group parameters")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Bid.Validate(); err != nil {
		return err
	}
	if len(c.MyBids) == 0 {
		return errors.New("dmw: no tasks")
	}
	for j, y := range c.MyBids {
		if !c.Bid.Contains(y) {
			return fmt.Errorf("dmw: MyBids[%d] = %d not in W", j, y)
		}
	}
	return nil
}

// SessionResult is one agent's view of the whole mechanism execution.
type SessionResult struct {
	// Views[j] is the agent's view of task j's auction.
	Views []*AuctionOutcome
	// Claim is the payment vector the agent submitted in Phase IV
	// (nil if the strategy withheld it or the agent crashed).
	Claim []int64
	// RoundLogs[j] narrates auction j from this agent's perspective.
	RoundLogs [][]string
}

// RunAgentSession plays agent me through the full mechanism over conn:
// the m auctions in task order, then the Phase IV payment-claim round.
// All agents connected to the same fabric must use the same published
// configuration and run their auctions in the same order.
func RunAgentSession(cfg SessionConfig, me int, conn transport.Conn) (*SessionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if me < 0 || me >= cfg.Bid.N {
		return nil, fmt.Errorf("dmw: agent id %d out of range [0,%d)", me, cfg.Bid.N)
	}
	if conn == nil {
		return nil, errors.New("dmw: nil transport connection")
	}
	g, err := group.New(cfg.Params)
	if err != nil {
		return nil, err
	}
	nodes, err := g.Scalars().Nodes(cfg.Bid.N, cfg.Bid.Sigma())
	if err != nil {
		return nil, err
	}
	resolver := commit.ResolverOver(cfg.Bid.DegreeCandidates(), nodes)
	hooks := cfg.Strategy
	if hooks == nil {
		hooks = suggested
	}

	res := &SessionResult{
		Views:     make([]*AuctionOutcome, len(cfg.MyBids)),
		RoundLogs: make([][]string, len(cfg.MyBids)),
	}
	crashedAt := -1
	for task := 0; task < len(cfg.MyBids); task++ {
		if crashedAt >= 0 {
			res.Views[task] = &AuctionOutcome{Task: task, Aborted: true, AbortReason: "crashed", Winner: -1}
			continue
		}
		env := &auctionEnv{
			task:     task,
			n:        cfg.Bid.N,
			cfg:      cfg.Bid,
			alphas:   nodes.Alphas,
			powers:   nodes.Powers,
			resolver: resolver,
			echo:     cfg.EchoVerification,
		}
		agents := make([]agentRun, 1)
		a := &agents[0]
		a.init(env, me, g, conn, hooks, cfg.MyBids[task], nil, nil, true)
		carve(g, agents, cfg.Bid.N)
		if !cfg.CryptoRand {
			a.seed(cfg.Seed)
		}
		view, err := a.runBlocking(conn)
		if err != nil {
			return nil, fmt.Errorf("dmw: auction %d: %w", task, err)
		}
		res.Views[task] = &view
		res.RoundLogs[task] = a.roundLog
		if view.AbortReason == "crashed" {
			crashedAt = task
		}
	}
	if crashedAt >= 0 {
		return res, nil
	}

	// Phase IV: one payment-claim round.
	claim := claimFromViews(res.Views, make([]int64, cfg.Bid.N))
	if hooks.TamperPaymentClaim != nil {
		hooks.TamperPaymentClaim(claim)
	}
	if !hooks.OmitPaymentClaim {
		if err := conn.Broadcast(transport.KindPaymentClaim, -1, &PaymentClaimPayload{Payments: claim}); err != nil {
			return nil, err
		}
		res.Claim = claim
	}
	conn.FinishRound()
	return res, nil
}
