package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// AgentConfig configures a replica-side lease agent.
type AgentConfig struct {
	// Gateways are the gateway base URLs; every heartbeat renews the
	// lease at all of them, so each one holds the full ring. At least one
	// is required.
	Gateways []string
	// Name is the ring identity to lease (see LeaseRequest.Name).
	Name string
	// URL is the advertised base URL for this replica.
	URL string
	// Weight is the requested keyspace share (default 1).
	Weight int
	// Interval overrides the renewal period; 0 derives TTL/3 from each
	// grant, which tracks the gateway's configured lease length.
	Interval time.Duration
	// Client is the HTTP client used for lease calls (default: 5s
	// timeout).
	Client *http.Client
	// Logf receives lifecycle lines (joined, lost contact, released);
	// nil discards.
	Logf func(format string, args ...any)
	// OnGrant observes one grant per successful heartbeat — the first
	// answer in Gateways order — and is the hook the server uses to
	// rebuild its replication view. Called from the agent's goroutine;
	// keep it fast.
	OnGrant func(LeaseGrant)
}

// Agent keeps one replica's lease alive at every gateway: acquire at
// Start, renew at ~TTL/3 (with fast retry while no gateway answers),
// release on Stop. The agent never gives up — a gateway restart just
// looks like a streak of failed renewals there followed by a fresh
// join, which is exactly the lease protocol's recovery story.
type Agent struct {
	cfg AgentConfig

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewAgent validates cfg and builds an Agent (not yet started).
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if len(cfg.Gateways) == 0 {
		return nil, errors.New("membership: agent needs at least one gateway URL")
	}
	if cfg.Name == "" {
		return nil, errors.New("membership: agent needs a member name")
	}
	if cfg.URL == "" {
		return nil, errors.New("membership: agent needs an advertise URL")
	}
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Agent{cfg: cfg, stop: make(chan struct{})}, nil
}

// Start launches the heartbeat loop. The first acquire happens
// immediately (and synchronously retries inside the loop on failure),
// so a freshly booted replica is on the ring within one gateway round
// trip.
func (a *Agent) Start() {
	a.wg.Add(1)
	go a.loop()
}

func (a *Agent) loop() {
	defer a.wg.Done()
	interval := a.cfg.Interval
	if interval <= 0 {
		interval = DefaultTTL / 3
	}
	joined := false
	timer := time.NewTimer(0) // fire immediately for the initial acquire
	defer timer.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-timer.C:
		}
		// Beats are paced from their start: a beat spent waiting out a
		// hung gateway does not push back the next renewal elsewhere.
		start := time.Now()
		grant, gw, err := a.renew(interval)
		if err != nil {
			if joined {
				a.cfg.Logf("membership: lease renewal failed (will retry): %v", err)
				joined = false
			}
			// Retry fast while out of contact: every missed beat eats
			// into the TTL the gateways are counting down.
			timer.Reset(max(interval/3, 25*time.Millisecond) - time.Since(start))
			continue
		}
		if !joined {
			a.cfg.Logf("membership: lease granted by %s (epoch %d, ttl %s, %d peers)",
				gw, grant.Epoch, grant.TTL(), len(grant.Peers))
			joined = true
		}
		interval = a.period(grant, interval)
		if a.cfg.OnGrant != nil {
			a.cfg.OnGrant(grant)
		}
		timer.Reset(interval - time.Since(start))
	}
}

// period is the renewal interval after grant: Interval when configured,
// else a third of the grant's TTL (at least 20ms), else current.
func (a *Agent) period(grant LeaseGrant, current time.Duration) time.Duration {
	if a.cfg.Interval > 0 || grant.TTLMillis <= 0 {
		return current
	}
	return max(grant.TTL()/3, 20*time.Millisecond)
}

// each runs f once per gateway, concurrently, and returns when every
// call has: one slow gateway delays none of the others.
func (a *Agent) each(f func(i int, gw string)) {
	var wg sync.WaitGroup
	for i, gw := range a.cfg.Gateways {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, gw)
		}()
	}
	wg.Wait()
}

// renew POSTs the lease to every gateway at once and returns the first
// grant in Gateways order. A gateway gets at most one renewal period to
// answer — the one the first grant implies once it arrives — so a hung
// gateway cannot hold the beat past the next renewal due elsewhere.
func (a *Agent) renew(deadline time.Duration) (LeaseGrant, string, error) {
	body, err := json.Marshal(LeaseRequest{Name: a.cfg.Name, URL: a.cfg.URL, Weight: a.cfg.Weight})
	if err != nil {
		return LeaseGrant{}, "", err
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	grants := make([]LeaseGrant, len(a.cfg.Gateways))
	errs := make([]error, len(a.cfg.Gateways))
	var first sync.Once
	var cutoff *time.Timer
	a.each(func(i int, gw string) {
		grants[i], errs[i] = a.post(ctx, gw, body)
		if errs[i] == nil {
			first.Do(func() { cutoff = time.AfterFunc(a.period(grants[i], deadline)-time.Since(start), cancel) })
		}
	})
	if cutoff != nil {
		cutoff.Stop()
	}
	for i, gw := range a.cfg.Gateways {
		if errs[i] == nil {
			return grants[i], gw, nil
		}
	}
	return LeaseGrant{}, "", errors.Join(errs...)
}

// post sends one acquire/renew to gw and decodes its grant.
func (a *Agent) post(ctx context.Context, gw string, body []byte) (LeaseGrant, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(gw, "/")+LeasePath, bytes.NewReader(body))
	if err != nil {
		return LeaseGrant{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return LeaseGrant{}, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return LeaseGrant{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return LeaseGrant{}, fmt.Errorf("gateway %s: HTTP %d: %s", gw, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var grant LeaseGrant
	if err := json.Unmarshal(data, &grant); err != nil {
		return LeaseGrant{}, fmt.Errorf("gateway %s: decoding grant: %w", gw, err)
	}
	return grant, nil
}

// Stop halts the heartbeat loop and releases the lease at every
// gateway concurrently (best effort — an unreachable gateway will
// expire the lease on its own). Idempotent; safe to call before Start.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() {
		close(a.stop)
		a.wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		a.each(func(_ int, gw string) {
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
				strings.TrimSuffix(gw, "/")+LeasePath+"/"+a.cfg.Name, nil)
			if err != nil {
				return
			}
			resp, err := a.cfg.Client.Do(req)
			if err != nil {
				a.cfg.Logf("membership: lease release to %s failed (lease will expire): %v", gw, err)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			a.cfg.Logf("membership: lease %s released at %s", a.cfg.Name, gw)
		})
	})
}
