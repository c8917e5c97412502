package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"dmw/internal/gateway"
	"dmw/internal/group"
	"dmw/internal/replica"
	"dmw/internal/ring"
	"dmw/internal/server"
	"dmw/internal/tenant"
)

// tenantIDs are the three synthetic tenants the fleet workloads spread
// traffic across; their WDRR weights differ and their rate/quota limits
// exist but never bind (no op may fail on a healthy run).
var tenantIDs = [numTenants]string{"bench-a", "bench-b", "bench-c"}

func tenantConfig() tenant.Config {
	return tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{
			tenantIDs[0]: {Rate: 1e6, Burst: 1e6, Quota: 1 << 20, Weight: 1},
			tenantIDs[1]: {Rate: 1e6, Burst: 1e6, Quota: 1 << 20, Weight: 2},
			tenantIDs[2]: {Rate: 1e6, Burst: 1e6, Quota: 1 << 20, Weight: 3},
		},
	}
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack is the system under test, booted in-process: one bare server for
// the proto workloads, or two journal-backed replicas behind a gateway on
// loopback HTTP for the fleet workloads.
type stack struct {
	w      workload
	params *group.Params

	servers []*server.Server
	names   []string // ring member names, aligned with servers/urls
	urls    []string // replica base URLs (fleet only)
	gw      *gateway.Gateway
	gwURL   string
	ring    *ring.Ring // the gateway's placement, rebuilt for owner lookups

	https []*http.Server
	dirs  []string
}

// queueDepth bounds each replica's admission queue far above any backlog a
// healthy run builds, so a 503 is always a real failure.
const queueDepth = 4096

// serveLoopback binds a fresh loopback port for h and starts serving.
func (s *stack) serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.https = append(s.https, srv)
	go func() { _ = srv.Serve(ln) }() // returns on Shutdown in close
	return "http://" + ln.Addr().String(), nil
}

// bootStack performs the workload's whole set-up, the way a cold dmwd /
// dmwgw start does: parameter validation, group table build, journal open,
// listeners, fleet view, and a health round trip. tmpRoot holds the WAL
// directories. On error everything already started is torn down.
func bootStack(w workload, workers int, tmpRoot string) (st *stack, err error) {
	st = &stack{w: w}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	// group.Preset revalidates (primality) and server.New builds private
	// fixed-base tables for explicit Params, so every boot pays the cold
	// cost instead of hitting the package-level preset memo.
	if st.params, err = group.Preset(w.Preset); err != nil {
		return st, err
	}
	cfg := server.Config{
		Params:     st.params,
		QueueDepth: queueDepth,
		Workers:    workers,
		ResultTTL:  w.ResultTTL,
		Logger:     quietLogger,
	}
	if !w.Fleet {
		srv, err := server.New(cfg)
		if err != nil {
			return st, err
		}
		srv.Start()
		st.servers = []*server.Server{srv}
		return st, nil
	}

	cfg.Tenants = tenantConfig()
	cfg.Fsync = "interval"
	var backends []gateway.Backend
	var peers []replica.Peer
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return st, err
		}
		st.dirs = append(st.dirs, dir)
		cfg.DataDir = dir
		srv, err := server.New(cfg)
		if err != nil {
			return st, err
		}
		srv.Start()
		st.servers = append(st.servers, srv)
		url, err := st.serveLoopback(srv.Handler())
		if err != nil {
			return st, err
		}
		name := fmt.Sprintf("rep%d", i)
		st.names = append(st.names, name)
		st.urls = append(st.urls, url)
		backends = append(backends, gateway.Backend{Name: name, URL: url})
		peers = append(peers, replica.Peer{Name: name, URL: url, Weight: 1})
	}
	for i, srv := range st.servers {
		srv.ApplyFleetView(replica.View{Epoch: 1, Self: st.names[i], Replication: 2, Peers: peers})
	}
	if st.gw, err = gateway.New(gateway.Config{Backends: backends, Replication: 2, Logger: quietLogger}); err != nil {
		return st, err
	}
	if st.gwURL, err = st.serveLoopback(st.gw.Handler()); err != nil {
		return st, err
	}
	st.ring = ring.New(ring.DefaultVirtualNodes)
	for _, name := range st.names {
		st.ring.Add(name, 1)
	}
	return st, st.waitHealthy()
}

// waitHealthy polls until the gateway and both replicas answer /healthz
// with 200 — the moment an operator would call the fleet up.
func (s *stack) waitHealthy() error {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for _, base := range append([]string{s.gwURL}, s.urls...) {
		for {
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet not healthy after 10s: %s: %v", base, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// owner returns the index of the replica the gateway routes id to.
func (s *stack) owner(id string) int {
	name, _ := s.ring.Owner(id)
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return 0
}

// close drains and stops everything bootStack started: HTTP listeners
// first, then the gateway prober, then the replicas (final snapshot, WAL
// close), then the data directories. Safe on a partially booted stack.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, h := range s.https {
		_ = h.Shutdown(ctx) // best effort; Close below is the backstop
		_ = h.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dmwbench: server shutdown: %v\n", err)
		}
	}
	for _, d := range s.dirs {
		_ = os.RemoveAll(d) // tmpRoot removal at exit is the backstop
	}
}
