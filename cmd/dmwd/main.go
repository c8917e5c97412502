// Command dmwd is the long-running Distributed MinWork auction service:
// an HTTP/JSON daemon that executes many mechanism runs against shared
// group parameters, with a bounded admission queue, a worker pool,
// TTL-evicted results, and graceful drain on SIGINT/SIGTERM. Boot builds
// the group's fixed-base and joint tables from the parameters
// (dmwd_table_build_seconds reports the cost).
//
// Usage:
//
//	dmwd [-addr :7700] [-preset Demo128 | -params file.json]
//	     [-queue 64] [-workers n] [-auction-parallel k]
//	     [-ttl 15m] [-max-n 64] [-max-m 64] [-q]
//	     [-data-dir dir] [-fsync always|interval|never]
//	     [-fsync-interval 100ms]
//	     [-tenants tenants.json]
//	     [-slo 'p99<250ms@30d'] [-slow-threshold 0]
//	     [-join http://gw:7800] [-advertise http://host:7700]
//	     [-member-name name] [-member-weight 1]
//	     [-pprof-addr 127.0.0.1:6060]
//	     [-log-level info] [-log-format text|json] [-addr-file path]
//
// With -join, the daemon becomes an elastic fleet member: it acquires a
// renewable lease from every listed dmwgw gateway, each of which places
// it on its routing ring automatically (no gateway config edit or
// restart), and every heartbeat's grant installs the fleet view that
// drives the replicated results tier — terminal job records are pushed
// to ring successors so reads of acknowledged jobs survive resizes and
// owner death. On SIGTERM the daemon drains, hands its records to the
// survivors, and releases its lease. See docs/SCALING.md.
//
// Logs are structured (log/slog): -log-format json emits one JSON
// object per line for machine consumption, each carrying the
// request's X-Request-Id correlation ID where one applies. -addr-file
// writes the bound listen address (useful with -addr :0) for scripts
// and the obs-smoke harness. See docs/OBSERVABILITY.md.
//
// With -data-dir, job lifecycle records are written through a
// CRC-framed write-ahead log before they are acknowledged, and a
// restart (even after kill -9) replays the journal: completed results
// come back with their original TTL clocks and jobs that were queued or
// running are re-enqueued and re-run. A segment is deleted once every
// record in it (and in every older one) has been superseded or has
// expired. Without it the store is purely in-memory, exactly as before.
//
// Quickstart:
//
//	dmwd -data-dir ./data &
//	curl -s localhost:7700/v1/jobs -d '{"random":{"agents":6,"tasks":3},"seed":42}'
//	curl -s localhost:7700/v1/jobs/<id>?wait=10s
//	curl -s localhost:7700/metrics
//
// See docs/SERVER.md for the full API and docs/DURABILITY.md for the
// journal format, fsync trade-offs, and the recovery runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmw"
	"dmw/internal/group"
	"dmw/internal/membership"
	"dmw/internal/obs"
	"dmw/internal/pprofserve"
	"dmw/internal/replica"
	"dmw/internal/server"
	"dmw/internal/slo"
	"dmw/internal/tenant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmwd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":7700", "HTTP listen address")
		preset   = flag.String("preset", dmw.PresetDemo128, "group parameter preset")
		pfile    = flag.String("params", "", "JSON parameter file (overrides -preset; see dmwparams)")
		queue    = flag.Int("queue", 64, "admission queue depth (backpressure bound)")
		workers  = flag.Int("workers", 2, "job-level worker pool size")
		auctPar  = flag.Int("auction-parallel", 0, "per-job auction parallelism cap (0 = GOMAXPROCS/workers)")
		ttl      = flag.Duration("ttl", 15*time.Minute, "result retention before eviction")
		maxN     = flag.Int("max-n", 64, "maximum agents per job (0 = unlimited)")
		maxM     = flag.Int("max-m", 64, "maximum tasks per job (0 = unlimited)")
		drainFor = flag.Duration("drain-timeout", time.Minute, "maximum time to wait for in-flight jobs on shutdown")
		quiet    = flag.Bool("q", false, "suppress lifecycle logs")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off); see docs/PERFORMANCE.md")

		logLevel  = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
		logFormat = flag.String("log-format", obs.LogFormatText, "log output format: text | json; see docs/OBSERVABILITY.md")
		addrFile  = flag.String("addr-file", "", "write the bound listen address to this file (use with -addr :0)")

		dataDir  = flag.String("data-dir", "", "enable durable persistence: a segmented WAL in this directory, dead segments deleted as their records expire (empty = in-memory)")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
		fsyncInt = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync interval")

		tenantsFile = flag.String("tenants", "", "per-tenant limits JSON (rate/burst/quota/weight); empty = single unlimited default tenant; see docs/TENANCY.md")

		sloSpec = flag.String("slo", "", "comma-separated latency objectives, e.g. 'p99<250ms@30d,p999<2s@30d'; burn-rate gauges on /metrics, verdicts on /healthz; see docs/OBSERVABILITY.md")
		slowThr = flag.Duration("slow-threshold", 0, "force trace capture and log slow_request for jobs queued longer than this (0 = off)")

		join         = flag.String("join", "", "comma-separated dmwgw base URLs; the daemon leases fleet membership from every one (empty = static deployment); see docs/SCALING.md")
		advertise    = flag.String("advertise", "", "base URL peers and the gateway reach this daemon at (default http://<bound addr>, with unspecified hosts rewritten to 127.0.0.1)")
		memberName   = flag.String("member-name", "", "fleet member name for the lease (default: the replica ID, stable across restarts with -data-dir)")
		memberWeight = flag.Int("member-weight", 1, "relative ring weight of this member (capacity hint)")
	)
	flag.Parse()

	slogger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *quiet {
		slogger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	slogger = slogger.With("component", "dmwd")
	// Legacy printf-style lifecycle lines flow through the same handler
	// (and the same -log-format) as the structured events.
	logf := obs.Logf(slogger)

	cfg := server.Config{
		Preset:             *preset,
		QueueDepth:         *queue,
		Workers:            *workers,
		AuctionParallelism: *auctPar,
		ResultTTL:          *ttl,
		Limits:             server.Limits{MaxAgents: *maxN, MaxTasks: *maxM},
		Logger:             slogger,
		DataDir:            *dataDir,
		Fsync:              *fsync,
		FsyncInterval:      *fsyncInt,
		SlowThreshold:      *slowThr,
	}
	if *sloSpec != "" {
		objectives, err := slo.Parse(*sloSpec)
		if err != nil {
			return fmt.Errorf("parsing -slo: %w", err)
		}
		cfg.SLOs = objectives
	}
	if *pfile != "" {
		params, err := group.ResolveParams(*pfile, "", func(path string) (io.ReadCloser, error) {
			return os.Open(path)
		})
		if err != nil {
			return err
		}
		cfg.Params = params
	}
	if *tenantsFile != "" {
		tc, err := tenant.LoadFile(*tenantsFile)
		if err != nil {
			return err
		}
		cfg.Tenants = tc
	}

	_, stopPprof, err := pprofserve.Start(*pprofAddr, logf)
	if err != nil {
		return fmt.Errorf("starting pprof server: %w", err)
	}
	defer stopPprof()

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if replayed, recoveries := srv.RecoveryStats(); recoveries > 0 {
		logf("recovered %d jobs from %s (see /healthz journal section for details)", replayed, *dataDir)
	}
	srv.Start()

	// Listen explicitly (rather than ListenAndServe) so the bound
	// address is known before serving: -addr :0 plus -addr-file is how
	// scripts and the obs-smoke harness boot a daemon on a free port and
	// find it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Elastic membership: lease a ring slot from every gateway and feed
	// every grant's peer list into the replica tier. Started only after
	// the listener is bound, so the advertised URL is always reachable
	// by the time the gateway routes to it.
	var agent *membership.Agent
	if *join != "" {
		name := *memberName
		if name == "" {
			name = srv.ReplicaID()
		}
		selfURL := *advertise
		if selfURL == "" {
			selfURL = defaultAdvertise(ln.Addr())
		}
		agent, err = membership.NewAgent(membership.AgentConfig{
			Gateways: splitGateways(*join),
			Name:     name,
			URL:      selfURL,
			Weight:   *memberWeight,
			Logf:     logf,
			OnGrant: func(gr membership.LeaseGrant) {
				peers := make([]replica.Peer, len(gr.Peers))
				for i, p := range gr.Peers {
					peers[i] = replica.Peer{Name: p.Name, URL: p.URL, Weight: p.Weight}
				}
				srv.ApplyFleetView(replica.View{
					Epoch:       gr.Epoch,
					Self:        name,
					Replication: gr.Replication,
					Peers:       peers,
				})
			},
		})
		if err != nil {
			return fmt.Errorf("membership: %w", err)
		}
		logf("membership: leasing as %q (%s) from %s", name, selfURL, *join)
		agent.Start()
	}

	errCh := make(chan error, 1)
	go func() {
		logf("listening on %s", ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logf("received %s: draining (max %s)", sig, *drainFor)
	}

	// Drain: stop admitting (503), finish queued and in-flight jobs,
	// then stop serving. The HTTP server stays up through the drain so
	// clients can still poll results of accepted jobs.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("drain incomplete: %v", err)
	}
	// Release the lease only AFTER the drain: the member stays on the
	// ring while it finishes work and hands its records to successors,
	// then leaves gracefully (the gateway bumps the ring epoch).
	if agent != nil {
		agent.Stop()
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logf("bye")
	return nil
}

// splitGateways parses the -join list (comma-separated, blanks ignored).
func splitGateways(s string) []string {
	var out []string
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			out = append(out, g)
		}
	}
	return out
}

// defaultAdvertise derives a reachable base URL from the bound listen
// address: an unspecified host (-addr :7700 binds [::] or 0.0.0.0) is
// rewritten to 127.0.0.1 — correct for single-host fleets; multi-host
// deployments pass -advertise explicitly.
func defaultAdvertise(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
