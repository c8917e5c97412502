// Command dmwgw is the stateless gateway that scales dmwd horizontally:
// it fronts a fleet of dmwd replicas behind one address, placing every
// job on a consistent-hash ring keyed by job ID, failing submissions
// over to ring successors when a replica is down, scattering batches
// along placement, and aggregating fleet metrics.
//
// Usage:
//
//	dmwgw -addr :7800 \
//	      -backend a,http://127.0.0.1:7700 \
//	      -backend b,http://127.0.0.1:7701,2 \
//	      [-vnodes 128] [-max-inflight 256]
//	      [-health-interval 1s] [-health-timeout 2s]
//	      [-fail-after 2] [-recover-after 2]
//	      [-lease-ttl 10s] [-replication 2] [-addr-file path]
//	      [-request-timeout 60s] [-pprof-addr addr] [-q]
//	      [-slo 'p99<250ms@30d'] [-slow-threshold 0]
//	      [-log-level info] [-log-format text|json]
//
// Backends join in two ways: statically via -backend flags — a lease
// that never expires — or elastically by leasing membership (dmwd -join
// http://this-gateway). Leased members are placed on the ring the
// moment their lease is granted and removed when they release it or let
// it expire (-lease-ttl bounds how long a silent member stays
// routable); every membership change bumps the ring epoch exposed on
// /healthz and /metrics. One rule covers every name: a lease renewal
// re-points it, a release removes it. A gateway may start with zero
// static backends and grow entirely from leases. -replication is the R
// factor granted to members for the replicated results tier. See
// docs/SCALING.md.
//
// Logs are structured (log/slog); -log-format json emits one JSON
// object per line. Every proxied request carries an X-Request-Id
// correlation ID — adopted from the client or minted here — that the
// gateway forwards to the replica, so one grep joins the gateway's
// access/failover lines with the replica's job lifecycle lines. See
// docs/OBSERVABILITY.md.
//
// Each -backend is "name,url[,weight]". The name is the replica's ring
// identity: keep it stable across restarts and address changes so the
// keyspace does not reshuffle. Weight scales the keyspace share for
// heterogeneous replicas.
//
// The gateway holds no durable state: jobs live in the replicas and
// their WALs. Its one piece of soft state is the lease table. Members
// renew with every gateway on their -join list, so any gateway holds
// the full ring; a restarted one routes to its static -backend list at
// once and to leased members after their next renewal (at most a third
// of -lease-ttl), answering 503 with Retry-After until then. See
// docs/SCALING.md for topology, gateway redundancy, failover semantics,
// and how placement interacts with per-replica WALs.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmw/internal/gateway"
	"dmw/internal/obs"
	"dmw/internal/pprofserve"
	"dmw/internal/slo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmwgw:", err)
		os.Exit(1)
	}
}

// parseBackend parses "name,url[,weight]".
func parseBackend(spec string) (gateway.Backend, error) {
	parts := strings.Split(spec, ",")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return gateway.Backend{}, fmt.Errorf("backend %q: want name,url[,weight]", spec)
	}
	b := gateway.Backend{Name: parts[0], URL: parts[1], Weight: 1}
	if len(parts) == 3 {
		w, err := strconv.Atoi(parts[2])
		if err != nil || w < 1 {
			return gateway.Backend{}, fmt.Errorf("backend %q: weight must be a positive integer", spec)
		}
		b.Weight = w
	}
	return b, nil
}

func run() error {
	var backends []gateway.Backend
	var parseErr error
	flag.Func("backend", "dmwd replica as name,url[,weight] (repeatable)", func(spec string) error {
		b, err := parseBackend(spec)
		if err != nil {
			parseErr = err
			return err
		}
		backends = append(backends, b)
		return nil
	})
	var (
		addr       = flag.String("addr", ":7800", "HTTP listen address")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per unit weight on the ring (0 = default)")
		maxInFl    = flag.Int("max-inflight", 256, "max concurrent proxied requests per backend")
		healthInt  = flag.Duration("health-interval", time.Second, "active /healthz probe period")
		healthTO   = flag.Duration("health-timeout", 2*time.Second, "per-probe timeout")
		failAfter  = flag.Int("fail-after", 2, "consecutive probe failures before ring ejection")
		recovAfter = flag.Int("recover-after", 2, "consecutive probe successes before re-admission")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "membership lease lifetime; members renew at a fraction of it")
		replFactor = flag.Int("replication", 2, "replication factor R granted to leased members (owner + R-1 copies)")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file (use with -addr :0)")
		reqTO      = flag.Duration("request-timeout", time.Minute, "per-attempt proxy timeout")
		streamTO   = flag.Duration("stream-timeout", 15*time.Minute, "relayed SSE stream lifetime bound (negative = unbounded)")
		sloSpec    = flag.String("slo", "", "comma-separated latency objectives over fleet-wide backend latency, e.g. 'p99<250ms@30d'; see docs/OBSERVABILITY.md")
		slowThr    = flag.Duration("slow-threshold", 0, "log slow_request for proxied attempts slower than this (0 = off)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off); see docs/PERFORMANCE.md")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
		logFormat  = flag.String("log-format", obs.LogFormatText, "log output format: text | json; see docs/OBSERVABILITY.md")
		quiet      = flag.Bool("q", false, "suppress lifecycle logs")
	)
	flag.Parse()
	if parseErr != nil {
		return parseErr
	}
	// Zero static backends is a valid elastic deployment: the fleet
	// grows entirely from membership leases (dmwd -join).

	slogger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *quiet {
		slogger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	slogger = slogger.With("component", "dmwgw")
	logf := obs.Logf(slogger)

	_, stopPprof, err := pprofserve.Start(*pprofAddr, logf)
	if err != nil {
		return fmt.Errorf("starting pprof server: %w", err)
	}
	defer stopPprof()

	var objectives []slo.Objective
	if *sloSpec != "" {
		objectives, err = slo.Parse(*sloSpec)
		if err != nil {
			return fmt.Errorf("parsing -slo: %w", err)
		}
	}

	g, err := gateway.New(gateway.Config{
		Backends:       backends,
		VirtualNodes:   *vnodes,
		MaxInFlight:    *maxInFl,
		HealthInterval: *healthInt,
		HealthTimeout:  *healthTO,
		FailAfter:      *failAfter,
		RecoverAfter:   *recovAfter,
		RequestTimeout: *reqTO,
		StreamTimeout:  *streamTO,
		LeaseTTL:       *leaseTTL,
		Replication:    *replFactor,
		SLOs:           objectives,
		SlowThreshold:  *slowThr,
		Logger:         slogger,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	// Listen explicitly so the bound address is known before serving
	// (-addr :0 plus -addr-file boots on a free port for harnesses).
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
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logf("routing %d static backends (leases welcome), listening on %s", len(backends), ln.Addr())
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
		logf("received %s: shutting down", sig)
	}
	// The gateway is stateless: stopping new connections and letting
	// in-flight proxies finish is the whole drain.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logf("bye")
	return nil
}
