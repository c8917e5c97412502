# Development targets; CI runs build + vet + test-race + test-386 + test-engine +
# bench-smoke + bench-harness + fuzz-smoke (see .github/workflows/ci.yml).

GO ?= go
# VERSION is stamped into every binary via -ldflags (dmwd/dmwgw expose
# it as the *_build_info metric and in GET /healthz). git describe when
# available, "dev" otherwise — same default the unstamped var carries.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X dmw/internal/obs.Version=$(VERSION)"
# FUZZTIME bounds each fuzzer in fuzz-smoke; long campaigns are run
# manually with `go test -fuzz <Target> <pkg>`.
FUZZTIME ?= 3s

.PHONY: all build bin vet test test-386 test-engine test-race test-server e2e-shard e2e-tenant e2e-elastic obs-smoke latency-smoke bench-smoke bench-harness allocs-gate fuzz-smoke ci

all: build vet test

build:
	$(GO) build $(LDFLAGS) ./...

# bin builds the version-stamped daemon + tool binaries into ./bin.
bin:
	$(GO) build $(LDFLAGS) -o bin/ ./cmd/dmwd ./cmd/dmwgw ./cmd/dmwtrace ./cmd/dmwload

# vet runs the standard analyzers everywhere, plus the shadow analyzer
# when its external binary is installed (it is not part of the base
# toolchain, so its absence is a skip, not a failure):
#   go install golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@latest
vet:
	$(GO) vet ./...
	@if command -v shadow >/dev/null 2>&1; then \
		echo "$(GO) vet -vettool=$$(command -v shadow) ./..."; \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "shadow analyzer not installed; skipping strict vet pass"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# test-386 runs the modular arithmetic, and the packages that carve
# big.Ints out of word slabs, on a 32-bit target: big.Word is then 32
# bits wide, the word conversions between big.Int and the Montgomery
# kernels' uint64 limbs take their separate 32-bit path, and a slab
# element holds twice as many words.
test-386:
	GOARCH=386 $(GO) test ./internal/field ./internal/group ./internal/mont \
		./internal/poly ./internal/bidcode ./internal/commit ./internal/dmw

# test-engine races the protocol engine's concurrency: parallel lockstep
# auctions (each stepping its agents on one goroutine and owning its
# lock-free public-work cache: eq. (11)/(13) verdicts, resolutions,
# winner) beside the coalescer, which may verify one auction's shares
# on another auction's goroutine; batched coalescer passes against
# concurrent jobs; and the TCP relay's transport.Round
# under its lock, at one and four CPUs, three times over. It covers the
# driver-equivalence table (lockstep Run vs blocking sessions), the
# shared-verdict table, replay from a seed, the goroutine gate, the
# round-rule table and the relay sessions.
test-engine:
	$(GO) test -race -count=3 -cpu 1,4 -run 'Driver|SessionsMatchMonolithicRun|PublicVerdicts|Replay|Determinism|Coalescer|NoAgentGoroutines|TestRound|OverTCP|RefusedHello' ./internal/dmw ./internal/commit ./internal/transport ./internal/relaynet

# The tier the dmwd acceptance criteria name explicitly.
test-server:
	$(GO) test -race ./internal/server ./internal/dmw

# e2e-shard is the sharded-fleet acceptance scenario: two REAL dmwd
# replica processes (journal-backed, flocked data dirs) behind an
# in-process dmwgw, one replica SIGKILLed mid-load, zero accepted-job
# loss after restart. Runs under -race; CI runs this on every push.
e2e-shard:
	$(GO) test -race -run 'TestFailoverKillNineZeroLoss' -v -count=1 ./internal/gateway

# e2e-tenant is the multi-tenant acceptance scenario: two REAL dmwd
# replicas loaded with a tenants config behind an in-process dmwgw. A
# burst tenant overdrives its quota and degrades to per-tenant 429s
# (with derived Retry-After and X-Admission-Price) while a steady
# tenant keeps being admitted; one gateway SSE firehose stays open
# across a replica SIGKILL and still delivers the survivor's events;
# the fleet /metrics scrape sums the per-tenant counters. See
# docs/TENANCY.md. Runs under -race; CI runs this on every push.
e2e-tenant:
	$(GO) test -race -run 'TestE2ETenantIsolationAndStreamSurvival' -v -count=1 ./internal/gateway

# e2e-elastic is the elastic-fleet acceptance scenario: a lease-only
# gateway (zero static backends) grows a journal-backed fleet of REAL
# dmwd child processes 2 -> 6 and shrinks it back to 3 under sustained
# mixed load — all through membership leases, no gateway config edits
# or restarts. Asserts zero acknowledged-job loss and that reads of
# acknowledged jobs never 502 mid-resize; the companion kill -9 test
# pins that acknowledged transcripts survive owner death (replica copy
# first, WAL recovery second). See docs/SCALING.md. Runs under -race;
# CI runs this on every push.
e2e-elastic:
	$(GO) test -race -run 'TestE2EElastic' -v -count=1 ./internal/gateway

# obs-smoke boots a REAL dmwd process (JSON logs, -addr :0), submits a
# traced job over HTTP, asserts the trace endpoint serves at least one
# span per DMW phase, SIGTERMs the daemon, and checks that it exits
# cleanly and that every log line parses as JSON. Runs under -race so a
# leaked shutdown goroutine fails loudly; CI runs this on every push.
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke' -v -count=1 ./cmd/dmwd

# latency-smoke is the tail-latency acceptance gate: a short open-loop
# dmwload run (coordinated-omission-free arrival ladder) against a
# 2-replica in-process dmwgw fleet. Asserts the report parses with
# finite p50/p99/p999, the dmwd_slo_*/dmwgw_slo_* burn-rate gauges are
# live on the fleet exposition, and at least one tail exemplar from
# /metrics resolves to a fetchable /v1/jobs/{id}/trace. Runs under
# -race; CI runs this on every push. See docs/PERFORMANCE.md.
latency-smoke:
	$(GO) test -race -run 'TestLatencySmoke' -v -count=1 ./cmd/dmwload

# allocs-gate enforces the allocation budgets on the hot paths (batched
# share verification, commit.New, pseudonym powers, wire codec, the
# in-place scalar kernel, the group's MulInto and multi-exponentiation,
# bid encoding with share dealing, share evaluation, interpolation, a
# whole dmw.Run at the benchmark's proto-small shape, and the server's own
# per-job work around the run: one Submit and one terminal transition at
# the fleet-submit shape). The Phase II gates and the powers gate count
# per call, independent of sigma, so a per-coefficient allocation fails
# them at once.
# Runs WITHOUT -race: the race detector's instrumentation allocates, so
# the budget tests skip themselves under it (see race_on_test.go in each
# package). CI runs this on every push, next to the e2e and smoke gates.
allocs-gate:
	$(GO) test -run 'TestAllocBudget' -count=1 -v ./internal/commit ./internal/wire ./internal/gateway \
		./internal/field ./internal/group ./internal/poly ./internal/bidcode ./internal/dmw ./internal/server

# bench-harness vets and tests the benchmark harness; measuring is
# `bash benchmark/run.sh --workload <name>` (see benchmark/README.md).
# benchmark/ is its own module (dmw/benchmark, replace dmw => ../), so
# `go build ./...` and `go test ./...` at the root never compile it; a
# product change that breaks an API the harness imports would otherwise
# surface only when the benchmark is next run.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test .

# bench-smoke compiles and runs every benchmark exactly once so the
# benchmark code cannot bit-rot; CI runs this on every push. The root
# package is included for the end-to-end server/gateway series.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/... .

# fuzz-smoke runs every fuzz target for a few seconds each (seed corpus
# plus a short mutation burst) so the fuzzers cannot bit-rot; CI runs
# this on every push. Go allows one -fuzz pattern per invocation, hence
# one line per target. FuzzRecover opens a journal over arbitrary
# segment bytes: the data dir is input from outside the program.
# FuzzDecodeRecord feeds arbitrary bytes to dmwd's one job-record
# decoder (WAL entries and replica payloads are input from outside the
# program too). FuzzResolveDegree checks the bisecting degree resolver
# against the ascending-scan oracle; FuzzMontMul checks the fixed-width
# Montgomery kernels against the generic loop and big.Int.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run xxx -fuzz FuzzJobFrameRoundTrip -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run xxx -fuzz FuzzMultiExp -fuzztime $(FUZZTIME) ./internal/group
	$(GO) test -run xxx -fuzz FuzzMontMul -fuzztime $(FUZZTIME) ./internal/mont
	$(GO) test -run xxx -fuzz FuzzResolveDegree -fuzztime $(FUZZTIME) ./internal/commit
	$(GO) test -run xxx -fuzz FuzzRecordRoundTrip -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run xxx -fuzz FuzzRecover -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run xxx -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/server

ci: build vet test-race test-386 test-engine e2e-shard e2e-tenant e2e-elastic obs-smoke latency-smoke allocs-gate bench-smoke bench-harness fuzz-smoke
