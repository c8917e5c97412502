package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"dmw/internal/tenant"
)

// probeOutcome is what one submit of the probe spec answered, reduced to
// the fields all four entry points can report.
type probeOutcome struct {
	Status   int      // HTTP status (202/400/429/503)
	JobState JobState // "" when the answer carries no job
	RetrySec int      // Retry-After, 0 when absent
}

// serverSnapshot is everything an admission can leave behind.
type serverSnapshot struct {
	Store                       map[string]JobState
	Accepted, Rejected, Deduped int64
	TenantAdmitted              map[string]int64
	TenantRejected              map[string]map[string]int64
	JournalAppends              uint64
}

func snapshotServer(s *Server) serverSnapshot {
	snap := serverSnapshot{
		Store:          map[string]JobState{},
		Accepted:       s.metrics.accepted.Load(),
		Rejected:       s.metrics.rejected.Load(),
		Deduped:        s.metrics.deduped.Load(),
		TenantAdmitted: map[string]int64{},
		TenantRejected: map[string]map[string]int64{},
	}
	for _, j := range s.store.snapshotJobs() {
		snap.Store[j.ID] = j.State()
	}
	s.metrics.tenantMu.Lock()
	for id, n := range s.metrics.tenantAdmitted {
		snap.TenantAdmitted[id] = n
	}
	for id, byReason := range s.metrics.tenantRejected {
		snap.TenantRejected[id] = map[string]int64{}
		for reason, n := range byReason {
			snap.TenantRejected[id][reason] = n
		}
	}
	s.metrics.tenantMu.Unlock()
	if st, ok := s.JournalStats(); ok {
		snap.JournalAppends = st.Appends
	}
	return snap
}

// beginDrain puts s into the draining state the way Shutdown does,
// without sealing the store — the window in which a draining server
// still journals its refusals.
func beginDrain(s *Server) {
	s.mu.Lock()
	s.draining = true
	s.queue.Close()
	s.mu.Unlock()
}

// TestSubmitIsBatchOfOne pins the tentpole: for every admission outcome
// the same spec leaves the same job state, store contents, counters and
// refusal guidance behind whether it arrives through Submit, through
// SubmitBatch of one, through POST /v1/jobs, or through POST
// /v1/jobs/batch with one item — on the in-memory and on the
// journal-backed store. Servers are never started, so admitted jobs
// stay queued and every figure is deterministic.
func TestSubmitIsBatchOfOne(t *testing.T) {
	probe := fourAgentSpec("p", 7)
	filler := func(id string) JobSpec { return fourAgentSpec(id, 1) }
	mustSubmit := func(t *testing.T, s *Server, spec JobSpec) {
		t.Helper()
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("prep submit %q: %v", spec.ID, err)
		}
	}
	limits := func(l tenant.Limits) tenant.Config {
		return tenant.Config{Default: tenant.Unlimited, Tenants: map[string]tenant.Limits{"t": l}}
	}
	withTenant := func(spec JobSpec) JobSpec { spec.Tenant = "t"; return spec }

	cases := []struct {
		name    string
		tweak   func(*Config)
		prep    func(t *testing.T, s *Server)
		spec    JobSpec
		want    probeOutcome // Retry is compared across paths, not against this
		wantErr error        // what Submit's error must match; nil = no error
		// journalAppends is what the probe alone may add to the WAL.
		journalAppends uint64
	}{
		{
			name: "accepted", spec: probe,
			want: probeOutcome{Status: http.StatusAccepted, JobState: StateQueued}, journalAppends: 1,
		},
		{
			name: "idempotent resubmit of a live ID", spec: probe,
			prep: func(t *testing.T, s *Server) { mustSubmit(t, s, probe) },
			want: probeOutcome{Status: http.StatusAccepted, JobState: StateQueued},
		},
		{
			name: "resubmit over a rejected record", spec: probe,
			tweak: func(c *Config) { c.QueueDepth = 1 },
			prep: func(t *testing.T, s *Server) {
				mustSubmit(t, s, filler("f"))
				if _, err := s.Submit(probe); !errors.Is(err, ErrQueueFull) {
					t.Fatalf("prep: want ErrQueueFull, got %v", err)
				}
				s.queue.Pop() // make room without running anything
			},
			want: probeOutcome{Status: http.StatusAccepted, JobState: StateQueued}, journalAppends: 1,
		},
		{
			name: "invalid spec", spec: JobSpec{ID: "p"},
			want: probeOutcome{Status: http.StatusBadRequest}, wantErr: ErrInvalidSpec,
		},
		{
			name: "429 rate", spec: withTenant(probe),
			tweak: func(c *Config) { c.Tenants = limits(tenant.Limits{Rate: 0.001, Burst: 1, Quota: -1, Weight: 1}) },
			prep:  func(t *testing.T, s *Server) { mustSubmit(t, s, withTenant(filler("f"))) },
			want:  probeOutcome{Status: http.StatusTooManyRequests}, wantErr: ErrRateLimited,
		},
		{
			name: "429 quota", spec: withTenant(probe),
			tweak: func(c *Config) { c.Tenants = limits(tenant.Limits{Quota: 1, Weight: 1}) },
			prep:  func(t *testing.T, s *Server) { mustSubmit(t, s, withTenant(filler("f"))) },
			want:  probeOutcome{Status: http.StatusTooManyRequests}, wantErr: ErrQuotaExceeded,
		},
		{
			name: "503 queue full", spec: probe,
			tweak: func(c *Config) { c.QueueDepth = 1 },
			prep:  func(t *testing.T, s *Server) { mustSubmit(t, s, filler("f")) },
			want:  probeOutcome{Status: http.StatusServiceUnavailable, JobState: StateRejected}, wantErr: ErrQueueFull,
			// Admitted, then bounced off the queue: admission + terminal record.
			journalAppends: 2,
		},
		{
			name: "503 draining", spec: probe,
			prep: func(t *testing.T, s *Server) { beginDrain(s) },
			want: probeOutcome{Status: http.StatusServiceUnavailable, JobState: StateRejected}, wantErr: ErrDraining,
			// ONE terminal record, not an admission followed by a finish.
			journalAppends: 1,
		},
		{
			name: "503 draining outranks an empty token bucket", spec: withTenant(probe),
			// A drain refusal is decided BEFORE the tenant gates: a 503
			// another replica can absorb, never a 429 that charges a token.
			tweak: func(c *Config) { c.Tenants = limits(tenant.Limits{Rate: 0.001, Burst: 1, Quota: -1, Weight: 1}) },
			prep: func(t *testing.T, s *Server) {
				mustSubmit(t, s, withTenant(filler("f")))
				beginDrain(s)
			},
			want: probeOutcome{Status: http.StatusServiceUnavailable, JobState: StateRejected}, wantErr: ErrDraining,
			journalAppends: 1,
		},
		{
			name: "draining resubmit of a live ID", spec: probe,
			prep: func(t *testing.T, s *Server) {
				mustSubmit(t, s, probe)
				beginDrain(s)
			},
			want: probeOutcome{Status: http.StatusAccepted, JobState: StateQueued},
		},
		{
			name: "journal closed", spec: probe,
			// Shutdown of a never-started server seals the store at once;
			// the refusal stays queryable in memory only.
			prep: func(t *testing.T, s *Server) {
				if err := s.Shutdown(testCtx(t)); err != nil {
					t.Fatal(err)
				}
			},
			want: probeOutcome{Status: http.StatusServiceUnavailable, JobState: StateRejected}, wantErr: ErrDraining,
		},
	}

	// The four entry points. Each gets its own twin server per case.
	type entry struct {
		name   string
		submit func(t *testing.T, s *Server, spec JobSpec, wantErr error, wantStatus int) probeOutcome
	}
	fromItem := func(it BatchItem) probeOutcome {
		out := probeOutcome{Status: it.Status, RetrySec: it.RetryAfterSec}
		if it.Job != nil {
			out.JobState = it.Job.State
		}
		return out
	}
	entries := []entry{
		{"Submit", func(t *testing.T, s *Server, spec JobSpec, wantErr error, wantStatus int) probeOutcome {
			job, err := s.Submit(spec)
			if (wantErr == nil) != (err == nil) || !errors.Is(err, wantErr) {
				t.Fatalf("Submit error = %v, want %v", err, wantErr)
			}
			// Submit reports no status; its error class was just checked
			// against the case, so the case's status stands in.
			out := probeOutcome{Status: wantStatus}
			if job != nil {
				out.JobState = job.State()
			}
			var rej *Rejection
			if errors.As(err, &rej) {
				out.RetrySec = retryAfterSecs(rej.RetryAfter)
			}
			return out
		}},
		{"SubmitBatch", func(t *testing.T, s *Server, spec JobSpec, _ error, _ int) probeOutcome {
			return fromItem(s.SubmitBatch([]JobSpec{spec})[0])
		}},
		{"POST /v1/jobs", func(t *testing.T, s *Server, spec JobSpec, _ error, _ int) probeOutcome {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp := postRaw(t, ts.URL+"/v1/jobs", spec)
			defer resp.Body.Close()
			out := probeOutcome{Status: resp.StatusCode}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				out.RetrySec, _ = strconv.Atoi(ra)
			}
			if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusServiceUnavailable {
				var v JobView
				if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
					t.Fatalf("decoding job view: %v", err)
				}
				out.JobState = v.State
			}
			return out
		}},
		{"POST /v1/jobs/batch", func(t *testing.T, s *Server, spec JobSpec, _ error, _ int) probeOutcome {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			status, items, apiErr := postBatch(t, ts, []JobSpec{spec})
			if status != http.StatusOK || len(items) != 1 {
				t.Fatalf("batch envelope: HTTP %d, %d items (%s)", status, len(items), apiErr.Error)
			}
			return fromItem(items[0])
		}},
	}

	for _, store := range []string{"memory", "journal"} {
		for _, tc := range cases {
			t.Run(store+"/"+tc.name, func(t *testing.T) {
				var firstOut probeOutcome
				var firstSnap serverSnapshot
				for i, e := range entries {
					cfg := testConfig()
					if store == "journal" {
						cfg.DataDir = t.TempDir()
						cfg.Fsync = "never"
					}
					if tc.tweak != nil {
						tc.tweak(&cfg)
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Shutdown(testCtx(t))
					if tc.prep != nil {
						tc.prep(t, s)
					}
					before := snapshotServer(s)
					out := e.submit(t, s, tc.spec, tc.wantErr, tc.want.Status)
					snap := snapshotServer(s)

					if out.Status != tc.want.Status || out.JobState != tc.want.JobState {
						t.Errorf("%s: answered %d/%q, want %d/%q", e.name, out.Status, out.JobState, tc.want.Status, tc.want.JobState)
					}
					refused := out.Status == http.StatusTooManyRequests || out.Status == http.StatusServiceUnavailable
					if refused != (out.RetrySec >= 1) {
						t.Errorf("%s: status %d with Retry-After %d; guidance must ride exactly the 429/503 answers", e.name, out.Status, out.RetrySec)
					}
					if store == "journal" {
						if got := snap.JournalAppends - before.JournalAppends; got != tc.journalAppends {
							t.Errorf("%s: probe appended %d WAL records, want %d", e.name, got, tc.journalAppends)
						}
					}
					if i == 0 {
						firstOut, firstSnap = out, snap
						continue
					}
					if out != firstOut {
						t.Errorf("%s answered %+v, %s answered %+v", e.name, out, entries[0].name, firstOut)
					}
					if !reflect.DeepEqual(snap, firstSnap) {
						t.Errorf("%s left\n %+v\n%s left\n %+v", e.name, snap, entries[0].name, firstSnap)
					}
				}
			})
		}
	}
}

// TestReplicaRecordsRejectsJSON pins the one-encoding rule on the
// replication RPC: its only caller is another dmwd sending record
// frames, so a JSON body is a 415 and stores nothing.
func TestReplicaRecordsRejectsJSON(t *testing.T) {
	s, ts := startHTTP(t, testConfig())
	resp := postRaw(t, ts.URL+"/v1/replica/records", []map[string]any{{"id": "x", "payload": map[string]any{}}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON replica push: HTTP %d, want 415", resp.StatusCode)
	}
	if n := s.replStore.Len(); n != 0 {
		t.Errorf("a refused push stored %d records", n)
	}
}
