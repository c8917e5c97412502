package server

import (
	"bytes"

	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmw/internal/group"
)

// cacheConfig is testConfig plus a -params-cache path and a log
// capture, so tests can assert both the boot path taken and that
// fallbacks are LOUD.
func cacheConfig(t *testing.T, path string) (Config, *strings.Builder) {
	t.Helper()
	var logs strings.Builder
	cfg := testConfig()
	cfg.ParamsCache = path
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	return cfg, &logs
}

// TestParamsCacheColdThenWarmBoot: the first boot against an absent
// artifact builds the tables and WRITES the artifact; the second boot
// loads it, reports BuiltFromArtifact, and computes identical results.
func TestParamsCacheColdThenWarmBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "params.tbl")

	cfg, logs := cacheConfig(t, path)
	cold := startServer(t, cfg)
	if cold.paramsCacheLoaded {
		t.Error("cold boot claims it loaded the artifact")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold boot did not write the artifact: %v\nlogs:\n%s", err, logs)
	}
	if cold.grp.TableBuildTime() <= 0 {
		t.Error("cold boot reports no table build time")
	}

	warmCfg, warmLogs := cacheConfig(t, path)
	warm := startServer(t, warmCfg)
	if !warm.paramsCacheLoaded {
		t.Fatalf("warm boot did not load the artifact\nlogs:\n%s", warmLogs)
	}
	if !warm.grp.BuiltFromArtifact() {
		t.Error("warm group does not report BuiltFromArtifact")
	}
	// No load-vs-build timing comparison here: at the one-word Test64
	// preset the build is a few hundred microseconds, cheaper than the
	// load's own spot-check exponentiations. The win the tier exists
	// for scales with the modulus (see docs/PERFORMANCE.md); what this
	// test pins is the PATH taken, which BuiltFromArtifact reports.
	if load := warm.grp.TableBuildTime(); load <= 0 || load > time.Second {
		t.Errorf("warm load time %v, want small positive", load)
	}

	// The warm server must produce exactly the reference results.
	spec := JobSpec{Random: &RandomSpec{Agents: 5, Tasks: 2}, W: []int{1, 2, 3}, C: 0, Seed: 4242}
	job, err := warm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesDirectRun(t, waitTerminal(t, warm, job.ID, 30*time.Second))
}

// TestParamsCacheCorruptArtifactRebuildsLoudly: a flipped byte must not
// take the server down OR boot it on bad tables — it rebuilds from
// parameters, says so in the log, and rewrites the artifact so the NEXT
// boot is warm again.
func TestParamsCacheCorruptArtifactRebuildsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "params.tbl")

	cfg, _ := cacheConfig(t, path)
	startServer(t, cfg) // seed a valid artifact

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2, logs := cacheConfig(t, path)
	s := startServer(t, cfg2)
	if s.paramsCacheLoaded {
		t.Fatal("server claims it loaded a corrupt artifact")
	}
	if !strings.Contains(logs.String(), "params-cache") {
		t.Errorf("corrupt-artifact fallback not logged:\n%s", logs)
	}

	// The rewrite must leave a loadable artifact behind.
	cfg3, logs3 := cacheConfig(t, path)
	s3 := startServer(t, cfg3)
	if !s3.paramsCacheLoaded {
		t.Fatalf("rewritten artifact did not load\nlogs:\n%s", logs3)
	}
}

// TestParamsCacheWrongParamsRebuilds: an artifact from a DIFFERENT
// parameter set is structurally valid but must be rejected by the
// params comparison, again loudly and with a rewrite.
func TestParamsCacheWrongParamsRebuilds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "params.tbl")
	other := group.MustNew(group.MustPreset(group.PresetDemo128))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := group.SaveTables(f, other); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg, logs := cacheConfig(t, path) // Test64 server, Demo128 artifact
	s := startServer(t, cfg)
	if s.paramsCacheLoaded {
		t.Fatal("server adopted an artifact for different parameters")
	}
	if !strings.Contains(logs.String(), "params-cache") {
		t.Errorf("wrong-params fallback not logged:\n%s", logs)
	}
	if !s.grp.Params().Equal(group.MustPreset(group.PresetTest64)) {
		t.Error("rebuilt group is not on the configured preset")
	}
}

// TestParamsCacheEndpointServesLoadableArtifact: GET /v1/params-cache
// streams bytes a joining replica can boot from directly.
func TestParamsCacheEndpointServesLoadableArtifact(t *testing.T) {
	s, ts := startHTTP(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/params-cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := group.LoadTables(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("served artifact does not load: %v", err)
	}
	if !loaded.Params().Equal(s.grp.Params()) {
		t.Error("served artifact carries different parameters")
	}
}

// TestHealthzReportsTableBuild: the health view carries the boot-cost
// observability fields.
func TestHealthzReportsTableBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "params.tbl")
	cfg, _ := cacheConfig(t, path)
	startServer(t, cfg) // write artifact

	warmCfg, _ := cacheConfig(t, path)
	_, ts := startHTTP(t, warmCfg)
	var hv struct {
		TableBuildSeconds float64 `json:"table_build_seconds"`
		ParamsCacheLoaded bool    `json:"params_cache_loaded"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hv); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if !hv.ParamsCacheLoaded {
		t.Error("healthz does not report params_cache_loaded")
	}
	if hv.TableBuildSeconds <= 0 || hv.TableBuildSeconds > 1 {
		t.Errorf("table_build_seconds = %v, want small positive load time", hv.TableBuildSeconds)
	}

	// And the Prometheus surface.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"dmwd_table_build_seconds", "dmwd_params_cache_loaded 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
