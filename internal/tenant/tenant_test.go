package tenant

import (
	"strings"
	"testing"
	"time"
)

func TestCleanID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", DefaultTenant},
		{"acme", "acme"},
		{"Team.B_2-x", "Team.B_2-x"},
		{"bad tenant", DefaultTenant},
		{"sneaky\"label", DefaultTenant},
		{strings.Repeat("x", 65), DefaultTenant},
		{strings.Repeat("x", 64), strings.Repeat("x", 64)},
	}
	for _, c := range cases {
		if got := CleanID(c.in); got != c.want {
			t.Errorf("CleanID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`{
		"default": {"rate": 10},
		"tenants": {
			"acme":  {"rate": 50, "burst": 100, "quota": 24, "weight": 3},
			"guest": {"quota": 0}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Rate != 10 || cfg.Default.Burst != 10 {
		t.Errorf("default = %+v, want rate 10 burst 10 (burst defaults from rate)", cfg.Default)
	}
	acme := cfg.Tenants["acme"]
	if acme.Rate != 50 || acme.Burst != 100 || acme.Quota != 24 || acme.Weight != 3 {
		t.Errorf("acme = %+v", acme)
	}
	guest := cfg.Tenants["guest"]
	if guest.Quota != 0 {
		t.Errorf("guest quota = %d, want explicit 0 (shut out)", guest.Quota)
	}
	if guest.Rate != 0 || guest.Weight != 1 {
		t.Errorf("guest omitted fields = %+v, want unlimited rate, weight 1", guest)
	}
}

func TestParseConfigRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		`{"tenants": {"a": {"rate": -1}}}`,
		`{"tenants": {"a": {"weight": 0}}}`,
		`{"tenants": {"bad id": {}}}`,
		`{"tenants": {"a": {"rte": 5}}}`, // typo'd field must not become "unlimited"
	} {
		if _, err := ParseConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseConfig(%s) accepted, want error", bad)
		}
	}
}

func TestBucketRefillAndRetryAfter(t *testing.T) {
	tn := newTenant("a", Limits{Rate: 2, Burst: 2, Quota: -1, Weight: 1})
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := tn.TakeToken(now); !ok {
			t.Fatalf("take %d refused with a full bucket", i)
		}
	}
	ok, wait := tn.TakeToken(now)
	if ok {
		t.Fatal("take succeeded with an empty bucket")
	}
	// Refill is 2 tokens/sec, so one token is 500ms away.
	if wait < 400*time.Millisecond || wait > 600*time.Millisecond {
		t.Errorf("retry-after = %v, want ~500ms", wait)
	}
	if ok, _ := tn.TakeToken(now.Add(600 * time.Millisecond)); !ok {
		t.Error("take refused after the bucket refilled")
	}
}

func TestQuotaReservation(t *testing.T) {
	tn := newTenant("a", Limits{Quota: 2, Weight: 1})
	if !tn.Reserve() || !tn.Reserve() {
		t.Fatal("reservations under quota refused")
	}
	if tn.Reserve() {
		t.Fatal("reservation over quota granted")
	}
	tn.Release()
	if !tn.Reserve() {
		t.Fatal("reservation after release refused")
	}
	zero := newTenant("z", Limits{Quota: 0, Weight: 1})
	if zero.Reserve() {
		t.Fatal("zero-quota tenant reserved a slot")
	}
}

func TestRegistryDynamicTenantsAndDefaults(t *testing.T) {
	r := NewRegistry(Config{
		Default: Limits{Rate: 5, Quota: -1, Weight: 1},
		Tenants: map[string]Limits{"acme": {Rate: 50, Quota: 10, Weight: 3}},
	})
	if got := r.Get("acme").Limits.Weight; got != 3 {
		t.Errorf("acme weight = %d, want 3", got)
	}
	stranger := r.Get("newcomer")
	if stranger.ID != "newcomer" || stranger.Limits.Rate != 5 {
		t.Errorf("dynamic tenant = %+v, want default limits under its own id", stranger)
	}
	if again := r.Get("newcomer"); again != stranger {
		t.Error("second Get created a second tenant")
	}
	if r.Get("") != r.Get(DefaultTenant) {
		t.Error("empty id did not resolve to the default tenant")
	}
}

func TestRegistryZeroConfigIsUnlimited(t *testing.T) {
	r := NewRegistry(Config{})
	tn := r.Get(DefaultTenant)
	if ok, _ := tn.TakeToken(time.Now()); !ok {
		t.Error("unlimited default tenant was rate limited")
	}
	if !tn.Reserve() {
		t.Error("unlimited default tenant was quota limited")
	}
}

func TestRateEstimatorAndRetryAfter(t *testing.T) {
	r := NewRateEstimator(time.Second)
	now := time.Unix(1000, 0)
	// 10 completions/sec for 3 seconds.
	for i := 0; i < 30; i++ {
		r.Tick(now.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	got := r.Rate(now.Add(3 * time.Second))
	if got < 5 || got > 15 {
		t.Errorf("rate = %g, want ~10", got)
	}
	// 20 queued at ~10/sec drains in ~2s.
	ra := RetryAfter(20, got, 4)
	if ra < time.Second || ra > 4*time.Second {
		t.Errorf("RetryAfter = %v, want ~2s", ra)
	}
	// Clamps: never 0, never past a minute; cold estimator falls back
	// to the per-worker guess.
	if RetryAfter(0, 1000, 1) != time.Second {
		t.Error("lower clamp violated")
	}
	if RetryAfter(100000, 0.001, 1) != time.Minute {
		t.Error("upper clamp violated")
	}
	if RetryAfter(8, 0, 4) != 2*time.Second {
		t.Error("cold-estimator fallback != backlog/workers")
	}
	// Silence decays the estimate instead of freezing it.
	if later := r.Rate(now.Add(30 * time.Second)); later > got/2 {
		t.Errorf("rate after 30s silence = %g, want well below %g", later, got)
	}
}
