package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/runtimestats"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestObservabilityScrape stands up the platformd handler over a world
// that has run one milking round and deployed a countermeasure, then
// scrapes it like a monitoring stack would: /metrics must expose every
// required family, /debug/traces must show the like pipeline, and the
// pprof index must answer.
func TestObservabilityScrape(t *testing.T) {
	s, err := core.NewStudy(workload.Options{
		Scale:      5000,
		MinMembers: 60,
		Networks:   []string{"mg-likers.com"},
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror main()'s daemon wiring: runtime families on the platform
	// registry, one sample so the sampler-fed gauges have data. Measure
	// every eligible alloc window so the per-op gauges are guaranteed to
	// materialize from a single round.
	sampler := runtimestats.Register(s.Scenario.Platform.Obs.M(), simclock.Real{})
	s.Scenario.Platform.Obs.A().SetSampleEvery(1)
	if res := s.MilkNetwork("mg-likers.com"); res.Err != nil {
		t.Fatal(res.Err)
	}
	s.Countermeasures().SetTokenRateLimit(10, time.Hour)
	runtime.GC() // guarantee >= 1 pause so the GC histogram has series
	sampler.Sample()

	srv := httptest.NewServer(buildHandler(s.Scenario.Platform))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// One request through the instrumented API handler, so the HTTP
	// middleware families have data (the in-process milking round above
	// used the local client, which bypasses HTTP).
	get("/me?access_token=bogus")

	_, metricsBody := get("/metrics")
	for _, want := range []string{
		`graphapi_requests_total{platform="facebook",op="like",code="0"}`,
		`graphapi_request_seconds_bucket{platform="facebook",op="like",le="+Inf"}`,
		`graphapi_http_requests_total{endpoint="/me",status=`,
		`collusion_likes_delivered_total{network="mg-likers.com"}`,
		`oauth_tokens_issued_total`,
		`oauth_tokens_invalidated_total`,
		`defense_actions_total{countermeasure="token-rate-limit",action="deploy"} 1`,
		`socialgraph_shard_lock_total{shard="0",outcome=`,
		`runtime_goroutines`,
		`runtime_heap_alloc_bytes`,
		`runtime_gc_pause_seconds_bucket`,
		`runtime_sched_latency_seconds{quantile="0.99"}`,
		`allocs_per_op{platform="facebook",op="graphapi.like_batch"}`,
		`allocs_per_op{platform="facebook",op="defense.chain"}`,
		`allocs_per_op{platform="facebook",op="shard.apply"}`,
		`allocs_per_op{platform="facebook",op="milk.round"}`,
		`traces_dropped_total`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	_, tracesBody := get("/debug/traces")
	// Delivery batches by default, so the burst's traced chunk roots at
	// graphapi.like_batch; the per-op like series above still prove the
	// batched path records op="like" metrics exactly.
	for _, want := range []string{"collusion.deliver", "graphapi.like_batch", "oauth.validate", "shard.apply", "milk.round"} {
		if !strings.Contains(tracesBody, `"name":"`+want+`"`) {
			t.Errorf("/debug/traces missing span %q", want)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
}

// TestMultiProviderMounts stands up the multi-provider handler and drives
// the non-default provider through its prefix: the code-flow dialog, the
// token exchange, a like, and the per-platform metrics surface.
func TestMultiProviderMounts(t *testing.T) {
	internet := netsim.NewInternet()
	if err := internet.RegisterAS(netsim.AS{Number: 65000, Name: "GENERIC-HOSTING", Country: "US"}, "192.168.0.0/16"); err != nil {
		t.Fatal(err)
	}
	fb := platform.NewWithConfig(simclock.Real{}, internet, platform.Config{Provider: provider.MustGet("facebook")})
	pg := platform.NewWithConfig(simclock.Real{}, internet, platform.Config{Provider: provider.MustGet("pictogram")})
	srv := httptest.NewServer(buildMultiHandler(fb, pg))
	defer srv.Close()

	app := pg.Apps.RegisterUnreviewed(apps.Config{
		Name:        "Demo Companion",
		RedirectURI: "https://demo-companion.example/callback",
		Lifetime:    apps.LongTerm,
		Permissions: []string{pg.Provider.ScopePublish()},
	})
	acct := pg.Graph.CreateAccount("pg-demo", "IN", time.Now())

	client := platform.NewHTTPClientFor(provider.MustGet("pictogram"), srv.URL+"/pictogram")
	code, err := client.AuthorizeCode(app.ID, app.RedirectURI, acct.ID, []string{pg.Provider.ScopePublish()})
	if err != nil {
		t.Fatalf("AuthorizeCode: %v", err)
	}
	tok, err := client.ExchangeCode(app.ID, app.Secret, app.RedirectURI, code)
	if err != nil {
		t.Fatalf("ExchangeCode: %v", err)
	}
	if !strings.HasPrefix(tok, "PTGR.") {
		t.Fatalf("pictogram token %q lacks provider format", tok)
	}
	post, err := client.Publish(tok, "hello from B", "192.168.0.9")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := client.Like(tok, post, "192.168.0.9"); err != nil {
		t.Fatalf("Like: %v", err)
	}

	// The implicit flow must be refused: pictogram is code-flow only.
	if _, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID, []string{pg.Provider.ScopePublish()}); err == nil {
		t.Fatal("implicit flow succeeded on a code-flow-only provider")
	}

	resp, err := http.Get(srv.URL + "/pictogram/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `graphapi_requests_total{platform="pictogram",op="like",code="0"}`; !strings.Contains(string(body), want) {
		t.Errorf("/pictogram/metrics missing %q", want)
	}
}

// TestServerHeaderTimeout: the daemon's server stops waiting for a
// client's headers after obs.ReadHeaderTimeout.
func TestServerHeaderTimeout(t *testing.T) {
	p := platform.NewWithConfig(simclock.Real{}, netsim.NewInternet(), platform.Config{Provider: provider.MustGet("facebook")})
	srv := newServer("127.0.0.1:0", p)
	if srv.ReadHeaderTimeout != obs.ReadHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, obs.ReadHeaderTimeout)
	}
}
