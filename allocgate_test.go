package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/graphapi"
	"repro/internal/oauthsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// Allocation gates for the two hottest store paths. These are regression
// tripwires, not targets: the bounds carry ~2x headroom over measured
// HEAD so noise and minor refactors pass, while an accidental per-op
// allocation (a closure capture, a map rebuild, fmt in the hot loop)
// fails loudly. CI runs them in the bench-trajectory job alongside
// `repro bench`.

// TestAllocGateAddLikeBatch bounds the per-burst allocation count of the
// store-level batch apply — the collusion delivery hot path. A 50-op
// burst against a warm post must stay O(burst): each like appends one
// edge and one per-account entry, so the budget is a small multiple of
// the burst size, never O(members) or per-op map churn.
func TestAllocGateAddLikeBatch(t *testing.T) {
	const burst = 50
	w := newBenchWorld(t, 1)
	graph := w.p.Graph
	accounts := make([]string, burst)
	for i := range accounts {
		accounts[i] = graph.CreateAccount(fmt.Sprintf("gate-liker-%d", i), "IN", w.clock.Now()).ID
	}
	meta := socialgraph.WriteMeta{SourceIP: "192.0.2.1", At: w.clock.Now()}
	ops := make([]socialgraph.LikeOp, burst)

	allocs := testing.AllocsPerRun(20, func() {
		post, err := graph.CreatePost(w.post.AuthorID, "p", socialgraph.WriteMeta{At: w.clock.Now()})
		if err != nil {
			t.Fatal(err)
		}
		for j, acct := range accounts {
			ops[j] = socialgraph.LikeOp{AccountID: acct, ObjectID: post.ID, Meta: meta}
		}
		errs := make([]error, len(ops))
		graph.AddLikeBatchInto(ops, errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("CreatePost+AddLikeBatchInto(%d ops): %.0f allocs/run", burst, allocs)
	// Measured at HEAD: ~35 allocs for CreatePost + 50 likes (<1/like —
	// edges append into pre-grown slices). Gate at 128: amortized slice
	// growth passes, anything per-op (~50+ new allocs) trips.
	if limit := float64(128); allocs > limit {
		t.Errorf("CreatePost+AddLikeBatchInto(%d ops) = %.0f allocs/run, gate %v", burst, allocs, limit)
	}
}

// TestAllocGateTokenValidate bounds token validation — on the critical
// path of every Graph API call. Lookup of a warm token must not allocate
// per call beyond the returned TokenInfo copy.
func TestAllocGateTokenValidate(t *testing.T) {
	w := newBenchWorld(t, 1)
	tok := w.tokens[0]

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.p.OAuth.Validate(tok); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("OAuth.Validate: %.0f allocs/run", allocs)
	// Measured at HEAD: 1 alloc per Validate (the TokenInfo copy). Gate at 4.
	if limit := float64(4); allocs > limit {
		t.Errorf("OAuth.Validate = %.0f allocs/run, gate %v", allocs, limit)
	}
}

// TestAllocGateProviderCheckToken pins every registered provider's token
// format check at zero allocations. CheckToken fronts each validation and
// runs on attacker-supplied strings (the scanner feeds it candidate
// tokens), so even the signed pictogram format must verify its checksum
// without heap traffic.
func TestAllocGateProviderCheckToken(t *testing.T) {
	for _, name := range provider.Names() {
		prov := provider.MustGet(name)
		tok := prov.MintToken()
		allocs := testing.AllocsPerRun(100, func() {
			if err := prov.CheckToken(tok); err != nil {
				t.Fatalf("%s: freshly minted token fails CheckToken: %v", name, err)
			}
		})
		t.Logf("%s CheckToken: %.0f allocs/run", name, allocs)
		if allocs > 0 {
			t.Errorf("%s CheckToken = %.0f allocs/run, gate 0", name, allocs)
		}
	}
}

// TestAllocGateProviderRoutedValidate repeats the warm-token validation
// gate through the provider-routed construction path
// (platform.NewWithConfig with the non-default provider, token minted
// via the code flow). The provider indirection must not add per-call
// allocations over the default platform's budget.
func TestAllocGateProviderRoutedValidate(t *testing.T) {
	prov := provider.MustGet("pictogram")
	clock := simclock.NewSimulated(benchEpoch)
	p := platform.NewWithConfig(clock, nil, platform.Config{Provider: prov})
	app := p.Apps.RegisterUnreviewed(apps.Config{
		Name:        "gate companion",
		RedirectURI: "https://gate-companion.example/cb",
		Lifetime:    apps.LongTerm,
		Permissions: []string{prov.ScopePublish()},
	})
	acct := p.Graph.CreateAccount("gate-member", "IN", clock.Now())
	client := platform.NewLocalClient(p)
	code, err := client.AuthorizeCode(app.ID, app.RedirectURI, acct.ID, []string{prov.ScopePublish()})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := client.ExchangeCode(app.ID, app.Secret, app.RedirectURI, code)
	if err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.OAuth.Validate(tok); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("pictogram OAuth.Validate: %.0f allocs/run", allocs)
	// Same budget as the default provider: the TokenInfo copy plus slack.
	if limit := float64(4); allocs > limit {
		t.Errorf("pictogram OAuth.Validate = %.0f allocs/run, gate %v", allocs, limit)
	}
}

// TestAllocGateAddLikeBatchSteadyState pins the store's batch-apply path
// at exactly zero allocations per burst once the chunk pools are warm.
// Each round sweeps the previous round's edges out (returning their
// chunks to the per-shard free lists) and re-likes the same post, so
// steady state exercises the full recycle loop: evict → pool → reuse.
// Unlike TestAllocGateAddLikeBatch above — which tolerates amortized
// slice growth on a cold store — this gate is strict: any per-op or
// per-burst heap traffic (a grown slice, a rebuilt map, an escaping
// closure) is a regression against the chunked-history design.
func TestAllocGateAddLikeBatchSteadyState(t *testing.T) {
	const burst = 50
	graph := socialgraph.New(8, 0)
	graph.SetRetentionWindow(30 * time.Minute)
	now := benchEpoch
	accounts := make([]string, burst)
	for i := range accounts {
		accounts[i] = graph.CreateAccount("", "IN", now).ID
	}
	post, err := graph.CreatePost(accounts[0], "p", socialgraph.WriteMeta{At: now})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]socialgraph.LikeOp, burst)
	errs := make([]error, burst)
	round := func() {
		now = now.Add(time.Hour)
		graph.RetentionSweep(now)
		meta := socialgraph.WriteMeta{SourceIP: "192.0.2.1", At: now}
		for j, acct := range accounts {
			ops[j] = socialgraph.LikeOp{AccountID: acct, ObjectID: post.ID, Meta: meta}
		}
		graph.AddLikeBatchInto(ops, errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the pools: the first rounds grow chunk free lists, history
	// headers, and map buckets to steady-state size.
	for i := 0; i < 8; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(10, round)
	t.Logf("sweep+AddLikeBatchInto(%d ops): %.0f allocs/run", burst, allocs)
	if allocs != 0 {
		t.Errorf("steady-state sweep+AddLikeBatchInto(%d ops) = %.0f allocs/run, gate 0", burst, allocs)
	}
}

// TestAllocGateStoreDenialErrors pins the store's common like denial
// kinds at zero allocations: denials are what a defended platform serves
// a collusion network on nearly every request, so they must return
// preformatted sentinel errors, never build fmt.Errorf values per call.
// AddLike is a batch run of one, so its cases also pin that the one-op
// run and its error slot stay on the stack.
func TestAllocGateStoreDenialErrors(t *testing.T) {
	graph := socialgraph.New(8, 0)
	now := benchEpoch
	liker := graph.CreateAccount("liker", "IN", now)
	bystander := graph.CreateAccount("bystander", "IN", now)
	post, err := graph.CreatePost(liker.ID, "p", socialgraph.WriteMeta{At: now})
	if err != nil {
		t.Fatal(err)
	}
	meta := socialgraph.WriteMeta{At: now}
	if err := graph.AddLike(liker.ID, post.ID, meta); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"duplicate like", func() error { return graph.AddLike(liker.ID, post.ID, meta) }, socialgraph.ErrAlreadyLiked},
		{"unknown liker", func() error { return graph.AddLike("4242424242", post.ID, meta) }, socialgraph.ErrNotFound},
		{"not liked", func() error { return graph.RemoveLike(bystander.ID, post.ID) }, socialgraph.ErrNotLiked},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if tc.call() == nil {
				t.Fatalf("%s: denial unexpectedly succeeded", tc.name)
			}
		})
		t.Logf("%s: %.0f allocs/run", tc.name, allocs)
		if allocs > 0 {
			t.Errorf("%s = %.0f allocs/run, gate 0", tc.name, allocs)
		}
	}
}

// TestAllocGateGraphAPIDenial pins the full Graph API like path at zero
// allocations when a rate-limit policy denies the request. Telemetry is
// detached (nil observer) so the gate measures the API's own work: token
// validation (shared-scopes TokenInfo), registry lookup (shared app
// record), policy evaluation (preformatted limiter reasons), and the
// interned denial error. This is the path a throttled collusion network
// hammers hardest — the paper's Sec. 6.1 limiter turns nearly the whole
// offered load into denials.
func TestAllocGateGraphAPIDenial(t *testing.T) {
	clock := simclock.NewSimulated(benchEpoch)
	p := platform.New(clock, nil)
	p.API.SetObserver(nil)
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	acct := p.Graph.CreateAccount("member", "IN", clock.Now())
	post, err := p.Graph.CreatePost(acct.ID, "p", socialgraph.WriteMeta{At: clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.OAuth.Authorize(oauthsim.AuthorizeRequest{
		AppID:        app.ID,
		RedirectURI:  app.RedirectURI,
		ResponseType: oauthsim.ResponseToken,
		Scopes:       []string{apps.PermPublishActions},
		AccountID:    acct.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.API.Chain().Append(defense.NewTokenRateLimiter(clock, 0, time.Hour))
	c := graphapi.CallContext{AccessToken: res.AccessToken, SourceIP: "198.51.100.7"}
	// Warm call: builds and interns the denial error.
	if err := p.API.Like(c, post.ID); err == nil {
		t.Fatal("rate-limited like unexpectedly succeeded")
	} else if got, want := graphapi.ErrCode(err), provider.Default().ErrorCode(provider.KindRateLimited); got != want {
		t.Fatalf("denial code = %d, want %d (%v)", got, want, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if p.API.Like(c, post.ID) == nil {
			t.Fatal("rate-limited like unexpectedly succeeded")
		}
	})
	t.Logf("rate-limited Like: %.0f allocs/run", allocs)
	if allocs > 0 {
		t.Errorf("rate-limited Like = %.0f allocs/run, gate 0", allocs)
	}
}

// TestAllocGateGraphAPIDenialObserved holds the denial path allocation-free
// with telemetry attached, as every study and benchmark runs it: each
// denied op increments defense_actions_total and graphapi_requests_total
// through labelled lookups and labels its error code. An all-denied 50-op
// LikeBatch on an unsampled context must therefore cost exactly what a
// 1-op batch costs; only the batch itself (its returned error slice and
// root bookkeeping) allocates.
func TestAllocGateGraphAPIDenialObserved(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts; the 1-op and 50-op counts do not repeat")
	}
	const burst = 50
	w := newBenchWorld(t, burst)
	w.p.API.Chain().Append(defense.NewTokenRateLimiter(w.clock, 0, time.Hour))
	ops := make([]graphapi.BatchLikeOp, burst)
	for i, tok := range w.tokens {
		ops[i] = graphapi.BatchLikeOp{Token: tok, IP: "198.51.100.7"}
	}
	ctx := obs.UnsampledContext(context.Background())
	rateLimited := provider.Default().ErrorCode(provider.KindRateLimited)
	batch := func(ops []graphapi.BatchLikeOp) func() {
		return func() {
			for _, err := range w.p.API.LikeBatch(ctx, w.post.ID, ops) {
				if graphapi.ErrCode(err) != rateLimited {
					t.Fatalf("op not rate-limited: %v", err)
				}
			}
		}
	}
	// Warm calls create every labelled series and intern the denial error.
	batch(ops)()
	one := testing.AllocsPerRun(100, batch(ops[:1]))
	all := testing.AllocsPerRun(100, batch(ops))
	t.Logf("denied LikeBatch with telemetry: 1 op %.0f allocs/run, %d ops %.0f allocs/run", one, burst, all)
	if all != one {
		t.Errorf("denied %d-op LikeBatch = %.0f allocs/run, 1-op = %.0f; denials must not allocate per op", burst, all, one)
	}
}

// TestAllocGateHTTPLikeHandler bounds the server's share of one single
// like: the platform handler stack (middleware, form decode, Graph API
// like, ack) serving a prebuilt request into a prebuilt recorder. No
// connection is involved, so most of the count is this repository's code
// and the ceiling can sit close enough to catch an ack encoded through
// encoding/json reflection.
func TestAllocGateHTTPLikeHandler(t *testing.T) {
	const runs = 200
	w := newBenchWorld(t, 1)
	h := w.p.Handler()
	form := "access_token=" + url.QueryEscape(w.tokens[0])
	reqs := make([]*http.Request, runs+1) // AllocsPerRun adds one warm-up call
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		post, err := w.p.Graph.CreatePost(w.post.AuthorID, "p", socialgraph.WriteMeta{At: w.clock.Now()})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = httptest.NewRequest(http.MethodPost, "/"+post.ID+"/likes", strings.NewReader(form))
		reqs[i].Header.Set("Content-Type", "application/x-www-form-urlencoded")
		reqs[i].Header.Set("X-Forwarded-For", "192.0.2.1")
		recs[i] = httptest.NewRecorder()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[next], reqs[next])
		if recs[next].Code != http.StatusOK {
			t.Fatalf("like answered %d: %s", recs[next].Code, recs[next].Body)
		}
		next++
	})
	t.Logf("HTTP like handler: %.0f allocs/run", allocs)
	// Measured: 59 allocs (go1.24, linux/amd64), about 35 of them in
	// obs and the Graph API; the rest are form parsing, mux routing and
	// the recorder's header snapshot. The map + json.Encoder ack measured
	// 63, so the gate sits at 62.
	if limit := float64(62); allocs > limit {
		t.Errorf("HTTP like handler = %.0f allocs/run, gate %v", allocs, limit)
	}
}

// TestAllocGateHTTPLikeRoundTrip bounds one single like over a keep-alive
// loopback connection, counting client and server together: the
// HTTPClient request and response drain, net/http on both ends, and the
// handler stack. Most of the count is net/http's, so the ceiling keeps
// ~10% headroom for Go patch releases while a redial per request (a
// dropped keep-alive) still fails it; TestAllocGateHTTPLikeHandler
// catches a reflection-encoded ack.
func TestAllocGateHTTPLikeRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool do not repeat under the race detector")
	}
	const runs = 200
	w := newBenchWorld(t, 1)
	posts := make([]string, runs+1) // AllocsPerRun adds one warm-up call
	for i := range posts {
		post, err := w.p.Graph.CreatePost(w.post.AuthorID, "p", socialgraph.WriteMeta{At: w.clock.Now()})
		if err != nil {
			t.Fatal(err)
		}
		posts[i] = post.ID
	}
	srv := w.p.ServeHTTPTest()
	defer srv.Close()
	client := platform.NewHTTPClient(srv.URL)
	tok := w.tokens[0]
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := client.Like(tok, posts[next], "192.0.2.1"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("HTTP like round trip: %.0f allocs/run", allocs)
	// Measured: 152 allocs (go1.24, linux/amd64). A redial per like
	// measured 210, so the gate sits at 167 (10% headroom).
	if limit := float64(167); allocs > limit {
		t.Errorf("HTTP like round trip = %.0f allocs/run, gate %v", allocs, limit)
	}
}

// TestAllocGateTokenPoolSample pins a collusion network's token draw at
// zero allocations: the permutation lives in a buffer the pool reuses and
// the picks land in the caller's dst, so a burst's sampling costs nothing
// once each member's usage log has room.
func TestAllocGateTokenPoolSample(t *testing.T) {
	const members, n = 500, 50
	pool := collusion.NewTokenPool()
	for i := 0; i < members; i++ {
		pool.Put(fmt.Sprintf("m%d", i), fmt.Sprintf("tok-%d", i))
	}
	rng := rand.New(rand.NewSource(1))
	exclude := map[string]bool{"m0": true}
	now := benchEpoch
	// Warm: one draw over the whole pool gives every usage log a slot.
	pool.Sample(nil, rng, members, exclude, 10, 0, now)
	dst := make([]collusion.Sampled, 0, n)
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(2 * time.Hour) // last draw's usage ages out
		dst = pool.Sample(dst, rng, n, exclude, 10, 0, now)
		if len(dst) != n {
			t.Fatalf("Sample drew %d, want %d", len(dst), n)
		}
	})
	t.Logf("TokenPool.Sample(%d of %d): %.0f allocs/run", n, members, allocs)
	if allocs != 0 {
		t.Errorf("TokenPool.Sample(%d of %d) = %.0f allocs/run, gate 0", n, members, allocs)
	}
}

// TestAllocGateMilkNetwork pins one warm milking round — a honeypot post,
// a 350-like hublaa.me burst through LocalClient's batched delivery, and
// the likers crawl — at its measured allocation count. The delivery
// burst draws its working set from a pooled scratch and the crawl copies
// only liker IDs, so a new per-like or per-chunk allocation anywhere on
// the adversary path shows up here.
func TestAllocGateMilkNetwork(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts; pooled scratch counts do not repeat")
	}
	const gate = 52
	study, err := core.NewStudy(workload.Options{
		Scale: 100, Networks: []string{"hublaa.me"}, Seed: 1, RetentionWindow: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		study.Scenario.Clock.Advance(time.Hour)
		study.SweepRetention()
		res := study.MilkNetwork("hublaa.me")
		if res.Err != nil || res.Delivered != 350 {
			t.Fatalf("round delivered %d, err %v; want 350", res.Delivered, res.Err)
		}
	}
	// Warm for three simulated days: every member's activity log and
	// usage slot exist, and sweeps have filled the store's free lists.
	for i := 0; i < 72; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(24, round)
	t.Logf("MilkNetwork(hublaa.me, 350 likes): %.0f allocs/run", allocs)
	if allocs > gate {
		t.Errorf("MilkNetwork(hublaa.me) = %.0f allocs/run, gate %d", allocs, gate)
	}
}

// TestAllocGateActivityLog pins the activity read-back at a cost that
// does not grow with the log: ActivityLog formats every entry's object
// and target IDs into one shared string, so a 200-entry
// log costs the allocations of a 1-entry log. detection.Extract reads
// each labelled account's whole log; per-entry formatting there once
// multiplied BenchmarkExtensionDetection's allocation count.
func TestAllocGateActivityLog(t *testing.T) {
	graph := socialgraph.New(8, 0)
	now := benchEpoch
	author := graph.CreateAccount("author", "IN", now)
	meta := socialgraph.WriteMeta{AppID: "app", SourceIP: "192.0.2.1", At: now}
	logOf := func(likes int) string {
		liker := graph.CreateAccount("liker", "IN", now)
		for i := 0; i < likes; i++ {
			post, err := graph.CreatePost(author.ID, "p", meta)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.AddLike(liker.ID, post.ID, meta); err != nil {
				t.Fatal(err)
			}
		}
		return liker.ID
	}
	var perLog [2]float64
	for i, id := range []string{logOf(1), logOf(200)} {
		want := 1 + 199*i
		if got := len(graph.ActivityLog(id)); got != want {
			t.Fatalf("ActivityLog: %d entries, want %d", got, want)
		}
		perLog[i] = testing.AllocsPerRun(50, func() { graph.ActivityLog(id) })
	}
	t.Logf("ActivityLog: 1 entry %.0f allocs/run, 200 entries %.0f allocs/run", perLog[0], perLog[1])
	if perLog[0] != perLog[1] {
		t.Errorf("ActivityLog: 1 entry %.0f allocs/run, 200 entries %.0f; want equal", perLog[0], perLog[1])
	}
}

// TestAllocGateSynchroTrapDetect pins one SynchroTrap sweep over
// BenchmarkSynchroTrapDetect's snapshot. Detect's scratch is a fixed set
// of per-sweep slices (the snapshot, the account→group adjacency, the
// dense counter and union-find arrays), so its allocation count does not
// grow with the co-member pairs it counts; a pair map, which allocated
// 310 times here, fails the gate.
func TestAllocGateSynchroTrapDetect(t *testing.T) {
	trap := newDetectBenchTrap()
	clusters := 0
	allocs := testing.AllocsPerRun(20, func() {
		clusters = len(trap.Detect())
	})
	t.Logf("SynchroTrap.Detect (%d clusters): %.0f allocs/run", clusters, allocs)
	if allocs > 64 {
		t.Errorf("SynchroTrap.Detect = %.0f allocs/run, gate 64", allocs)
	}
}
