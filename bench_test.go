package repro

// The benchmark harness: one benchmark per table and figure in the
// paper's evaluation, plus the ablations and the hot-path micro
// benchmarks. Each experiment benchmark executes the same driver that
// cmd/repro uses to print the paper's rows/series, at a bench-friendly
// scale, and reports domain metrics (likes delivered, accounts observed)
// alongside the usual ns/op.
//
// Regenerate everything:   go test -bench=. -benchmem
// One experiment:          go test -bench=BenchmarkTable4Milking

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/graphapi"
	"repro/internal/oauthsim"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// --- Table benchmarks -----------------------------------------------

func BenchmarkTable1Scanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Susceptible != 55 {
			b.Fatalf("susceptible = %d", res.Summary.Susceptible)
		}
		b.ReportMetric(float64(res.Summary.Scanned), "apps-scanned/op")
	}
}

func BenchmarkTable2TrafficRanks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(1)
		if len(res.Rows) != 50 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkTable3AppDirectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkTable4Milking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(experiments.Table4Config{
			Scale:        200,
			PostsDivisor: 40,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		all := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(all.TotalLikes), "likes/op")
		b.ReportMetric(float64(all.MembershipEstimate), "accounts/op")
	}
}

func BenchmarkTable5ShortURLs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table5(experiments.Table5Config{ClickScale: 100_000, Seed: 1})
		if len(res.Rows) != 13 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkTable6Comments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(experiments.Table6Config{
			Scale:        500,
			PostsDivisor: 8,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		all := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(all.Report.Comments), "comments/op")
	}
}

// --- Figure benchmarks ----------------------------------------------

func BenchmarkFigure4Curves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(experiments.Figure4Config{
			Scale:        500,
			PostsDivisor: 40,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Panels) != 3 {
			b.Fatalf("panels = %d", len(res.Panels))
		}
	}
}

func BenchmarkFigure5Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(experiments.Figure5Config{
			Scale: 200,
			Days:  40, // through the invalidation phases
			Seed:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Daily["hublaa.me"][39]
		b.ReportMetric(last, "hublaa-day40-likes/op")
	}
}

func BenchmarkFigure6Histogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(experiments.Figure6Config{Scale: 200, Posts: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Panels) != 2 {
			b.Fatalf("panels = %d", len(res.Panels))
		}
	}
}

func BenchmarkFigure7HourlySpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(experiments.Figure7Config{
			Scale:             500,
			Hours:             24,
			BackgroundPerHour: 10,
			Seed:              1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Panels) != 2 {
			b.Fatalf("panels = %d", len(res.Panels))
		}
	}
}

func BenchmarkFigure8Footprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(experiments.Figure8Config{
			Scale:       200,
			Days:        4,
			MilksPerDay: 6,
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Panels) != 2 {
			b.Fatalf("panels = %d", len(res.Panels))
		}
	}
}

// --- Ablation benchmarks --------------------------------------------

func BenchmarkAblationRateLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRateLimit(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInvalidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationInvalidation(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationClustering(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIPvsAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationIPvsAS(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHoneypotEvasion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHoneypotEvasion(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRejected(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRejectedCountermeasures(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks -------------------------------------------

func BenchmarkExtensionPrivacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtensionPrivacy(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Harvest.Reachable), "accounts-reached/op")
	}
}

func BenchmarkExtensionDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtensionDetection(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.AUC, "auc")
	}
}

func BenchmarkExtensionEconomics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionEconomics(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path micro benchmarks --------------------------------------

var benchEpoch = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

// benchWorld is a small platform with one susceptible app and a pool of
// member tokens, shared across micro benchmarks.
type benchWorld struct {
	p      *platform.Platform
	clock  *simclock.Simulated
	app    apps.App
	tokens []string
	post   socialgraph.Post
}

func newBenchWorld(b testing.TB, members int) *benchWorld {
	b.Helper()
	clock := simclock.NewSimulated(benchEpoch)
	p := platform.New(clock, nil)
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	author := p.Graph.CreateAccount("author", "IN", clock.Now())
	post, err := p.Graph.CreatePost(author.ID, "bench post", socialgraph.WriteMeta{At: clock.Now()})
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{p: p, clock: clock, app: app, post: post}
	for i := 0; i < members; i++ {
		acct := p.Graph.CreateAccount(fmt.Sprintf("m%d", i), "IN", clock.Now())
		res, err := p.OAuth.Authorize(oauthsim.AuthorizeRequest{
			AppID:        app.ID,
			RedirectURI:  app.RedirectURI,
			ResponseType: oauthsim.ResponseToken,
			Scopes:       []string{apps.PermPublishActions},
			AccountID:    acct.ID,
		})
		if err != nil {
			b.Fatal(err)
		}
		w.tokens = append(w.tokens, res.AccessToken)
	}
	return w
}

func BenchmarkGraphAPILike(b *testing.B) {
	w := newBenchWorld(b, 1)
	tok := w.tokens[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh post per iteration so the like is never a duplicate.
		post, err := w.p.Graph.CreatePost(w.post.AuthorID, "p", socialgraph.WriteMeta{At: w.clock.Now()})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.p.API.Like(graphapi.CallContext{AccessToken: tok, SourceIP: "192.0.2.1"}, post.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddLikeBatch measures the store-level batch apply: one burst
// of 50 distinct likers on a fresh post per iteration, a single call and
// one lock scope. BenchmarkGraphAPILike is the per-call comparator (one
// like and one two-stripe lock scope per call).
func BenchmarkAddLikeBatch(b *testing.B) {
	const burst = 50
	w := newBenchWorld(b, burst)
	graph := w.p.Graph
	accounts := make([]string, burst)
	for i := range accounts {
		acct := graph.CreateAccount(fmt.Sprintf("batch-liker-%d", i), "IN", w.clock.Now())
		accounts[i] = acct.ID
	}
	meta := socialgraph.WriteMeta{SourceIP: "192.0.2.1", At: w.clock.Now()}
	ops := make([]socialgraph.LikeOp, burst)
	round := func() {
		post, err := graph.CreatePost(w.post.AuthorID, "p", socialgraph.WriteMeta{At: w.clock.Now()})
		if err != nil {
			b.Fatal(err)
		}
		for j, acct := range accounts {
			ops[j] = socialgraph.LikeOp{AccountID: acct, ObjectID: post.ID, Meta: meta}
		}
		errs := make([]error, len(ops))
		graph.AddLikeBatchInto(ops, errs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm the per-account state (activity chunk lists, author post index)
	// before the timer: the delivery hot path this benchmark models runs
	// against accounts that have liked before, and at -benchtime 1x the
	// one measured iteration would otherwise be pure cold start.
	round()
	round()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(burst, "likes/op")
}

func BenchmarkOAuthImplicitFlow(b *testing.B) {
	w := newBenchWorld(b, 1)
	acct := w.p.Graph.CreateAccount("flow-bench", "IN", w.clock.Now())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.p.OAuth.Authorize(oauthsim.AuthorizeRequest{
			AppID:        w.app.ID,
			RedirectURI:  w.app.RedirectURI,
			ResponseType: oauthsim.ResponseToken,
			Scopes:       []string{apps.PermPublishActions},
			AccountID:    acct.ID,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenValidate(b *testing.B) {
	w := newBenchWorld(b, 1)
	tok := w.tokens[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.p.OAuth.Validate(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyChainEvaluate(b *testing.B) {
	clock := simclock.NewSimulated(benchEpoch)
	chain := graphapi.NewChain()
	chain.Append(defense.NewTokenRateLimiter(clock, 1<<30, 24*time.Hour))
	chain.Append(defense.NewIPRateLimiter(clock, 1<<30, 1<<30))
	blocker := defense.NewASBlocker()
	blocker.Block(64500)
	chain.Append(blocker)
	req := graphapi.Request{
		Verb:      graphapi.VerbLike,
		ObjectID:  "post",
		Token:     "tok",
		AccountID: "acct",
		SourceIP:  "192.0.2.1",
		ASN:       65000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := chain.Evaluate(req); !d.Allow {
			b.Fatalf("denied: %+v", d)
		}
	}
}

// newDetectBenchTrap returns a detector holding 50 groups of 100 drawn
// from 500 accounts, the snapshot BenchmarkSynchroTrapDetect sweeps.
func newDetectBenchTrap() *defense.SynchroTrap {
	trap := defense.NewSynchroTrap(time.Minute, 0.5, 2, 5)
	for post := 0; post < 50; post++ {
		at := benchEpoch.Add(time.Duration(post) * time.Hour)
		for acct := 0; acct < 100; acct++ {
			trap.Record(fmt.Sprintf("acct-%d", (post*37+acct)%500), fmt.Sprintf("post-%d", post), at)
		}
	}
	return trap
}

func BenchmarkSynchroTrapDetect(b *testing.B) {
	trap := newDetectBenchTrap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trap.Detect()
	}
}

func BenchmarkCollusionDelivery(b *testing.B) {
	study, err := core.NewStudy(workload.Options{
		Scale:    200,
		Networks: []string{"hublaa.me"},
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	likes := 0
	for i := 0; i < b.N; i++ {
		res := study.MilkNetwork("hublaa.me")
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		likes += res.Delivered
		study.Scenario.Clock.Advance(time.Hour)
	}
	b.ReportMetric(float64(likes)/float64(b.N), "likes/request")
}

// milkingBenchNetworks is the fleet used by the sequential/batched
// milking pair: eight networks, all chosen without a DailyRequestLimit
// so hourly rounds can run for an arbitrary number of iterations.
var milkingBenchNetworks = []string{
	"mg-likers.com", "fast-liker.com", "autolikesgroups.com", "4liker.com",
	"f8-autoliker.com", "myliker.com", "kdliker.com", "oneliker.com",
}

// newMilkingBenchStudy builds the fleet study; batch is the per-network
// DeliveryBatchSize (0 = the batched default, negative = one transport
// call per like, the pre-batch driver).
func newMilkingBenchStudy(b *testing.B, batch int) *core.Study {
	b.Helper()
	study, err := core.NewStudy(workload.Options{
		Scale:             4000,
		MinMembers:        60,
		Networks:          milkingBenchNetworks,
		Seed:              1,
		DeliveryBatchSize: batch,
	})
	if err != nil {
		b.Fatal(err)
	}
	return study
}

// milkRounds milks every network once per iteration and reports
// likes/round (which must not move with the delivery mode: 464 on this
// fleet), the store's contended lock fraction, and shard-lock
// acquisitions per round. The acquisition count is the deterministic
// A/B signal between delivery modes: wall-clock differences drown in
// host jitter on an uncontended box, but batched delivery takes one
// lock scope per run instead of two stripes per like, which this metric
// shows directly.
func milkRounds(b *testing.B, study *core.Study) {
	b.Helper()
	acq0, _ := study.Scenario.Platform.Graph.Contention().Totals()
	b.ResetTimer()
	likes := 0
	for i := 0; i < b.N; i++ {
		for _, ni := range study.Scenario.Networks {
			res := study.MilkNetwork(ni.Spec.Name)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			likes += res.Delivered
		}
		study.Scenario.Clock.Advance(time.Hour)
	}
	b.ReportMetric(float64(likes)/float64(b.N), "likes/round")
	acq, cont := study.Scenario.Platform.Graph.Contention().Totals()
	if acq > 0 {
		b.ReportMetric(float64(cont)/float64(acq), "contended-frac")
		b.ReportMetric(float64(acq-acq0)/float64(b.N), "lock-acq/round")
	}
}

// BenchmarkMilkingSequential milks every network of the fleet one after
// another with batching disabled — the pre-batch driver and the
// historical baseline: one transport call and two lock scopes per like.
func BenchmarkMilkingSequential(b *testing.B) {
	milkRounds(b, newMilkingBenchStudy(b, -1))
}

// BenchmarkMilkingBatched is the same sequential round with batched
// delivery on (the default): bursts travel as ≤50-op batches into one
// AddLikeBatchInto apply. Against BenchmarkMilkingSequential this isolates
// what batching alone buys, with identical likes/round.
func BenchmarkMilkingBatched(b *testing.B) {
	milkRounds(b, newMilkingBenchStudy(b, 0))
}

func BenchmarkHTTPGraphAPILike(b *testing.B) {
	w := newBenchWorld(b, 1)
	srv := w.p.ServeHTTPTest()
	defer srv.Close()
	client := platform.NewHTTPClient(srv.URL)
	tok := w.tokens[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post, err := w.p.Graph.CreatePost(w.post.AuthorID, "p", socialgraph.WriteMeta{At: w.clock.Now()})
		if err != nil {
			b.Fatal(err)
		}
		if err := client.Like(tok, post.ID, "192.0.2.1"); err != nil {
			b.Fatal(err)
		}
	}
}
