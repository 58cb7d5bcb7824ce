package repro

// The end-to-end integration test: every component composed over real
// HTTP, exactly the deployment shape of cmd/platformd + cmd/collusiond +
// cmd/milker + cmd/scanner, followed by the countermeasure sweep. One
// test tells the paper's whole story.

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/defense"
	"repro/internal/honeypot"
	"repro/internal/platform"
	"repro/internal/scanner"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

func TestFullStoryOverHTTP(t *testing.T) {
	clock := simclock.NewSimulated(time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC))
	p := platform.New(clock, nil)
	platformSrv := p.ServeHTTPTest()
	defer platformSrv.Close()

	// Act 1 — the ecosystem: a popular app with weak security settings.
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc-sense.example/callback",
		ClientFlowEnabled: true,
		RequireAppSecret:  false,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
		MAU:               1_000_000,
	})

	// Act 2 — the scanner finds it susceptible (Sec. 2.2 / Table 1).
	testAcct := p.Graph.CreateAccount("scanner-test", "US", clock.Now())
	testPost, err := p.Graph.CreatePost(testAcct.ID, "probe", socialgraph.WriteMeta{At: clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	sc := scanner.New(platformSrv.URL, testAcct.ID, testPost.ID)
	verdict := sc.ScanLoginURL(scanner.LoginURL(platformSrv.URL, app.ID, app.RedirectURI, app.Permissions))
	if !verdict.Susceptible || !verdict.LongTerm {
		t.Fatalf("scanner verdict = %+v", verdict)
	}

	// Act 3 — a collusion network exploits it (Sec. 3), running as its
	// own HTTP service that talks to the platform over HTTP.
	network := collusion.NewNetwork(collusion.Config{
		Name:            "integration-liker.net",
		AppID:           app.ID,
		AppRedirectURI:  app.RedirectURI,
		LikesPerRequest: 12,
		CaptchaRequired: true,
		AdWallHops:      1,
		AdsPerVisit:     3,
	}, clock, platform.NewHTTPClient(platformSrv.URL))
	siteSrv := httptest.NewServer(collusion.Handler(network))
	defer siteSrv.Close()

	memberClient := platform.NewHTTPClient(platformSrv.URL)
	var members []socialgraph.Account
	for i := 0; i < 40; i++ {
		acct := p.Graph.CreateAccount("member", "IN", clock.Now())
		tok, err := memberClient.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID,
			[]string{apps.PermPublicProfile, apps.PermPublishActions})
		if err != nil {
			t.Fatal(err)
		}
		if err := network.SubmitToken(acct.ID, tok); err != nil {
			t.Fatal(err)
		}
		members = append(members, acct)
	}

	// Act 4 — a honeypot infiltrates and milks it over HTTP (Sec. 4).
	hpAccount := p.Graph.CreateAccount("integration-honeypot", "US", clock.Now())
	hp := honeypot.New(honeypot.Config{
		Clock:     clock,
		Client:    platform.NewHTTPClient(platformSrv.URL),
		Site:      honeypot.NewHTTPSite("integration-liker.net", siteSrv.URL),
		App:       app,
		AccountID: hpAccount.ID,
	})
	if err := hp.Join(); err != nil {
		t.Fatal(err)
	}
	est := honeypot.NewEstimator()
	for round := 0; round < 6; round++ {
		postID, delivered, err := hp.MilkOnce()
		if err != nil {
			t.Fatalf("milking round %d: %v", round, err)
		}
		if delivered != 12 {
			t.Fatalf("round %d delivered %d", round, delivered)
		}
		var likers []string
		for _, l := range hp.IncomingLikes()[postID] {
			likers = append(likers, l.AccountID)
		}
		est.ObservePost(likers)
		clock.Advance(time.Hour)
	}
	if est.MembershipEstimate() < 30 {
		t.Fatalf("membership estimate = %d of 41", est.MembershipEstimate())
	}

	// Act 5 — countermeasures (Sec. 6): invalidate every milked account's
	// tokens; the next milking request delivers almost nothing.
	inv := defense.NewInvalidator(func(id, reason string) bool {
		return p.OAuth.InvalidateAccount(id, reason) > 0
	}, "honeypot-milked")
	for _, post := range hp.PostIDs() {
		var ids []string
		for _, l := range hp.IncomingLikes()[post] {
			ids = append(ids, l.AccountID)
		}
		inv.Submit(ids)
	}
	swept := inv.InvalidateAll()
	if swept < 30 {
		t.Fatalf("swept only %d accounts", swept)
	}
	clock.Advance(time.Hour)
	_, delivered, err := hp.MilkOnce()
	if err != nil {
		t.Fatal(err)
	}
	if delivered > 5 {
		t.Fatalf("network delivered %d likes after the sweep", delivered)
	}

	// Epilogue — remediation: the manufactured likes are purged.
	var swarm []string
	for _, m := range members {
		swarm = append(swarm, m.ID)
	}
	removed := defense.PurgeLikesReport(p.Graph, swarm).LikesRemoved
	if removed < 70 {
		t.Fatalf("purged %d likes", removed)
	}
	for _, post := range hp.PostIDs() {
		if n := p.Graph.LikeCount(post); n != 0 {
			t.Fatalf("post %s still has %d likes after purge", post, n)
		}
	}

	// The network's books reflect the story: tokens collected, likes
	// delivered, failures recorded when the sweep hit.
	st := network.Stats()
	if st.TokensCollected != 41 || st.LikesDelivered < 72 {
		t.Fatalf("network stats = %+v", st)
	}
	if st.FailuresByCode[190] == 0 {
		t.Fatal("no invalid-token failures recorded after the sweep")
	}
	if st.AdImpressions == 0 {
		t.Fatal("ad wall served no impressions")
	}
	if !strings.Contains(network.InstallURL(), app.ID) {
		t.Fatal("install URL broken")
	}
}
