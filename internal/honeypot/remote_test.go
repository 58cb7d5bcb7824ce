package honeypot

import (
	"net/http/httptest"
	"testing"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// TestRemoteModeEndToEnd runs the entire stack over real HTTP: the
// platform serves the OAuth dialog and Graph API, the collusion network
// site runs as its own HTTP service talking to the platform over HTTP,
// and the honeypot (in remote mode, no shared store) drives both — the
// full deployment shape of cmd/platformd + cmd/collusiond + cmd/milker.
func TestRemoteModeEndToEnd(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	p := platform.New(clock, nil)
	platformSrv := p.ServeHTTPTest()
	t.Cleanup(platformSrv.Close)

	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})

	// The collusion network talks to the platform over HTTP too.
	networkClient := platform.NewHTTPClient(platformSrv.URL)
	network := collusion.NewNetwork(collusion.Config{
		Name:            "remote-liker.net",
		AppID:           app.ID,
		AppRedirectURI:  app.RedirectURI,
		LikesPerRequest: 7,
	}, clock, networkClient)
	siteSrv := httptest.NewServer(collusion.Handler(network))
	t.Cleanup(siteSrv.Close)

	// Seed members (in-process account creation stands in for platform
	// signup, which has no HTTP surface).
	memberClient := platform.NewHTTPClient(platformSrv.URL)
	for i := 0; i < 15; i++ {
		acct := p.Graph.CreateAccount("member", "IN", clock.Now())
		tok, err := memberClient.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID,
			[]string{apps.PermPublicProfile, apps.PermPublishActions})
		if err != nil {
			t.Fatal(err)
		}
		if err := network.SubmitToken(acct.ID, tok); err != nil {
			t.Fatal(err)
		}
	}

	// Remote honeypot: pre-registered account, no store access.
	hpAccount := p.Graph.CreateAccount("remote-honeypot", "US", clock.Now())
	hp := New(Config{
		Clock:     clock,
		Client:    platform.NewHTTPClient(platformSrv.URL),
		Site:      NewHTTPSite("remote-liker.net", siteSrv.URL),
		App:       app,
		AccountID: hpAccount.ID,
		Name:      "remote-honeypot",
	})
	if err := hp.Join(); err != nil {
		t.Fatal(err)
	}
	postID, delivered, err := hp.MilkOnce()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 7 {
		t.Fatalf("delivered = %d", delivered)
	}
	// The post was published through the Graph API onto the real platform.
	onPlatform := false
	for _, a := range p.Graph.ActivityLog(hpAccount.ID) {
		onPlatform = onPlatform || (a.Verb == socialgraph.VerbPost && a.ObjectID == postID && a.TargetID == hpAccount.ID)
	}
	if !onPlatform {
		t.Fatalf("post %s not on platform", postID)
	}
	// Remote crawling via the likes edge.
	incoming := hp.IncomingLikes()
	if len(incoming[postID]) != 7 {
		t.Fatalf("crawled likes = %d", len(incoming[postID]))
	}
	est := NewEstimator()
	var likers []string
	for _, l := range incoming[postID] {
		likers = append(likers, l.AccountID)
	}
	est.ObservePost(likers)
	if est.MembershipEstimate() != 7 {
		t.Fatalf("estimate = %d", est.MembershipEstimate())
	}
	// Remote mode has no activity-log access.
	if acts := hp.OutgoingActivities(); acts != nil {
		t.Fatalf("remote outgoing = %v", acts)
	}
}

func TestRemoteModeComments(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	p := platform.New(clock, nil)
	platformSrv := p.ServeHTTPTest()
	t.Cleanup(platformSrv.Close)
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	client := platform.NewHTTPClient(platformSrv.URL)
	network := collusion.NewNetwork(collusion.Config{
		Name:               "remote-commenter.net",
		AppID:              app.ID,
		AppRedirectURI:     app.RedirectURI,
		LikesPerRequest:    5,
		CommentsPerRequest: 3,
		CommentDictionary:  []string{"gr8", "nice pic"},
	}, clock, client)
	siteSrv := httptest.NewServer(collusion.Handler(network))
	t.Cleanup(siteSrv.Close)

	for i := 0; i < 10; i++ {
		acct := p.Graph.CreateAccount("member", "IN", clock.Now())
		tok, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID,
			[]string{apps.PermPublicProfile, apps.PermPublishActions})
		if err != nil {
			t.Fatal(err)
		}
		if err := network.SubmitToken(acct.ID, tok); err != nil {
			t.Fatal(err)
		}
	}
	hpAccount := p.Graph.CreateAccount("remote-honeypot", "US", clock.Now())
	hp := New(Config{
		Clock:     clock,
		Client:    platform.NewHTTPClient(platformSrv.URL),
		Site:      NewHTTPSite("remote-commenter.net", siteSrv.URL),
		App:       app,
		AccountID: hpAccount.ID,
	})
	if err := hp.Join(); err != nil {
		t.Fatal(err)
	}
	postID, delivered, err := hp.MilkComments()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("delivered = %d", delivered)
	}
	comments := p.Graph.Comments(postID)
	if len(comments) != 3 {
		t.Fatalf("stored comments = %d", len(comments))
	}
	for _, c := range comments {
		if c.Message != "gr8" && c.Message != "nice pic" {
			t.Fatalf("comment %q not from dictionary", c.Message)
		}
	}
}
