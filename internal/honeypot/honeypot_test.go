package honeypot

import (
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

var t0 = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

type world struct {
	clock   *simclock.Simulated
	p       *platform.Platform
	client  platform.Client
	app     apps.App
	network *collusion.Network
	members []socialgraph.Account
}

func newWorld(t *testing.T, cfg collusion.Config, members int) *world {
	t.Helper()
	clock := simclock.NewSimulated(t0)
	p := platform.New(clock, nil)
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	client := platform.NewLocalClient(p)
	cfg.AppID = app.ID
	cfg.AppRedirectURI = app.RedirectURI
	if cfg.Name == "" {
		cfg.Name = "test-liker.net"
	}
	n := collusion.NewNetwork(cfg, clock, client)
	w := &world{clock: clock, p: p, client: client, app: app, network: n}
	for i := 0; i < members; i++ {
		acct := p.Graph.CreateAccount(fmt.Sprintf("member-%d", i), "IN", clock.Now())
		tok, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID,
			[]string{apps.PermPublicProfile, apps.PermPublishActions})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SubmitToken(acct.ID, tok); err != nil {
			t.Fatal(err)
		}
		w.members = append(w.members, acct)
	}
	return w
}

func (w *world) honeypot(t *testing.T, site Site) *Honeypot {
	t.Helper()
	h := New(Config{
		Clock:  w.clock,
		Graph:  w.p.Graph,
		Client: w.client,
		Site:   site,
		App:    w.app,
		Name:   "honeypot-1",
	})
	if err := h.Join(); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestJoinLeaksTokenIntoPool(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 5}, 10)
	h := w.honeypot(t, w.network)
	if h.Token() == "" {
		t.Fatal("honeypot has no token after Join")
	}
	if !w.network.Pool().Contains(h.Account.ID) {
		t.Fatal("honeypot token not pooled")
	}
	if w.network.MembershipSize() != 11 {
		t.Fatalf("MembershipSize = %d, want 11", w.network.MembershipSize())
	}
}

func TestMilkOnceDeliversAndCrawls(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 8}, 30)
	h := w.honeypot(t, w.network)
	postID, delivered, err := h.MilkOnce()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 8 {
		t.Fatalf("delivered = %d, want 8", delivered)
	}
	incoming := h.IncomingLikes()
	if len(incoming[postID]) != 8 {
		t.Fatalf("crawled likes = %d", len(incoming[postID]))
	}
	for _, l := range incoming[postID] {
		if l.AccountID == h.Account.ID {
			t.Fatal("honeypot liked its own post")
		}
	}
}

func TestMilkSolvesCaptcha(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 5, CaptchaRequired: true}, 10)
	h := w.honeypot(t, w.network)
	_, delivered, err := h.MilkOnce()
	if err != nil {
		t.Fatalf("captcha milking failed: %v", err)
	}
	if delivered != 5 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestMilkCommentsCrawl(t *testing.T) {
	w := newWorld(t, collusion.Config{
		LikesPerRequest:    5,
		CommentsPerRequest: 4,
		CommentDictionary:  []string{"gr8", "w00wwwwwwww"},
	}, 10)
	h := w.honeypot(t, w.network)
	postID, delivered, err := h.MilkComments()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 4 {
		t.Fatalf("delivered = %d", delivered)
	}
	comments := w.p.Graph.Comments(postID)
	if len(comments) != 4 {
		t.Fatalf("stored comments = %d", len(comments))
	}
}

func TestOutgoingActivitiesObserved(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 9}, 9)
	h := w.honeypot(t, w.network)
	// Another member requests likes; with only 10 tokens pooled, the
	// honeypot's token is certain to be sampled (9 needed, requester
	// excluded).
	other := w.members[0]
	post, err := w.p.Graph.CreatePost(other.ID, "other's post", socialgraph.WriteMeta{At: w.clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.network.RequestLikes(other.ID, post.ID, ""); err != nil {
		t.Fatal(err)
	}
	acts := h.OutgoingActivities()
	if len(acts) != 1 {
		t.Fatalf("outgoing = %d, want 1", len(acts))
	}
	if acts[0].Verb != socialgraph.VerbLike || acts[0].TargetID != other.ID {
		t.Fatalf("outgoing = %+v", acts[0])
	}
	sum := SummarizeOutgoing(acts)
	if sum.Activities != 1 || sum.TargetAccounts != 1 || sum.TargetPages != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestOutgoingPageTargets(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 9}, 9)
	h := w.honeypot(t, w.network)
	owner := w.members[0]
	page, err := w.p.Graph.CreatePage(owner.ID, "Fan Page", w.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.network.RequestLikes(owner.ID, page.ID, ""); err != nil {
		t.Fatal(err)
	}
	sum := SummarizeOutgoing(h.OutgoingActivities())
	if sum.TargetPages != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestEstimatorDiminishingReturns(t *testing.T) {
	e := NewEstimator()
	e.ObservePost([]string{"a", "b", "c"})
	e.ObservePost([]string{"b", "c", "d"})
	e.ObservePost([]string{"a", "d", "e"})
	if e.MembershipEstimate() != 5 {
		t.Fatalf("MembershipEstimate = %d, want 5", e.MembershipEstimate())
	}
	if e.TotalLikes() != 9 || e.PostsSubmitted() != 3 {
		t.Fatalf("totals = %d likes / %d posts", e.TotalLikes(), e.PostsSubmitted())
	}
	if got := e.AvgLikesPerPost(); got != 3 {
		t.Fatalf("AvgLikesPerPost = %v", got)
	}
	curve := e.Curve()
	if len(curve) != 3 {
		t.Fatalf("curve length = %d", len(curve))
	}
	if curve[2].CumulativeEvents != 9 || curve[2].CumulativeUnique != 5 {
		t.Fatalf("curve[2] = %+v", curve[2])
	}
	bins := e.PostsLikedHistogram()
	// a:2 b:2 c:2 d:2 e:1 → bin(1)=1, bin(2)=4
	if len(bins) != 2 || bins[0].Count != 1 || bins[1].Count != 4 {
		t.Fatalf("histogram = %+v", bins)
	}
	if got := e.AccountsLikingAtMost(1); got != 0.2 {
		t.Fatalf("AccountsLikingAtMost(1) = %v", got)
	}
}

func TestEstimatorEmpty(t *testing.T) {
	e := NewEstimator()
	if e.AvgLikesPerPost() != 0 || e.MembershipEstimate() != 0 || e.AccountsLikingAtMost(1) != 0 {
		t.Fatal("empty estimator not zero")
	}
	if len(e.Curve()) != 0 || len(e.PostsLikedHistogram()) != 0 {
		t.Fatal("empty estimator has a curve or histogram")
	}
}

func TestSolveArithmetic(t *testing.T) {
	if got := SolveArithmetic("3+4="); got != "7" {
		t.Fatalf("SolveArithmetic = %q", got)
	}
	if got := SolveArithmetic("what is love"); got != "" {
		t.Fatalf("garbage challenge solved: %q", got)
	}
}

// Property: the Figure 4 curve and the Figure 6 histogram agree with
// the estimator's totals for any sequence of crawled posts.
func TestQuickEstimatorInvariants(t *testing.T) {
	f := func(posts [][]byte) bool {
		e := NewEstimator()
		for _, p := range posts {
			likers := make([]string, len(p))
			for i, x := range p {
				likers[i] = fmt.Sprintf("a%d", x%32)
			}
			e.ObservePost(likers)
		}
		curve := e.Curve()
		if len(curve) != len(posts) || e.PostsSubmitted() != len(posts) {
			return false
		}
		events, prevUnique := 0, 0
		for i, pt := range curve {
			events += len(posts[i])
			if pt.Step != i+1 || pt.CumulativeEvents != events {
				return false
			}
			if pt.CumulativeUnique < prevUnique || pt.CumulativeUnique > pt.CumulativeEvents {
				return false
			}
			prevUnique = pt.CumulativeUnique
		}
		if prevUnique != e.MembershipEstimate() || events != e.TotalLikes() {
			return false
		}
		bins := e.PostsLikedHistogram()
		count, frac := 0, 0.0
		for i, b := range bins {
			if i > 0 && b.Value <= bins[i-1].Value {
				return false // bins must ascend by value
			}
			count += b.Count
			frac += b.Fraction
		}
		return count == e.MembershipEstimate() && (count == 0 || math.Abs(frac-1) < 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHourlySeries checks HourlyCounts, Figure 7's series.
func TestHourlySeries(t *testing.T) {
	acts := []socialgraph.Activity{
		{At: t0.Add(-time.Minute)}, // before the origin
		{At: t0},
		{At: t0.Add(30 * time.Minute)},
		{At: t0.Add(3*time.Hour + 59*time.Minute)}, // last hour
		{At: t0.Add(4 * time.Hour)},                // one past the last hour
	}
	got := HourlyCounts(acts, t0, 4)
	if want := []int{2, 0, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("HourlyCounts = %v, want %v", got, want)
	}
	if got := HourlyCounts(nil, t0, 3); !slices.Equal(got, []int{0, 0, 0}) {
		t.Fatalf("HourlyCounts(nil) = %v", got)
	}
}

func TestRejoinAfterInvalidation(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 3}, 10)
	h := w.honeypot(t, w.network)
	old := h.Token()
	w.p.OAuth.Invalidate(old, "countermeasure")
	if err := h.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if h.Token() == old {
		t.Fatal("Rejoin did not mint a fresh token")
	}
	if _, _, err := h.MilkOnce(); err != nil {
		t.Fatalf("milking after rejoin: %v", err)
	}
}

func TestHTTPSiteDrivesNetworkOverHTTP(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 6, CaptchaRequired: true}, 20)
	srv := httptest.NewServer(collusion.Handler(w.network))
	t.Cleanup(srv.Close)
	site := NewHTTPSite(w.network.Name(), srv.URL)
	if site.Name() != w.network.Name() {
		t.Fatalf("Name = %q", site.Name())
	}
	h := w.honeypot(t, site)
	postID, delivered, err := h.MilkOnce()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 6 {
		t.Fatalf("delivered = %d", delivered)
	}
	if got := w.p.Graph.LikeCount(postID); got != 6 {
		t.Fatalf("LikeCount = %d", got)
	}
}

func TestHTTPSiteErrors(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 6}, 5)
	srv := httptest.NewServer(collusion.Handler(w.network))
	t.Cleanup(srv.Close)
	site := NewHTTPSite("x", srv.URL)
	if err := site.SubmitToken("ghost", "bad-token"); err == nil {
		t.Fatal("bad token submission succeeded over HTTP")
	}
	if _, err := site.RequestLikes("stranger", "p", ""); err == nil {
		t.Fatal("non-member request succeeded over HTTP")
	}
}

func TestNotJoinedErrors(t *testing.T) {
	w := newWorld(t, collusion.Config{LikesPerRequest: 5}, 5)
	h := New(Config{
		Clock:  w.clock,
		Graph:  w.p.Graph,
		Client: w.client,
		Site:   w.network,
		App:    w.app,
	})
	if _, _, err := h.MilkOnce(); err == nil {
		t.Fatal("MilkOnce before Join succeeded")
	}
	if _, _, err := h.MilkComments(); err == nil {
		t.Fatal("MilkComments before Join succeeded")
	}
}

func TestMilkThroughAdWallAndCaptcha(t *testing.T) {
	w := newWorld(t, collusion.Config{
		LikesPerRequest: 6,
		AdWallHops:      2,
		AdsPerVisit:     3,
		CaptchaRequired: true,
	}, 20)
	h := w.honeypot(t, w.network)
	postID, delivered, err := h.MilkOnce()
	if err != nil {
		t.Fatalf("full friction stack milking failed: %v", err)
	}
	if delivered != 6 {
		t.Fatalf("delivered = %d", delivered)
	}
	if got := w.p.Graph.LikeCount(postID); got != 6 {
		t.Fatalf("LikeCount = %d", got)
	}
}

func TestHTTPSiteAdWallAutomation(t *testing.T) {
	w := newWorld(t, collusion.Config{
		LikesPerRequest: 4,
		AdWallHops:      1,
		AdsPerVisit:     2,
	}, 15)
	srv := httptest.NewServer(collusion.Handler(w.network))
	t.Cleanup(srv.Close)
	site := NewHTTPSite(w.network.Name(), srv.URL)
	h := w.honeypot(t, site)
	_, delivered, err := h.MilkOnce()
	if err != nil {
		t.Fatalf("HTTP ad wall milking failed: %v", err)
	}
	if delivered != 4 {
		t.Fatalf("delivered = %d", delivered)
	}
	if got := w.network.Stats().AdImpressions; got == 0 {
		t.Fatal("ad wall served no impressions")
	}
}
