package collusion

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// harness assembles a platform, one exploited app, a member population
// with pooled tokens, and a collusion network under test.
type harness struct {
	clock   *simclock.Simulated
	p       *platform.Platform
	client  platform.Client
	app     apps.App
	network *Network
	members []socialgraph.Account
}

func newHarness(t *testing.T, cfg Config, members int) *harness {
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
	n := NewNetwork(cfg, clock, client)
	h := &harness{clock: clock, p: p, client: client, app: app, network: n}
	for i := 0; i < members; i++ {
		h.join(t, fmt.Sprintf("member-%d", i))
	}
	return h
}

// join creates an account, walks the implicit flow, and submits the
// leaked token to the network.
func (h *harness) join(t *testing.T, name string) socialgraph.Account {
	t.Helper()
	acct := h.p.Graph.CreateAccount(name, "IN", h.clock.Now())
	tok, err := h.client.AuthorizeImplicit(h.app.ID, h.app.RedirectURI, acct.ID,
		[]string{apps.PermPublicProfile, apps.PermPublishActions})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.network.SubmitToken(acct.ID, tok); err != nil {
		t.Fatal(err)
	}
	h.members = append(h.members, acct)
	return acct
}

func (h *harness) post(t *testing.T, author socialgraph.Account) socialgraph.Post {
	t.Helper()
	p, err := h.p.Graph.CreatePost(author.ID, "please like", socialgraph.WriteMeta{At: h.clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSubmitTokenVerifies(t *testing.T) {
	h := newHarness(t, Config{}, 0)
	acct := h.p.Graph.CreateAccount("alice", "IN", t0)
	if err := h.network.SubmitToken(acct.ID, "garbage-token"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("garbage token err = %v", err)
	}
	tok, err := h.client.AuthorizeImplicit(h.app.ID, h.app.RedirectURI, acct.ID, []string{apps.PermPublishActions})
	if err != nil {
		t.Fatal(err)
	}
	// Token belonging to a different account is rejected.
	if err := h.network.SubmitToken("someone-else", tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("mismatched token err = %v", err)
	}
	if err := h.network.SubmitToken(acct.ID, tok); err != nil {
		t.Fatal(err)
	}
	if h.network.MembershipSize() != 1 {
		t.Fatalf("MembershipSize = %d", h.network.MembershipSize())
	}
}

func TestRequestLikesDeliversQuota(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 50}, 120)
	requester := h.members[0]
	post := h.post(t, requester)
	delivered, err := h.network.RequestLikes(requester.ID, post.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 50 {
		t.Fatalf("delivered = %d, want 50", delivered)
	}
	likes := h.p.Graph.Likes(post.ID)
	if len(likes) != 50 {
		t.Fatalf("stored likes = %d", len(likes))
	}
	for _, l := range likes {
		if l.AccountID == requester.ID {
			t.Fatal("requester's own token used on their post")
		}
		if l.AppID != h.app.ID {
			t.Fatalf("like not attributed to exploited app: %+v", l)
		}
	}
}

func TestRequestLikesRequiresMembership(t *testing.T) {
	h := newHarness(t, Config{}, 5)
	outsider := h.p.Graph.CreateAccount("outsider", "IN", t0)
	post := h.post(t, outsider)
	if _, err := h.network.RequestLikes(outsider.ID, post.ID, ""); !errors.Is(err, ErrNotMember) {
		t.Fatalf("non-member request err = %v", err)
	}
}

func TestDailyRequestLimit(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 5, DailyRequestLimit: 2}, 30)
	requester := h.members[0]
	for i := 0; i < 2; i++ {
		post := h.post(t, requester)
		if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); err != nil {
			t.Fatal(err)
		}
	}
	post := h.post(t, requester)
	if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); !errors.Is(err, ErrDailyLimit) {
		t.Fatalf("over-limit err = %v", err)
	}
	// Next day the allowance resets.
	h.clock.Advance(24 * time.Hour)
	if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); err != nil {
		t.Fatalf("next-day request err = %v", err)
	}
}

func TestCaptchaGate(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 5, CaptchaRequired: true}, 30)
	requester := h.members[0]
	post := h.post(t, requester)
	if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); !errors.Is(err, ErrCaptchaRequired) {
		t.Fatalf("no-captcha err = %v", err)
	}
	challenge := h.network.Challenge(requester.ID)
	if _, err := h.network.RequestLikes(requester.ID, post.ID, "999"); !errors.Is(err, ErrCaptchaWrong) {
		t.Fatalf("wrong answer err = %v", err)
	}
	// Solve: parse "a+b=".
	var a, b int
	if _, err := fmt.Sscanf(challenge, "%d+%d=", &a, &b); err != nil {
		t.Fatalf("challenge %q: %v", challenge, err)
	}
	// A fresh challenge must be requested after a wrong attempt cleared it?
	// The wrong answer does not clear it; answer the same challenge.
	if _, err := h.network.RequestLikes(requester.ID, post.ID, fmt.Sprint(a+b)); err != nil {
		t.Fatalf("solved captcha err = %v", err)
	}
}

func TestOutageDays(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 5, OutageDays: []int{1}}, 10)
	requester := h.members[0]
	post := h.post(t, requester)
	if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(24 * time.Hour) // day 1: outage
	if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); !errors.Is(err, ErrOutage) {
		t.Fatalf("outage day err = %v", err)
	}
	if err := h.network.Visit(false); !errors.Is(err, ErrOutage) {
		t.Fatalf("outage visit err = %v", err)
	}
	h.clock.Advance(24 * time.Hour) // day 2: back up
	post2 := h.post(t, requester)
	if _, err := h.network.RequestLikes(requester.ID, post2.ID, ""); err != nil {
		t.Fatalf("post-outage err = %v", err)
	}
}

func TestDeadTokensDropped(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 10}, 20)
	// Invalidate every member token out from under the network.
	for _, m := range h.members {
		h.p.OAuth.InvalidateAccount(m.ID, "sweep")
	}
	requester := h.members[0]
	post := h.post(t, requester)
	delivered, err := h.network.RequestLikes(requester.ID, post.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d with all tokens dead", delivered)
	}
	// The engine resamples replacements for failures within its attempt
	// budget (2×quota = 20), burning through dead tokens: it drains all 19
	// non-requester members before giving up.
	st := h.network.Stats()
	if st.TokensDropped != 19 {
		t.Fatalf("TokensDropped = %d, want 19", st.TokensDropped)
	}
	if h.network.MembershipSize() != 1 {
		t.Fatalf("MembershipSize = %d, want 1 (only the requester left)", h.network.MembershipSize())
	}
}

// TestDeliverySpanFailureEvents: a burst's span carries one event per
// distinct failure code and one per outcome, each with its count, not
// one event per failed like.
func TestDeliverySpanFailureEvents(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 100}, 40)
	o := obs.New(h.clock, obs.DefaultPlatformLabel)
	h.network.SetObserver(o)
	requester := h.members[0]
	post := h.post(t, requester)
	// The quota exceeds the pool, so one draw samples every other member:
	// five have already liked the post and four hold dead tokens.
	for _, m := range h.members[1:6] {
		if err := h.p.Graph.AddLike(m.ID, post.ID, socialgraph.WriteMeta{At: h.clock.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range h.members[6:10] {
		h.p.OAuth.InvalidateAccount(m.ID, "sweep")
	}
	delivered, err := h.network.RequestLikes(requester.ID, post.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 30 {
		t.Fatalf("delivered = %d, want 30", delivered)
	}
	var got []string
	for _, d := range o.T().Spans() {
		if d.Name != "collusion.deliver" {
			continue
		}
		for _, e := range d.Events {
			ev := e.Name
			for _, a := range e.Attrs {
				ev += " " + a.Key + "=" + a.Value
			}
			got = append(got, ev)
		}
	}
	sort.Strings(got)
	invalid := provider.Default().ErrorCode(provider.KindInvalidToken)
	dup := provider.Default().ErrorCode(provider.KindDuplicate)
	want := []string{
		"drop-token n=4",
		fmt.Sprintf("failures code=%d n=4", invalid),
		fmt.Sprintf("failures code=%d n=5", dup),
	}
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("collusion.deliver events = %q, want %q", got, want)
	}
	st := h.network.Stats()
	if st.FailuresByCode[invalid] != 4 || st.FailuresByCode[dup] != 5 || st.TokensDropped != 4 {
		t.Fatalf("stats = %+v, want 4 invalid-token and 5 duplicate failures, 4 drops", st)
	}
}

func TestCommentsFromDictionary(t *testing.T) {
	dict := []string{"gr8", "AW E S O M E", "bravooooo"}
	h := newHarness(t, Config{LikesPerRequest: 5, CommentsPerRequest: 8, CommentDictionary: dict}, 30)
	requester := h.members[0]
	post := h.post(t, requester)
	delivered, err := h.network.RequestComments(requester.ID, post.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 8 {
		t.Fatalf("delivered = %d, want 8", delivered)
	}
	inDict := func(msg string) bool {
		for _, d := range dict {
			if d == msg {
				return true
			}
		}
		return false
	}
	for _, c := range h.p.Graph.Comments(post.ID) {
		if !inDict(c.Message) {
			t.Fatalf("comment %q not from dictionary", c.Message)
		}
	}
	st := h.network.Stats()
	if st.CommentsDelivered != 8 || st.CommentRequests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoCommentService(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 5}, 5)
	requester := h.members[0]
	post := h.post(t, requester)
	if _, err := h.network.RequestComments(requester.ID, post.ID, ""); !errors.Is(err, ErrNoComments) {
		t.Fatalf("err = %v", err)
	}
}

func TestMonetizationCounters(t *testing.T) {
	h := newHarness(t, Config{AdsPerVisit: 3}, 0)
	if err := h.network.Visit(false); err != nil {
		t.Fatal(err)
	}
	// An ad-blocking visitor counts as a visit but serves no ads.
	if err := h.network.Visit(true); err != nil {
		t.Fatal(err)
	}
	st := h.network.Stats()
	if st.Visits != 2 || st.AdImpressions != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRateLimitAdaptation(t *testing.T) {
	// A hot-set engine hammered by a tight token rate limit must adapt to
	// uniform sampling after AdaptationLagDays distinct days of errors —
	// the official-liker.net bounce-back of Figure 5.
	h := newHarness(t, Config{
		LikesPerRequest:   20,
		HotSetSize:        25,
		AdaptationLagDays: 3,
		MaxPerTokenHourly: 100, // disable the spread cap for this test
	}, 300)
	limiter := defense.NewTokenRateLimiter(h.clock, 2, 24*time.Hour)
	h.p.Chain().Append(limiter)

	requester := h.members[0]
	deliveredByDay := make([]int, 6)
	for day := 0; day < 6; day++ {
		total := 0
		for r := 0; r < 10; r++ {
			post := h.post(t, requester)
			d, err := h.network.RequestLikes(requester.ID, post.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			total += d
			h.clock.Advance(time.Hour)
		}
		deliveredByDay[day] = total
		h.clock.Advance(14 * time.Hour)
	}
	st := h.network.Stats()
	if !st.Adapted {
		t.Fatalf("engine did not adapt; per-day = %v, stats = %+v", deliveredByDay, st)
	}
	// Before adaptation the hot set of 25 tokens can serve at most
	// 25 tokens × 2 likes/day = 50 of the 200 requested; after adaptation
	// the full pool serves nearly all.
	if deliveredByDay[0] > 60 {
		t.Fatalf("day 0 delivered %d, expected rate limit to bite", deliveredByDay[0])
	}
	last := deliveredByDay[len(deliveredByDay)-1]
	if last < 150 {
		t.Fatalf("post-adaptation delivered %d, expected recovery", last)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 2}, 10)
	st := h.network.Stats()
	st.FailuresByCode[190] = 999
	if h.network.Stats().FailuresByCode[190] == 999 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestInstallURLMentionsApp(t *testing.T) {
	h := newHarness(t, Config{}, 0)
	u := h.network.InstallURL()
	if !strings.Contains(u, h.app.ID) || !strings.Contains(u, "response_type=token") {
		t.Fatalf("InstallURL = %q", u)
	}
}

// TestOwnAppUselessForManipulation reproduces the Section 3 constraint:
// a collusion network registering its own (unreviewed) application gets
// no write permission, so its pooled tokens cannot like anything — which
// is why the networks hijack existing reviewed apps.
func TestOwnAppUselessForManipulation(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	p := platform.New(clock, nil)
	ownApp := p.Apps.RegisterUnreviewed(apps.Config{
		Name:              "TotallyLegit Liker",
		RedirectURI:       "https://liker.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	client := platform.NewLocalClient(p)
	n := NewNetwork(Config{
		Name:            "own-app-liker.net",
		AppID:           ownApp.ID,
		AppRedirectURI:  ownApp.RedirectURI,
		LikesPerRequest: 5,
	}, clock, client)

	// Members can still install the app and leak tokens (basic scopes
	// survive review stripping)...
	var member socialgraph.Account
	for i := 0; i < 10; i++ {
		acct := p.Graph.CreateAccount(fmt.Sprintf("m%d", i), "IN", clock.Now())
		tok, err := client.AuthorizeImplicit(ownApp.ID, ownApp.RedirectURI, acct.ID,
			[]string{apps.PermPublicProfile})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SubmitToken(acct.ID, tok); err != nil {
			t.Fatal(err)
		}
		member = acct
	}
	// ...but every like attempt dies on the missing publish_actions scope.
	post, err := p.Graph.CreatePost(member.ID, "like me", socialgraph.WriteMeta{At: clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	delivered, err := n.RequestLikes(member.ID, post.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("unreviewed app delivered %d likes", delivered)
	}
	st := n.Stats()
	if st.FailuresByCode[200] == 0 { // CodePermission
		t.Fatalf("no permission failures recorded: %v", st.FailuresByCode)
	}
}
