package graphapi

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/oauthsim"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

var t0 = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	clock *simclock.Simulated
	graph *socialgraph.Store
	oauth *oauthsim.Server
	reg   *apps.Registry
	net   *netsim.Internet
	api   *API
	app   apps.App
	user  socialgraph.Account
	post  socialgraph.Post
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		clock: simclock.NewSimulated(t0),
		graph: socialgraph.New(0, 0),
		reg:   apps.NewRegistry(),
		net:   netsim.NewInternet(),
	}
	if err := f.net.RegisterAS(netsim.AS{Number: 64500, Name: "BulletproofHost", Bulletproof: true}, "203.0.113.0/24"); err != nil {
		t.Fatal(err)
	}
	f.oauth = oauthsim.NewServer(provider.Default(), f.clock, f.reg, f.graph)
	f.api = New(provider.Default(), f.clock, f.graph, f.oauth, f.reg, f.net)
	f.app = f.reg.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	f.user = f.graph.CreateAccount("member", "IN", t0)
	author := f.graph.CreateAccount("author", "IN", t0)
	var err error
	f.post, err = f.graph.CreatePost(author.ID, "look at my post", socialgraph.WriteMeta{At: t0})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCodeLabelsCoverEveryKind checks that New precomputes the label of
// every code its provider maps an error kind to, so no API error formats
// its code per call.
func TestCodeLabelsCoverEveryKind(t *testing.T) {
	for _, name := range provider.Names() {
		prov := provider.MustGet(name)
		clock := simclock.NewSimulated(t0)
		graph := socialgraph.New(0, 0)
		reg := apps.NewRegistry()
		a := New(prov, clock, graph, oauthsim.NewServer(prov, clock, reg, graph), reg, nil)
		for k := provider.KindNone; k < provider.NumKinds; k++ {
			code := prov.ErrorCode(k)
			if got, want := a.codeLabels[code], strconv.Itoa(code); got != want {
				t.Errorf("%s: codeLabels[%d] for %v = %q, want %q", name, code, k, got, want)
			}
		}
	}
}

func (f *fixture) token(t *testing.T, scopes ...string) string {
	t.Helper()
	if scopes == nil {
		scopes = []string{apps.PermPublishActions}
	}
	res, err := f.oauth.Authorize(oauthsim.AuthorizeRequest{
		AppID:        f.app.ID,
		RedirectURI:  f.app.RedirectURI,
		ResponseType: oauthsim.ResponseToken,
		Scopes:       scopes,
		AccountID:    f.user.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.AccessToken
}

func TestLikeHappyPath(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t)
	ctx := CallContext{AccessToken: tok, SourceIP: "203.0.113.7"}
	if err := f.api.Like(ctx, f.post.ID); err != nil {
		t.Fatal(err)
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 1 {
		t.Fatalf("likes = %d", len(likes))
	}
	l := likes[0]
	if l.AccountID != f.user.ID || l.AppID != f.app.ID || l.SourceIP != "203.0.113.7" {
		t.Fatalf("like attribution = %+v", l)
	}
}

func TestLikeDuplicate(t *testing.T) {
	f := newFixture(t)
	ctx := CallContext{AccessToken: f.token(t)}
	if err := f.api.Like(ctx, f.post.ID); err != nil {
		t.Fatal(err)
	}
	err := f.api.Like(ctx, f.post.ID)
	if ErrCode(err) != CodeDuplicate {
		t.Fatalf("duplicate like err = %v (code %d)", err, ErrCode(err))
	}
}

func TestLikeRequiresPublishActions(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, apps.PermPublicProfile)
	err := f.api.Like(CallContext{AccessToken: tok}, f.post.ID)
	if ErrCode(err) != CodePermission {
		t.Fatalf("err = %v (code %d), want permission error", err, ErrCode(err))
	}
}

func TestInvalidTokenRejected(t *testing.T) {
	f := newFixture(t)
	err := f.api.Like(CallContext{AccessToken: "bogus"}, f.post.ID)
	if ErrCode(err) != CodeInvalidToken {
		t.Fatalf("err = %v (code %d)", err, ErrCode(err))
	}
	tok := f.token(t)
	f.oauth.Invalidate(tok, "honeypot")
	err = f.api.Like(CallContext{AccessToken: tok}, f.post.ID)
	if ErrCode(err) != CodeInvalidToken {
		t.Fatalf("invalidated token err = %v (code %d)", err, ErrCode(err))
	}
}

func TestExpiredTokenRejected(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t)
	f.clock.Advance(61 * 24 * time.Hour)
	err := f.api.Like(CallContext{AccessToken: tok}, f.post.ID)
	if ErrCode(err) != CodeInvalidToken {
		t.Fatalf("expired token err = %v (code %d)", err, ErrCode(err))
	}
}

func TestSecretProofEnforcement(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t)
	if err := f.reg.SetSecuritySettings(f.app.ID, true, true); err != nil {
		t.Fatal(err)
	}
	err := f.api.Like(CallContext{AccessToken: tok}, f.post.ID)
	if ErrCode(err) != CodeSecretProof {
		t.Fatalf("missing proof err = %v (code %d)", err, ErrCode(err))
	}
	proof := oauthsim.SecretProof(f.app.Secret, tok)
	if err := f.api.Like(CallContext{AccessToken: tok, AppSecretProof: proof}, f.post.ID); err != nil {
		t.Fatalf("valid proof err = %v", err)
	}
}

func TestSuspendedAppRejected(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t)
	_ = f.reg.SetSuspended(f.app.ID, true)
	err := f.api.Like(CallContext{AccessToken: tok}, f.post.ID)
	if ErrCode(err) != CodeAppSuspended {
		t.Fatalf("err = %v (code %d)", err, ErrCode(err))
	}
}

func TestCommentAndPublish(t *testing.T) {
	f := newFixture(t)
	ctx := CallContext{AccessToken: f.token(t)}
	c, err := f.api.Comment(ctx, f.post.ID, "AW E S O M E")
	if err != nil {
		t.Fatal(err)
	}
	if c.Message != "AW E S O M E" {
		t.Fatalf("comment = %+v", c)
	}
	if _, err := f.api.Comment(ctx, "bogus", "x"); ErrCode(err) != CodeNotFound {
		t.Fatalf("comment on missing post code = %d", ErrCode(err))
	}
	if _, err := f.api.Comment(ctx, f.post.ID, ""); ErrCode(err) != CodeInvalidParam {
		t.Fatalf("empty comment code = %d", ErrCode(err))
	}
	p, err := f.api.Publish(ctx, "my status update")
	if err != nil {
		t.Fatal(err)
	}
	if p.AuthorID != f.user.ID {
		t.Fatalf("post author = %q", p.AuthorID)
	}
}

func TestMeAndReads(t *testing.T) {
	f := newFixture(t)
	ctx := CallContext{AccessToken: f.token(t)}
	acct, err := f.api.Me(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if acct.ID != f.user.ID {
		t.Fatalf("Me = %+v", acct)
	}
	if err := f.api.Like(ctx, f.post.ID); err != nil {
		t.Fatal(err)
	}
	likes, err := f.api.Likes(ctx, f.post.ID)
	if err != nil || len(likes) != 1 {
		t.Fatalf("Likes = %v, %v", likes, err)
	}
	if _, err := f.api.Likes(CallContext{AccessToken: "bogus"}, f.post.ID); ErrCode(err) != CodeInvalidToken {
		t.Fatalf("read with bad token code = %d", ErrCode(err))
	}
}

// denyPolicy denies requests matching a predicate.
type denyPolicy struct {
	name string
	deny func(Request) bool
}

func (p denyPolicy) Name() string { return p.name }
func (p denyPolicy) Evaluate(r Request) Decision {
	if p.deny(r) {
		return Denied(p.name, "test denial")
	}
	return Allowed()
}

func TestPolicyChainDeniesWrites(t *testing.T) {
	f := newFixture(t)
	ctx := CallContext{AccessToken: f.token(t)}
	f.api.Chain().Append(denyPolicy{name: "token-rate-limit", deny: func(r Request) bool { return r.Verb == VerbLike }})
	err := f.api.Like(ctx, f.post.ID)
	if ErrCode(err) != CodeRateLimited {
		t.Fatalf("denied like code = %d, want %d", ErrCode(err), CodeRateLimited)
	}
	// Comments are unaffected by the like-only policy.
	if _, err := f.api.Comment(ctx, f.post.ID, "still works"); err != nil {
		t.Fatal(err)
	}
	den := f.api.Chain().Denials()
	if den["token-rate-limit"] != 1 {
		t.Fatalf("denials = %v", den)
	}
	if got := f.graph.LikeCount(f.post.ID); got != 0 {
		t.Fatalf("denied like reached the store: %d", got)
	}
}

func TestPolicyChainOrder(t *testing.T) {
	c := NewChain()
	c.Append(denyPolicy{name: "first", deny: func(Request) bool { return true }})
	c.Append(denyPolicy{name: "second", deny: func(Request) bool { return true }})
	d := c.Evaluate(Request{})
	if d.Policy != "first" {
		t.Fatalf("first denier = %q", d.Policy)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "first" || names[1] != "second" {
		t.Fatalf("Names = %v", names)
	}
}

// TestChainAppendDuringEvaluate appends policies while other goroutines
// evaluate requests: under -race it fails if Evaluate reads the policy
// list unsynchronized, and the denial counts must match the denials the
// evaluators saw.
func TestChainAppendDuringEvaluate(t *testing.T) {
	c := NewChain()
	const n = 50
	var denied atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if d := c.Evaluate(Request{Verb: VerbLike}); !d.Allow {
					denied.Add(1)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		c.Append(denyPolicy{name: strconv.Itoa(i), deny: func(Request) bool { return i%10 == 9 }})
	}
	wg.Wait()
	names := c.Names()
	if len(names) != n {
		t.Fatalf("Names = %d policies, want %d", len(names), n)
	}
	for i, name := range names {
		if name != strconv.Itoa(i) {
			t.Fatalf("Names[%d] = %q", i, name)
		}
	}
	var counted int64
	for _, v := range c.Denials() {
		counted += v
	}
	if counted != denied.Load() {
		t.Fatalf("Denials sum to %d, evaluators saw %d denials", counted, denied.Load())
	}
}

// TestRequestCarriesAttributionTuple records what the policy chain sees
// on each write path: the presented token, the token's account and app,
// the source IP, and its AS (0 outside every registered AS). The batch
// mixes tokens of two apps and IPs in and out of the registered AS, so a
// per-batch memo that leaked one op's app or AS into another shows.
func TestRequestCarriesAttributionTuple(t *testing.T) {
	f := newFixture(t)
	var seen []Request
	f.api.Chain().Append(denyPolicy{name: "record", deny: func(r Request) bool {
		seen = append(seen, r)
		return false
	}})
	other := f.reg.Register(apps.Config{
		Name:              "Other",
		RedirectURI:       "https://other.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublishActions},
	})
	member := f.graph.CreateAccount("member-2", "IN", t0)
	res, err := f.oauth.Authorize(oauthsim.AuthorizeRequest{
		AppID:        other.ID,
		RedirectURI:  other.RedirectURI,
		ResponseType: oauthsim.ResponseToken,
		Scopes:       []string{apps.PermPublishActions},
		AccountID:    member.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	tokA, tokB := f.token(t), res.AccessToken
	post2, err := f.graph.CreatePost(member.ID, "second post", socialgraph.WriteMeta{At: t0})
	if err != nil {
		t.Fatal(err)
	}
	const inAS, outside = "203.0.113.50", "198.51.100.7"

	ctx := CallContext{AccessToken: tokA, SourceIP: inAS}
	if err := f.api.Like(ctx, f.post.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.api.Comment(ctx, f.post.ID, "nice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.api.Publish(CallContext{AccessToken: tokB, SourceIP: outside}, "status"); err != nil {
		t.Fatal(err)
	}
	for i, err := range f.api.LikeBatch(context.Background(), post2.ID, []BatchLikeOp{
		{Token: tokA, IP: outside},
		{Token: tokB, IP: inAS},
	}) {
		if err != nil {
			t.Fatalf("batch op %d: %v", i, err)
		}
	}

	a := Request{Token: tokA, AccountID: f.user.ID, AppID: f.app.ID, At: t0}
	b := Request{Token: tokB, AccountID: member.ID, AppID: other.ID, At: t0}
	with := func(r Request, verb Verb, object, message, ip string, asn netsim.ASN) Request {
		r.Verb, r.ObjectID, r.Message, r.SourceIP, r.ASN = verb, object, message, ip, asn
		return r
	}
	want := []Request{
		with(a, VerbLike, f.post.ID, "", inAS, 64500),
		with(a, VerbComment, f.post.ID, "nice", inAS, 64500),
		with(b, VerbPost, "", "status", outside, 0),
		with(a, VerbLike, post2.ID, "", outside, 0),
		with(b, VerbLike, post2.ID, "", inAS, 64500),
	}
	if len(seen) != len(want) {
		t.Fatalf("policy saw %d requests, want %d: %+v", len(seen), len(want), seen)
	}
	for i, got := range seen {
		if !got.At.Equal(want[i].At) {
			t.Errorf("request %d: At = %v, want %v", i, got.At, want[i].At)
		}
		got.At = want[i].At
		if got != want[i] {
			t.Errorf("request %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

func TestAPIErrorFormatting(t *testing.T) {
	err := &APIError{Code: CodeRateLimited, Type: "PolicyException", Message: "limit 10", Kind: provider.KindRateLimited}
	want := "graphapi: (#613) PolicyException: limit 10"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	if ErrCode(errors.New("plain")) != 0 {
		t.Fatal("ErrCode(plain) != 0")
	}
}

func TestManyAccountsLikeViaAPI(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 50; i++ {
		u := f.graph.CreateAccount(fmt.Sprintf("m%d", i), "IN", t0)
		res, err := f.oauth.Authorize(oauthsim.AuthorizeRequest{
			AppID:        f.app.ID,
			RedirectURI:  f.app.RedirectURI,
			ResponseType: oauthsim.ResponseToken,
			Scopes:       []string{apps.PermPublishActions},
			AccountID:    u.ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.api.Like(CallContext{AccessToken: res.AccessToken}, f.post.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.graph.LikeCount(f.post.ID); got != 50 {
		t.Fatalf("LikeCount = %d, want 50", got)
	}
}
