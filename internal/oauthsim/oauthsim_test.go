package oauthsim

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

var t0 = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	clock *simclock.Simulated
	reg   *apps.Registry
	graph *socialgraph.Store
	srv   *Server
	app   apps.App
	user  socialgraph.Account
}

func newFixture(t *testing.T, cfg apps.Config) *fixture {
	t.Helper()
	clock := simclock.NewSimulated(t0)
	reg := apps.NewRegistry()
	graph := socialgraph.New(0, 0)
	if cfg.Name == "" {
		cfg = apps.Config{
			Name:              "HTC Sense",
			RedirectURI:       "https://htc.example/callback",
			ClientFlowEnabled: true,
			Lifetime:          apps.LongTerm,
			Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
		}
	}
	app := reg.Register(cfg)
	user := graph.CreateAccount("member", "IN", t0)
	return &fixture{
		clock: clock,
		reg:   reg,
		graph: graph,
		srv:   NewServer(provider.Default(), clock, reg, graph),
		app:   app,
		user:  user,
	}
}

func (f *fixture) authorizeReq(rt ResponseType) AuthorizeRequest {
	return AuthorizeRequest{
		AppID:        f.app.ID,
		RedirectURI:  f.app.RedirectURI,
		ResponseType: rt,
		Scopes:       []string{apps.PermPublishActions},
		AccountID:    f.user.ID,
	}
}

func TestImplicitFlowIssuesToken(t *testing.T) {
	f := newFixture(t, apps.Config{})
	res, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessToken == "" || res.Code != "" {
		t.Fatalf("implicit result = %+v", res)
	}
	wantExpiry := int64(apps.LongTermDuration / time.Second)
	if res.ExpiresIn != wantExpiry {
		t.Fatalf("ExpiresIn = %d, want %d", res.ExpiresIn, wantExpiry)
	}
	info, err := f.srv.Validate(res.AccessToken)
	if err != nil {
		t.Fatal(err)
	}
	if info.AccountID != f.user.ID || info.AppID != f.app.ID {
		t.Fatalf("TokenInfo = %+v", info)
	}
	if !info.HasScope(apps.PermPublishActions) {
		t.Fatal("token missing publish_actions scope")
	}
	if info.HasScope(apps.PermEmail) {
		t.Fatal("token has ungranted scope")
	}
}

func TestImplicitFlowRefusedWhenDisabled(t *testing.T) {
	f := newFixture(t, apps.Config{
		Name:              "Secure App",
		RedirectURI:       "https://secure.example/cb",
		ClientFlowEnabled: false,
		Permissions:       []string{apps.PermPublishActions},
	})
	_, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if !errors.Is(err, ErrClientFlowDisabled) {
		t.Fatalf("err = %v, want ErrClientFlowDisabled", err)
	}
	// Server-side flow remains available.
	res, err := f.srv.Authorize(f.authorizeReq(ResponseCode))
	if err != nil || res.Code == "" {
		t.Fatalf("code flow = %+v, %v", res, err)
	}
}

func TestAuthorizeValidation(t *testing.T) {
	f := newFixture(t, apps.Config{})
	cases := []struct {
		name   string
		mutate func(*AuthorizeRequest)
		want   error
	}{
		{"unknown app", func(r *AuthorizeRequest) { r.AppID = "nope" }, ErrUnknownApp},
		{"redirect mismatch", func(r *AuthorizeRequest) { r.RedirectURI = "https://evil.example" }, ErrRedirectMismatch},
		{"unapproved scope", func(r *AuthorizeRequest) { r.Scopes = []string{apps.PermUserFriends} }, ErrScopeNotApproved},
		{"unknown account", func(r *AuthorizeRequest) { r.AccountID = "ghost" }, ErrUnknownAccount},
		{"bad response type", func(r *AuthorizeRequest) { r.ResponseType = "password" }, ErrBadResponseType},
	}
	for _, tc := range cases {
		req := f.authorizeReq(ResponseToken)
		tc.mutate(&req)
		if _, err := f.srv.Authorize(req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestAuthorizeSuspendedApp(t *testing.T) {
	f := newFixture(t, apps.Config{})
	if err := f.reg.SetSuspended(f.app.ID, true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Authorize(f.authorizeReq(ResponseToken)); !errors.Is(err, ErrAppSuspended) {
		t.Fatalf("err = %v, want ErrAppSuspended", err)
	}
}

func TestCodeFlowRoundTrip(t *testing.T) {
	f := newFixture(t, apps.Config{})
	res, err := f.srv.Authorize(f.authorizeReq(ResponseCode))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code == "" || res.AccessToken != "" {
		t.Fatalf("code result = %+v", res)
	}
	info, err := f.srv.ExchangeCode(f.app.ID, f.app.Secret, f.app.RedirectURI, res.Code)
	if err != nil {
		t.Fatal(err)
	}
	if info.AccountID != f.user.ID {
		t.Fatalf("exchanged token account = %q", info.AccountID)
	}
	// Codes are single use.
	if _, err := f.srv.ExchangeCode(f.app.ID, f.app.Secret, f.app.RedirectURI, res.Code); !errors.Is(err, ErrInvalidCode) {
		t.Fatalf("code reuse err = %v, want ErrInvalidCode", err)
	}
}

func TestCodeFlowRejectsBadSecretAndRedirect(t *testing.T) {
	f := newFixture(t, apps.Config{})
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseCode))
	if _, err := f.srv.ExchangeCode(f.app.ID, "wrong", f.app.RedirectURI, res.Code); !errors.Is(err, ErrBadSecret) {
		t.Fatalf("bad secret err = %v", err)
	}
	if _, err := f.srv.ExchangeCode(f.app.ID, f.app.Secret, "https://evil.example", res.Code); !errors.Is(err, ErrInvalidCode) {
		t.Fatalf("bad redirect err = %v", err)
	}
	if _, err := f.srv.ExchangeCode("ghost", "x", f.app.RedirectURI, res.Code); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app err = %v", err)
	}
}

func TestCodeExpires(t *testing.T) {
	f := newFixture(t, apps.Config{})
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseCode))
	f.clock.Advance(11 * time.Minute)
	if _, err := f.srv.ExchangeCode(f.app.ID, f.app.Secret, f.app.RedirectURI, res.Code); !errors.Is(err, ErrInvalidCode) {
		t.Fatalf("expired code err = %v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	short := apps.Config{
		Name:              "Short",
		RedirectURI:       "https://short.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.ShortTerm,
		Permissions:       []string{apps.PermPublishActions},
	}
	f := newFixture(t, short)
	res, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Hour)
	if _, err := f.srv.Validate(res.AccessToken); err != nil {
		t.Fatalf("token invalid before expiry: %v", err)
	}
	f.clock.Advance(time.Hour)
	if _, err := f.srv.Validate(res.AccessToken); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("expired token err = %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	f := newFixture(t, apps.Config{})
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if !f.srv.Invalidate(res.AccessToken, "honeypot-milked") {
		t.Fatal("Invalidate returned false for live token")
	}
	_, err := f.srv.Validate(res.AccessToken)
	if !errors.Is(err, ErrTokenInvalidated) {
		t.Fatalf("err = %v, want ErrTokenInvalidated", err)
	}
	if f.srv.Invalidate(res.AccessToken, "again") {
		t.Fatal("double invalidation returned true")
	}
	if f.srv.Invalidate("ghost-token", "x") {
		t.Fatal("invalidating unknown token returned true")
	}
	if _, err := f.srv.Validate("ghost-token"); !errors.Is(err, ErrTokenNotFound) {
		t.Fatalf("unknown token err = %v", err)
	}
}

func TestInvalidateAccount(t *testing.T) {
	f := newFixture(t, apps.Config{})
	var toks []string
	for i := 0; i < 3; i++ {
		res, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, res.AccessToken)
	}
	if n := f.srv.InvalidateAccount(f.user.ID, "sweep"); n != 3 {
		t.Fatalf("InvalidateAccount = %d, want 3", n)
	}
	for _, tok := range toks {
		if _, err := f.srv.Validate(tok); !errors.Is(err, ErrTokenInvalidated) {
			t.Fatalf("token %q err = %v", tok, err)
		}
	}
	if n := f.srv.InvalidateAccount(f.user.ID, "sweep"); n != 0 {
		t.Fatalf("second sweep revoked %d", n)
	}
}

// TestInvalidateAccountChain walks an account's grant chain: both of its
// tokens are revoked with the sweep's reason, another account's token
// stays live, and a second sweep finds nothing left to revoke.
func TestInvalidateAccountChain(t *testing.T) {
	f := newFixture(t, apps.Config{})
	first, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if err != nil {
		t.Fatal(err)
	}
	other := f.graph.CreateAccount("other", "IN", t0)
	req := f.authorizeReq(ResponseToken)
	req.AccountID = other.ID
	otherRes, err := f.srv.Authorize(req)
	if err != nil {
		t.Fatal(err)
	}

	if n := f.srv.InvalidateAccount(f.user.ID, "chain-sweep"); n != 2 {
		t.Fatalf("InvalidateAccount = %d, want 2 (both grants)", n)
	}
	for _, tok := range []string{first.AccessToken, second.AccessToken} {
		_, err := f.srv.Validate(tok)
		if !errors.Is(err, ErrTokenInvalidated) || !strings.Contains(err.Error(), "(chain-sweep)") {
			t.Fatalf("swept token err = %v, want invalidated (chain-sweep)", err)
		}
	}
	if info, err := f.srv.Validate(otherRes.AccessToken); err != nil || info.AccountID != other.ID {
		t.Fatalf("other account's token revoked or misattributed: err %v", err)
	}
	if n := f.srv.InvalidateAccount(f.user.ID, "chain-sweep"); n != 0 {
		t.Fatalf("second InvalidateAccount = %d, want 0", n)
	}
}

// TestValidateRacesInvalidation validates two tokens while two other
// goroutines revoke them, one by account sweep and one by token. Under
// -race it fails if Validate reads the revocation state outside the
// server's lock; a read outside it races only while the revocation lands
// between the unlock and the read, so the test runs several rounds.
func TestValidateRacesInvalidation(t *testing.T) {
	f := newFixture(t, apps.Config{})
	other := f.graph.CreateAccount("member-2", "IN", t0)
	for round := 0; round < 10; round++ {
		resA, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
		if err != nil {
			t.Fatal(err)
		}
		reqB := f.authorizeReq(ResponseToken)
		reqB.AccountID = other.ID
		resB, err := f.srv.Authorize(reqB)
		if err != nil {
			t.Fatal(err)
		}
		toks := []string{resA.AccessToken, resB.AccessToken}

		started := make(chan struct{})
		var unexpected error
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i == 1 {
					close(started)
				}
				for _, tok := range toks {
					if _, err := f.srv.Validate(tok); err != nil && !errors.Is(err, ErrTokenInvalidated) && unexpected == nil {
						unexpected = err
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-started
			f.srv.InvalidateAccount(f.user.ID, "account-sweep")
		}()
		go func() {
			defer wg.Done()
			<-started
			f.srv.Invalidate(resB.AccessToken, "token-sweep")
		}()
		wg.Wait()
		if unexpected != nil {
			t.Fatalf("round %d: Validate during revocation: %v", round, unexpected)
		}

		for i, reason := range []string{"account-sweep", "token-sweep"} {
			_, err := f.srv.Validate(toks[i])
			if !errors.Is(err, ErrTokenInvalidated) || !strings.Contains(err.Error(), "("+reason+")") {
				t.Errorf("round %d: token revoked by %s: err = %v", round, reason, err)
			}
		}
	}
}

// TestScopeListsShared pins scope-list interning: tokens issued with
// equal lists share one backing array, while another order, another
// list, or the same names split differently get their own.
func TestScopeListsShared(t *testing.T) {
	f := newFixture(t, apps.Config{
		Name:              "Scopes",
		RedirectURI:       "https://scopes.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.ShortTerm,
		Permissions:       []string{"a", "b", "a,b"},
	})
	issue := func(scopes ...string) *TokenInfo {
		t.Helper()
		req := f.authorizeReq(ResponseToken)
		req.Scopes = scopes
		res, err := f.srv.Authorize(req)
		if err != nil {
			t.Fatal(err)
		}
		info, err := f.srv.Validate(res.AccessToken)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(info.Scopes, scopes) {
			t.Fatalf("Scopes = %q, want %q", info.Scopes, scopes)
		}
		return info
	}
	ab := issue("a", "b")
	if got := issue("a", "b"); &got.Scopes[0] != &ab.Scopes[0] {
		t.Error("equal scope lists do not share storage")
	}
	for _, scopes := range [][]string{{"b", "a"}, {"a"}, {"a", "b", "b"}, {"a,b"}} {
		if got := issue(scopes...); &got.Scopes[0] == &ab.Scopes[0] {
			t.Errorf("%q shares storage with [a b]", scopes)
		}
	}
}

func TestSecretProof(t *testing.T) {
	f := newFixture(t, apps.Config{})
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseToken))
	info, _ := f.srv.Validate(res.AccessToken)

	app, err := f.reg.Get(info.AppID)
	if err != nil {
		t.Fatal(err)
	}

	// App does not require the secret: empty proof passes, wrong proof fails.
	if err := VerifySecretProof(&app, info.Token, ""); err != nil {
		t.Fatalf("empty proof err = %v", err)
	}
	if err := VerifySecretProof(&app, info.Token, "deadbeef"); !errors.Is(err, ErrBadSecretProof) {
		t.Fatalf("bad proof err = %v", err)
	}
	good := SecretProof(f.app.Secret, info.Token)
	if err := VerifySecretProof(&app, info.Token, good); err != nil {
		t.Fatalf("good proof err = %v", err)
	}

	// Flip the requirement: empty proof now fails.
	if err := f.reg.SetSecuritySettings(f.app.ID, true, true); err != nil {
		t.Fatal(err)
	}
	if app, err = f.reg.Get(info.AppID); err != nil {
		t.Fatal(err)
	}
	if err := VerifySecretProof(&app, info.Token, ""); !errors.Is(err, ErrSecretProofRequired) {
		t.Fatalf("required proof err = %v", err)
	}
	if err := VerifySecretProof(&app, info.Token, good); err != nil {
		t.Fatalf("good proof with requirement err = %v", err)
	}
}

func TestLiveTokenCount(t *testing.T) {
	f := newFixture(t, apps.Config{})
	for i := 0; i < 5; i++ {
		_, _ = f.srv.Authorize(f.authorizeReq(ResponseToken))
	}
	if n := f.srv.LiveTokenCount(); n != 5 {
		t.Fatalf("LiveTokenCount = %d, want 5", n)
	}
	f.srv.InvalidateAccount(f.user.ID, "sweep")
	if n := f.srv.LiveTokenCount(); n != 0 {
		t.Fatalf("LiveTokenCount after sweep = %d, want 0", n)
	}
}

// Property: a token issued via the implicit flow validates immediately and
// carries exactly the requested scopes.
func TestQuickIssuedTokenValidates(t *testing.T) {
	f := newFixture(t, apps.Config{})
	allScopes := []string{apps.PermPublicProfile, apps.PermPublishActions}
	check := func(scopeMask uint8) bool {
		var scopes []string
		for i, s := range allScopes {
			if scopeMask&(1<<i) != 0 {
				scopes = append(scopes, s)
			}
		}
		req := f.authorizeReq(ResponseToken)
		req.Scopes = scopes
		res, err := f.srv.Authorize(req)
		if err != nil {
			return false
		}
		info, err := f.srv.Validate(res.AccessToken)
		if err != nil {
			return false
		}
		if len(info.Scopes) != len(scopes) {
			return false
		}
		for _, s := range scopes {
			if !info.HasScope(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
