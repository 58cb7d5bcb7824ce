package oauthsim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
)

func shortTermFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixture(t, apps.Config{
		Name:              "Short App",
		RedirectURI:       "https://short.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.ShortTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
}

func TestExchangeForLongLived(t *testing.T) {
	f := shortTermFixture(t)
	res, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if err != nil {
		t.Fatal(err)
	}
	long, err := f.srv.ExchangeForLongLived(f.app.ID, f.app.Secret, res.AccessToken)
	if err != nil {
		t.Fatal(err)
	}
	if long.Token == res.AccessToken {
		t.Fatal("exchange returned the same token")
	}
	if got := long.ExpiresAt.Sub(long.IssuedAt); got != apps.LongTermDuration {
		t.Fatalf("long-lived duration = %v", got)
	}
	if long.AccountID != f.user.ID || !long.HasScope(apps.PermPublishActions) {
		t.Fatalf("long token = %+v", long)
	}
	// The original short token is unaffected until its own expiry.
	if _, err := f.srv.Validate(res.AccessToken); err != nil {
		t.Fatalf("original token invalidated: %v", err)
	}
	// After the short lifetime passes, the long-lived one still works.
	f.clock.Advance(3 * time.Hour)
	if _, err := f.srv.Validate(res.AccessToken); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("short token err = %v", err)
	}
	if _, err := f.srv.Validate(long.Token); err != nil {
		t.Fatalf("long token err = %v", err)
	}
}

func TestExchangeForLongLivedRequiresSecret(t *testing.T) {
	f := shortTermFixture(t)
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseToken))
	// The attacker holding only the leaked token cannot extend it.
	if _, err := f.srv.ExchangeForLongLived(f.app.ID, "guessed-secret", res.AccessToken); !errors.Is(err, ErrBadSecret) {
		t.Fatalf("bad secret err = %v", err)
	}
}

func TestExchangeForLongLivedValidation(t *testing.T) {
	f := shortTermFixture(t)
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if _, err := f.srv.ExchangeForLongLived("ghost-app", "x", res.AccessToken); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app err = %v", err)
	}
	if _, err := f.srv.ExchangeForLongLived(f.app.ID, f.app.Secret, "bogus"); !errors.Is(err, ErrTokenNotFound) {
		t.Fatalf("bogus token err = %v", err)
	}
	// A token of a different app cannot be extended with this app's secret.
	other := f.reg.Register(apps.Config{
		Name:              "Other",
		RedirectURI:       "https://other.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.ShortTerm,
		Permissions:       []string{apps.PermPublicProfile},
	})
	otherRes, err := f.srv.Authorize(AuthorizeRequest{
		AppID:        other.ID,
		RedirectURI:  other.RedirectURI,
		ResponseType: ResponseToken,
		Scopes:       []string{apps.PermPublicProfile},
		AccountID:    f.user.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.ExchangeForLongLived(f.app.ID, f.app.Secret, otherRes.AccessToken); !errors.Is(err, ErrTokenNotFound) {
		t.Fatalf("cross-app exchange err = %v", err)
	}
	// Invalidated tokens cannot be extended.
	f.srv.Invalidate(res.AccessToken, "swept")
	if _, err := f.srv.ExchangeForLongLived(f.app.ID, f.app.Secret, res.AccessToken); !errors.Is(err, ErrTokenInvalidated) {
		t.Fatalf("invalidated exchange err = %v", err)
	}
}

func TestInvalidateAccountCoversExchangedTokens(t *testing.T) {
	f := shortTermFixture(t)
	res, _ := f.srv.Authorize(f.authorizeReq(ResponseToken))
	long, err := f.srv.ExchangeForLongLived(f.app.ID, f.app.Secret, res.AccessToken)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.srv.InvalidateAccount(f.user.ID, "sweep"); n != 2 {
		t.Fatalf("InvalidateAccount = %d, want 2 (short + long)", n)
	}
	if _, err := f.srv.Validate(long.Token); !errors.Is(err, ErrTokenInvalidated) {
		t.Fatalf("long token survived account sweep: %v", err)
	}
}

// TestInvalidateAccountChain walks an account's grant chain: a token and
// the long-lived token exchanged for it are both revoked with the sweep's
// reason, another account's token stays live, and a second sweep finds
// nothing left to revoke.
func TestInvalidateAccountChain(t *testing.T) {
	f := shortTermFixture(t)
	res, err := f.srv.Authorize(f.authorizeReq(ResponseToken))
	if err != nil {
		t.Fatal(err)
	}
	long, err := f.srv.ExchangeForLongLived(f.app.ID, f.app.Secret, res.AccessToken)
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
		t.Fatalf("InvalidateAccount = %d, want 2 (token + exchanged token)", n)
	}
	for _, tok := range []string{res.AccessToken, long.Token} {
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
