package platform

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graphapi"
	"repro/internal/provider"
)

// brokenServer simulates a platform returning malformed responses — the
// transport-level failures a long-running crawler has to survive.
func brokenServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestHTTPClientMalformedJSON(t *testing.T) {
	srv := brokenServer(t, http.StatusOK, "{not json at all")
	c := NewHTTPClient(srv.URL)
	if _, err := c.Me("tok", ""); err == nil {
		t.Fatal("malformed /me body accepted")
	}
	if _, err := c.LikesOf("tok", "post"); err == nil {
		t.Fatal("malformed likes body accepted")
	}
	if _, err := c.FriendsOf("tok", ""); err == nil {
		t.Fatal("malformed friends body accepted")
	}
}

func TestHTTPClientNonEnvelopeError(t *testing.T) {
	srv := brokenServer(t, http.StatusBadGateway, "upstream exploded")
	c := NewHTTPClient(srv.URL)
	err := c.Like("tok", "post", "")
	if err == nil {
		t.Fatal("502 accepted")
	}
	if !strings.Contains(err.Error(), "502") || !strings.Contains(err.Error(), "upstream exploded") {
		t.Fatalf("error = %v", err)
	}
	// Non-envelope errors carry no Graph API code.
	if code := ErrorCode(err); code != 0 {
		t.Fatalf("code = %d", code)
	}
}

func TestHTTPClientConnectionRefused(t *testing.T) {
	c := NewHTTPClient("http://127.0.0.1:1") // nothing listens on port 1
	if err := c.Like("tok", "post", ""); err == nil {
		t.Fatal("dead endpoint accepted")
	}
	if _, err := c.AuthorizeImplicit("app", "https://x", "acct", nil); err == nil {
		t.Fatal("dead dialog accepted")
	}
}

// TestHTTPClientTransportErrorsRedactToken: a GET carries its token in
// the query, and a failed round trip's error quotes the request URL. The
// error must name the path but not the token.
func TestHTTPClientTransportErrorsRedactToken(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	base := srv.URL
	srv.Close() // nothing listens on base any more
	c := NewHTTPClient(base)
	const tok = "EAABsecretsecretsecret"
	for _, tc := range []struct {
		path string
		call func() error
	}{
		{"/me", func() error { _, err := c.Me(tok, ""); return err }},
		{"/post/likes", func() error { _, err := c.LikesOf(tok, "post"); return err }},
		{"/me/friends", func() error { _, err := c.FriendsOf(tok, ""); return err }},
	} {
		err := tc.call()
		if err == nil {
			t.Fatalf("%s: closed port accepted", tc.path)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.path) || strings.Contains(msg, tok) {
			t.Errorf("%s: error %q must name the path and not the token", tc.path, msg)
		}
	}
}

func TestErrorCodeDispatch(t *testing.T) {
	srv := brokenServer(t, http.StatusTooManyRequests,
		`{"error":{"message":"limit","type":"PolicyException","code":613}}`)
	remote := NewHTTPClient(srv.URL).Like("tok", "post", "")
	if got := ErrorCode(remote); got != 613 {
		t.Fatalf("remote code = %d", got)
	}
	if got := graphapi.ErrKindOf(remote); got != provider.KindRateLimited {
		t.Fatalf("remote kind = %v, want %v", got, provider.KindRateLimited)
	}
	local := &graphapi.APIError{Code: 190, Type: "OAuthException", Message: "dead"}
	if got := ErrorCode(local); got != 190 {
		t.Fatalf("local code = %d", got)
	}
	if !strings.Contains(remote.Error(), "613") {
		t.Fatalf("remote Error() = %q", remote.Error())
	}
}
