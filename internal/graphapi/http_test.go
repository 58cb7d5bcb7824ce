package graphapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/socialgraph"
)

func newHTTPFixture(t *testing.T) (*fixture, *httptest.Server) {
	t.Helper()
	f := newFixture(t)
	srv := httptest.NewServer(Handler(f.api))
	t.Cleanup(srv.Close)
	return f, srv
}

// noRedirect returns a client that surfaces 302s instead of following them,
// like a scraper inspecting the Location header.
func noRedirect() *http.Client {
	return &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

func dialogURL(srv *httptest.Server, f *fixture, responseType string) string {
	q := url.Values{}
	q.Set("client_id", f.app.ID)
	q.Set("redirect_uri", f.app.RedirectURI)
	q.Set("response_type", responseType)
	q.Set("scope", apps.PermPublishActions)
	q.Set("account_id", f.user.ID)
	return srv.URL + "/dialog/oauth?" + q.Encode()
}

// tokenFromFragment extracts access_token from a redirect Location header.
func tokenFromFragment(t *testing.T, loc string) string {
	t.Helper()
	u, err := url.Parse(loc)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := url.ParseQuery(u.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	tok := frag.Get("access_token")
	if tok == "" {
		t.Fatalf("no access_token in fragment of %q", loc)
	}
	return tok
}

func TestHTTPImplicitFlowLeaksTokenInFragment(t *testing.T) {
	f, srv := newHTTPFixture(t)
	resp, err := noRedirect().Get(dialogURL(srv, f, "token"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d, want 302", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	tok := tokenFromFragment(t, loc)
	// The leaked token is immediately usable — the heart of the attack.
	if _, err := f.oauth.Validate(tok); err != nil {
		t.Fatalf("leaked token invalid: %v", err)
	}
	u, _ := url.Parse(loc)
	frag, _ := url.ParseQuery(u.Fragment)
	if frag.Get("expires_in") == "" {
		t.Fatal("fragment missing expires_in")
	}
}

func TestHTTPCodeFlowExchange(t *testing.T) {
	f, srv := newHTTPFixture(t)
	resp, err := noRedirect().Get(dialogURL(srv, f, "code"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	loc, _ := url.Parse(resp.Header.Get("Location"))
	code := loc.Query().Get("code")
	if code == "" {
		t.Fatalf("no code in redirect %q", loc)
	}
	form := url.Values{}
	form.Set("client_id", f.app.ID)
	form.Set("client_secret", f.app.Secret)
	form.Set("redirect_uri", f.app.RedirectURI)
	form.Set("code", code)
	xresp, err := http.PostForm(srv.URL+"/oauth/access_token", form)
	if err != nil {
		t.Fatal(err)
	}
	defer xresp.Body.Close()
	var body struct {
		AccessToken string `json:"access_token"`
		TokenType   string `json:"token_type"`
		ExpiresIn   int64  `json:"expires_in"`
	}
	if err := json.NewDecoder(xresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.AccessToken == "" || body.TokenType != "bearer" || body.ExpiresIn <= 0 {
		t.Fatalf("exchange body = %+v", body)
	}
	if _, err := f.oauth.Validate(body.AccessToken); err != nil {
		t.Fatalf("exchanged token invalid: %v", err)
	}
}

func TestHTTPExchangeBadSecret(t *testing.T) {
	f, srv := newHTTPFixture(t)
	resp, err := noRedirect().Get(dialogURL(srv, f, "code"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	loc, _ := url.Parse(resp.Header.Get("Location"))
	form := url.Values{}
	form.Set("client_id", f.app.ID)
	form.Set("client_secret", "wrong")
	form.Set("redirect_uri", f.app.RedirectURI)
	form.Set("code", loc.Query().Get("code"))
	xresp, err := http.PostForm(srv.URL+"/oauth/access_token", form)
	if err != nil {
		t.Fatal(err)
	}
	defer xresp.Body.Close()
	if xresp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", xresp.StatusCode)
	}
}

func httpToken(t *testing.T, f *fixture, srv *httptest.Server) string {
	t.Helper()
	resp, err := noRedirect().Get(dialogURL(srv, f, "token"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return tokenFromFragment(t, resp.Header.Get("Location"))
}

func TestHTTPLikeAndReadBack(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)

	form := url.Values{"access_token": {tok}}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/"+f.post.ID+"/likes", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("X-Forwarded-For", "203.0.113.10")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("like status = %d body=%s", resp.StatusCode, b)
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 1 || likes[0].SourceIP != "203.0.113.10" {
		t.Fatalf("likes = %+v", likes)
	}

	// Read the likes edge back.
	rresp, err := http.Get(srv.URL + "/" + f.post.ID + "/likes?access_token=" + tok)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var body struct {
		Data []struct {
			ID string `json:"id"`
		} `json:"data"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Data) != 1 || body.Data[0].ID != f.user.ID {
		t.Fatalf("likes read = %+v", body)
	}
}

func TestHTTPCommentsAndFeed(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)

	form := url.Values{"access_token": {tok}, "message": {"nice post bro"}}
	resp, err := http.PostForm(srv.URL+"/"+f.post.ID+"/comments", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comment status = %d", resp.StatusCode)
	}

	if cs := f.graph.Comments(f.post.ID); len(cs) != 1 || cs[0].Message != "nice post bro" || cs[0].AccountID != f.user.ID {
		t.Fatalf("comments = %+v", cs)
	}

	fresp, err := http.PostForm(srv.URL+"/me/feed", url.Values{"access_token": {tok}, "message": {"status"}})
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var fbody struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&fbody); err != nil {
		t.Fatal(err)
	}
	if fbody.ID == "" {
		t.Fatal("feed post returned no id")
	}
	posted := false
	for _, a := range f.graph.ActivityLog(f.user.ID) {
		posted = posted || (a.Verb == socialgraph.VerbPost && a.ObjectID == fbody.ID && a.TargetID == f.user.ID)
	}
	if !posted {
		t.Fatalf("feed post %s not in %s's activity log", fbody.ID, f.user.ID)
	}
}

func TestHTTPMe(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	resp, err := http.Get(srv.URL + "/me?access_token=" + tok)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		ID      string `json:"id"`
		Name    string `json:"name"`
		Country string `json:"country"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ID != f.user.ID || body.Country != "IN" {
		t.Fatalf("me = %+v", body)
	}
}

func TestHTTPErrorEnvelope(t *testing.T) {
	_, srv := newHTTPFixture(t)
	resp, err := http.Get(srv.URL + "/me?access_token=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeInvalidToken || env.Error.Type != "OAuthException" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestHTTPRateLimitStatus(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	f.api.Chain().Append(denyPolicy{name: "token-rate-limit", deny: func(Request) bool { return true }})
	resp, err := http.PostForm(srv.URL+"/"+f.post.ID+"/likes", url.Values{"access_token": {tok}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
}

func TestHTTPUnknownPaths(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	for _, path := range []string{"/a/b/c", "/" + f.post.ID + "/unknown-edge"} {
		resp, err := http.Get(srv.URL + path + "?access_token=" + tok)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPDialogRejectsBadApp(t *testing.T) {
	f, srv := newHTTPFixture(t)
	q := url.Values{}
	q.Set("client_id", "ghost")
	q.Set("redirect_uri", f.app.RedirectURI)
	q.Set("response_type", "token")
	q.Set("account_id", f.user.ID)
	resp, err := noRedirect().Get(srv.URL + "/dialog/oauth?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPViewSourceWorkflowEndToEnd(t *testing.T) {
	// Reproduce the collusion network instruction sheet (Fig. 3): open the
	// dialog, stop at the redirect, copy the token out of the address bar,
	// then use it from a different IP via the Graph API.
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv) // "copied from the address bar"

	// Token replayed from the collusion network's delivery IP.
	form := url.Values{"access_token": {tok}}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/"+f.post.ID+"/likes", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("X-Forwarded-For", "203.0.113.200")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed like status = %d", resp.StatusCode)
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 1 || likes[0].SourceIP != "203.0.113.200" {
		t.Fatalf("replayed like = %+v", likes)
	}

	// The oauth flow issuer (user) and replay IP differ — the platform
	// still attributes the like to the member account, as on Facebook.
	if likes[0].AccountID != f.user.ID {
		t.Fatalf("like account = %q, want %q", likes[0].AccountID, f.user.ID)
	}
}
