package graphapi

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// The HTTP surface must degrade gracefully on adversarial or malformed
// input: wrong methods, missing parameters, junk paths, and oversized
// bodies must produce structured errors, never panics or 500s.
func TestHTTPMalformedInputs(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus []int
	}{
		{"empty token like", http.MethodPost, "/" + f.post.ID + "/likes", "access_token=", []int{401}},
		{"missing params dialog", http.MethodGet, "/dialog/oauth", "", []int{400}},
		{"dialog bad scope", http.MethodGet,
			"/dialog/oauth?client_id=" + f.app.ID + "&redirect_uri=" + url.QueryEscape(f.app.RedirectURI) +
				"&response_type=token&scope=%00%01garbage&account_id=" + f.user.ID, "", []int{400}},
		{"exchange empty", http.MethodPost, "/oauth/access_token", "", []int{401}},
		{"exchange junk grant", http.MethodPost, "/oauth/access_token",
			"grant_type=password&username=x&password=y", []int{401}},
		// Tokens are not extended: the grant is read as a code swap
		// without a code.
		{"exchange fb_exchange_token", http.MethodPost, "/oauth/access_token",
			"grant_type=fb_exchange_token&client_id=" + f.app.ID + "&client_secret=" + f.app.Secret +
				"&fb_exchange_token=" + tok, []int{401}},
		{"debug_token is an unknown path", http.MethodGet, "/debug_token?client_id=" + f.app.ID +
			"&client_secret=" + f.app.Secret + "&input_token=" + tok, "", []int{404}},
		{"object with slashes", http.MethodGet, "/a/b/c/d?access_token=" + tok, "", []int{404}},
		// likes is a known edge, so a method it does not take answers 400
		// (GraphMethodException, "GET or POST required"), as /me/feed
		// and /batch answer theirs; 404 is for an unknown edge.
		{"delete method on likes", http.MethodDelete, "/" + f.post.ID + "/likes?access_token=" + tok, "", []int{400}},
		{"comments GET refused", http.MethodGet, "/" + f.post.ID + "/comments?access_token=" + tok, "", []int{400}},
		// Reading the likes edge of a garbage object ID returns an empty
		// list (reads are forgiving); the guarantee is no panic/5xx.
		{"percent-encoded nulls in path", http.MethodGet, "/%00%01/likes?access_token=" + tok, "", []int{200, 400, 404}},
		{"huge message", http.MethodPost, "/me/feed",
			"access_token=" + tok + "&message=" + strings.Repeat("A", 1<<16), []int{200}},
		{"feed GET refused", http.MethodGet, "/me/feed?access_token=" + tok, "", []int{400}},
		{"feed PUT refused", http.MethodPut, "/me/feed?access_token=" + tok, "", []int{400}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			var err error
			if tc.body != "" {
				req, err = http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
				if err == nil {
					req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
				}
			} else {
				req, err = http.NewRequest(tc.method, srv.URL+tc.path, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			ok := false
			for _, want := range tc.wantStatus {
				if resp.StatusCode == want {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("status = %d, want one of %v", resp.StatusCode, tc.wantStatus)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("server error: %d", resp.StatusCode)
			}
		})
	}
}

// TestHTTPForwardedForSpoofHandling: the first X-Forwarded-For entry is
// trusted as the source IP (the simulation's attribution channel); a
// multi-hop header must not confuse parsing.
func TestHTTPForwardedForSpoofHandling(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/"+f.post.ID+"/likes",
		strings.NewReader("access_token="+tok))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("X-Forwarded-For", "203.0.113.9, 10.0.0.1, 172.16.0.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 1 || likes[0].SourceIP != "203.0.113.9" {
		t.Fatalf("likes = %+v", likes)
	}
}
