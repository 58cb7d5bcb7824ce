// Package scanner implements the application-scanning tool of Section 2.2:
// given a third-party application's login URL, it walks the OAuth flow on
// a disposable test account, attempts to retrieve an access token at the
// client side, and then tries to *use* that token — fetching the test
// account's profile and liking a test post — without presenting an
// application secret. An application for which all steps succeed can be
// exploited for reputation manipulation with leaked tokens.
//
// The dialog walk is the scanner's own: it starts from the app's published
// login URL and reads the token's lifetime (expires_in) out of the
// redirect fragment, which no platform.Client method returns. Every Graph
// API call that uses the token goes through a platform.HTTPClient, the
// client the collusion tooling uses.
//
// The paper's run of this tool over the top 100 Facebook applications
// found 55 susceptible apps, 9 of which were issued long-term tokens
// (Table 1).
package scanner

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/platform"
)

// Result is the scanner's verdict on one application.
type Result struct {
	AppID string
	Name  string
	// Susceptible is true when a client-side token was retrieved and
	// successfully used for a write without an application secret.
	Susceptible bool
	// Reason explains a negative verdict ("client-side flow disabled",
	// "appsecret_proof required", ...).
	Reason string
	// LongTerm reports whether the issued token's lifetime exceeds one
	// day (the paper's short-term tokens lasted 1–2 h, long-term ~60 d).
	LongTerm bool
	// ExpiresIn is the reported token lifetime.
	ExpiresIn time.Duration
	MAU       int
	DAU       int
}

// Scanner drives the platform's HTTP surface.
type Scanner struct {
	client *platform.HTTPClient
	// dialog walks login URLs; it stops at the redirect, whose fragment
	// carries the token.
	dialog *http.Client
	// TestAccountID is the disposable account the scanner installs apps
	// on; TestPostID is the post it likes when publishing a probe post is
	// refused.
	TestAccountID string
	TestPostID    string
}

// New returns a scanner bound to the platform at platformURL, using the
// given test account and post.
func New(platformURL, testAccountID, testPostID string) *Scanner {
	return &Scanner{
		client:        platform.NewHTTPClient(platformURL),
		TestAccountID: testAccountID,
		TestPostID:    testPostID,
		dialog: &http.Client{
			Timeout: 30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

// LoginURL builds an application's public login URL — the artifact the
// scanner starts from, mirroring how real apps publish "Login with
// Facebook" links that embed client_id and redirect_uri.
func LoginURL(platformURL, appID, redirectURI string, scopes []string) string {
	q := url.Values{}
	q.Set("client_id", appID)
	q.Set("redirect_uri", redirectURI)
	q.Set("response_type", "token")
	q.Set("scope", strings.Join(scopes, ","))
	return strings.TrimRight(platformURL, "/") + "/dialog/oauth?" + q.Encode()
}

// ScanLoginURL runs the full probe against one application login URL. The
// app's identity is inferred from the URL's client_id parameter.
func (s *Scanner) ScanLoginURL(loginURL string) Result {
	u, err := url.Parse(loginURL)
	if err != nil {
		return Result{Reason: fmt.Sprintf("unparseable login URL: %v", err)}
	}
	q := u.Query()
	res := Result{AppID: q.Get("client_id")}

	// Step 1: install the application on the test account with the full
	// permission set the app was approved for, via the client-side flow.
	q.Set("account_id", s.TestAccountID)
	u.RawQuery = q.Encode()
	resp, err := s.dialog.Get(u.String())
	if err != nil {
		res.Reason = fmt.Sprintf("dialog request failed: %v", err)
		return res
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		res.Reason = "client-side flow rejected by authorization server"
		return res
	}

	// Step 2: monitor the redirection and retrieve the token from the
	// fragment (the "view-source" position of Figure 3).
	loc, err := url.Parse(resp.Header.Get("Location"))
	if err != nil {
		res.Reason = "unparseable redirect"
		return res
	}
	frag, err := url.ParseQuery(loc.Fragment)
	if err != nil || frag.Get("access_token") == "" {
		res.Reason = "no access token exposed at client side"
		return res
	}
	token := frag.Get("access_token")
	if secs, err := strconv.ParseInt(frag.Get("expires_in"), 10, 64); err == nil {
		res.ExpiresIn = time.Duration(secs) * time.Second
		res.LongTerm = res.ExpiresIn > 24*time.Hour
	}

	// Step 3: use the token without an application secret — first a
	// profile read, then a write: publish a fresh probe post and like it.
	// A fresh post per scan keeps the probe re-runnable (liking a fixed
	// post would collide with a previous scan's like); if publishing is
	// refused, the probe likes the configured test post instead.
	if _, err := s.client.Me(token, ""); err != nil {
		res.Reason = "token unusable without secret: " + err.Error()
		return res
	}
	target, err := s.client.Publish(token, "scanner probe post", "")
	if err != nil || target == "" {
		target = s.TestPostID
	}
	if err := s.client.Like(token, target, ""); err != nil {
		res.Reason = "write failed without secret: " + err.Error()
		return res
	}
	res.Susceptible = true
	return res
}

// AppDirectoryEntry pairs an app with its login URL, as a leaderboard
// crawl would produce.
type AppDirectoryEntry struct {
	App      apps.App
	LoginURL string
}

// ScanAll probes every directory entry and fills in name/MAU metadata
// from the directory.
func (s *Scanner) ScanAll(entries []AppDirectoryEntry) []Result {
	out := make([]Result, 0, len(entries))
	for _, e := range entries {
		r := s.ScanLoginURL(e.LoginURL)
		r.Name = e.App.Name
		r.MAU = e.App.MAU
		r.DAU = e.App.DAU
		if r.AppID == "" {
			r.AppID = e.App.ID
		}
		out = append(out, r)
	}
	return out
}

// Summary aggregates scan results into the Section 2.2 headline numbers.
type Summary struct {
	Scanned              int
	Susceptible          int
	SusceptibleShortTerm int
	SusceptibleLongTerm  int
}

// Summarize computes the Summary over results.
func Summarize(results []Result) Summary {
	var sum Summary
	sum.Scanned = len(results)
	for _, r := range results {
		if !r.Susceptible {
			continue
		}
		sum.Susceptible++
		if r.LongTerm {
			sum.SusceptibleLongTerm++
		} else {
			sum.SusceptibleShortTerm++
		}
	}
	return sum
}

// LongTermSusceptible filters results to the Table 1 rows: susceptible
// apps issued long-term tokens, ordered by descending MAU.
func LongTermSusceptible(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if r.Susceptible && r.LongTerm {
			out = append(out, r)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].MAU > out[j-1].MAU; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
