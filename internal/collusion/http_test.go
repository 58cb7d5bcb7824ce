package collusion

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
)

func newSite(t *testing.T, cfg Config, members int) (*harness, *httptest.Server) {
	t.Helper()
	h := newHarness(t, cfg, members)
	srv := httptest.NewServer(Handler(h.network))
	t.Cleanup(srv.Close)
	return h, srv
}

func postForm(t *testing.T, u string, form url.Values) (int, map[string]any) {
	t.Helper()
	resp, err := http.PostForm(u, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestSiteLandingPage(t *testing.T) {
	h, srv := newSite(t, Config{Name: "hublaa.me", LikesPerRequest: 350, AdsPerVisit: 2}, 0)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	page := string(body)
	if !strings.Contains(page, "hublaa.me") || !strings.Contains(page, "350 likes") {
		t.Fatalf("landing page = %s", page)
	}
	if !strings.Contains(page, h.app.ID) {
		t.Fatal("landing page missing install link")
	}
	if got := h.network.Stats().AdImpressions; got != 2 {
		t.Fatalf("AdImpressions = %d", got)
	}
}

func TestSiteSubmitTokenAndRequestLikes(t *testing.T) {
	h, srv := newSite(t, Config{LikesPerRequest: 10}, 30)
	newbie := h.p.Graph.CreateAccount("newbie", "IN", t0)
	tok, err := h.client.AuthorizeImplicit(h.app.ID, h.app.RedirectURI, newbie.ID,
		[]string{apps.PermPublicProfile, apps.PermPublishActions})
	if err != nil {
		t.Fatal(err)
	}
	status, body := postForm(t, srv.URL+"/submit-token", url.Values{
		"account_id":   {newbie.ID},
		"access_token": {tok},
	})
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("submit-token: %d %v", status, body)
	}
	if body["members"].(float64) != 31 {
		t.Fatalf("members = %v", body["members"])
	}

	post := h.post(t, newbie)
	status, body = postForm(t, srv.URL+"/request-likes", url.Values{
		"account_id": {newbie.ID},
		"post_id":    {post.ID},
	})
	if status != http.StatusOK {
		t.Fatalf("request-likes: %d %v", status, body)
	}
	if body["delivered"].(float64) != 10 {
		t.Fatalf("delivered = %v", body["delivered"])
	}
	if got := h.p.Graph.LikeCount(post.ID); got != 10 {
		t.Fatalf("LikeCount = %d", got)
	}
}

func TestSiteBadTokenRejected(t *testing.T) {
	_, srv := newSite(t, Config{}, 0)
	status, body := postForm(t, srv.URL+"/submit-token", url.Values{
		"account_id":   {"acct"},
		"access_token": {"garbage"},
	})
	if status != http.StatusBadRequest || body["ok"] != false {
		t.Fatalf("bad token: %d %v", status, body)
	}
}

func TestSiteCaptchaFlow(t *testing.T) {
	h, srv := newSite(t, Config{LikesPerRequest: 5, CaptchaRequired: true}, 10)
	member := h.members[0]
	post := h.post(t, member)

	// Request without captcha: 403.
	status, _ := postForm(t, srv.URL+"/request-likes", url.Values{
		"account_id": {member.ID},
		"post_id":    {post.ID},
	})
	if status != http.StatusForbidden {
		t.Fatalf("no captcha status = %d", status)
	}

	resp, err := http.Get(srv.URL + "/captcha?account_id=" + member.ID)
	if err != nil {
		t.Fatal(err)
	}
	var cbody struct {
		Challenge string `json:"challenge"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cbody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var a, b int
	if _, err := fmt.Sscanf(cbody.Challenge, "%d+%d=", &a, &b); err != nil {
		t.Fatalf("challenge %q: %v", cbody.Challenge, err)
	}
	status, body := postForm(t, srv.URL+"/request-likes", url.Values{
		"account_id": {member.ID},
		"post_id":    {post.ID},
		"captcha":    {strconv.Itoa(a + b)},
	})
	if status != http.StatusOK {
		t.Fatalf("solved captcha: %d %v", status, body)
	}
}

func TestSiteNonMember404(t *testing.T) {
	_, srv := newSite(t, Config{}, 0)
	status, _ := postForm(t, srv.URL+"/request-likes", url.Values{
		"account_id": {"stranger"},
		"post_id":    {"p"},
	})
	if status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", status)
	}
}

func TestSiteMethodEnforcement(t *testing.T) {
	_, srv := newSite(t, Config{}, 0)
	for _, path := range []string{"/submit-token", "/request-likes", "/request-comments", "/adwall"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestSiteBuyRouteGone: the site sells no plans, so POST /buy gets the
// plain 404 of a path the site does not serve.
func TestSiteBuyRouteGone(t *testing.T) {
	h, srv := newSite(t, Config{}, 1)
	resp, err := http.PostForm(srv.URL+"/buy", url.Values{
		"account_id": {h.members[0].ID},
		"plan":       {"gold"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || string(body) != "404 page not found\n" {
		t.Fatalf("POST /buy = %d %q, want the unknown-path 404", resp.StatusCode, body)
	}
}
