package graphapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/oauthsim"
)

// seedLikes puts n distinct likers on the fixture's post.
func seedLikes(t *testing.T, f *fixture, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		u := f.graph.CreateAccount(fmt.Sprintf("pager-%d", i), "IN", t0)
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
}

type likesPage struct {
	Data []struct {
		ID string `json:"id"`
	} `json:"data"`
	Paging *struct {
		Cursors struct {
			After string `json:"after"`
		} `json:"cursors"`
	} `json:"paging"`
}

func getLikesPage(t *testing.T, srv *httptest.Server, postID, token string, params url.Values) likesPage {
	t.Helper()
	params.Set("access_token", token)
	resp, err := http.Get(srv.URL + "/" + postID + "/likes?" + params.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var page likesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

func TestLikesEdgePagination(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	seedLikes(t, f, 60)

	// Default page size is 25 with a next cursor.
	p1 := getLikesPage(t, srv, f.post.ID, tok, url.Values{})
	if len(p1.Data) != 25 || p1.Paging == nil {
		t.Fatalf("page1: %d rows, paging=%v", len(p1.Data), p1.Paging)
	}
	p2 := getLikesPage(t, srv, f.post.ID, tok, url.Values{"after": {p1.Paging.Cursors.After}})
	if len(p2.Data) != 25 || p2.Paging == nil {
		t.Fatalf("page2: %d rows", len(p2.Data))
	}
	p3 := getLikesPage(t, srv, f.post.ID, tok, url.Values{"after": {p2.Paging.Cursors.After}})
	if len(p3.Data) != 10 {
		t.Fatalf("page3: %d rows", len(p3.Data))
	}
	if p3.Paging != nil {
		t.Fatalf("page3 has a next cursor: %+v", p3.Paging)
	}
	// No duplicates across pages.
	seen := map[string]bool{}
	for _, page := range []likesPage{p1, p2, p3} {
		for _, d := range page.Data {
			if seen[d.ID] {
				t.Fatalf("duplicate liker %s across pages", d.ID)
			}
			seen[d.ID] = true
		}
	}
	if len(seen) != 60 {
		t.Fatalf("total likers paged = %d", len(seen))
	}
}

func TestLikesEdgeCursorStableAcrossShards(t *testing.T) {
	// Likers live on many stripes of the sharded store and are inserted
	// concurrently, but the likes edge must still present one stable
	// arrival order: offset cursors are only sound if two full walks see
	// the same sequence, and that sequence is the store's crawl order.
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	const n = 64
	tokens := make([]string, n)
	for i := range tokens {
		u := f.graph.CreateAccount(fmt.Sprintf("shard-pager-%d", i), "IN", t0)
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
		tokens[i] = res.AccessToken
	}
	var wg sync.WaitGroup
	for _, tk := range tokens {
		wg.Add(1)
		go func(tk string) {
			defer wg.Done()
			if err := f.api.Like(CallContext{AccessToken: tk}, f.post.ID); err != nil {
				t.Errorf("Like: %v", err)
			}
		}(tk)
	}
	wg.Wait()

	walk := func() []string {
		var out []string
		after := ""
		for {
			params := url.Values{"limit": {"7"}}
			if after != "" {
				params.Set("after", after)
			}
			page := getLikesPage(t, srv, f.post.ID, tok, params)
			for _, d := range page.Data {
				out = append(out, d.ID)
			}
			if page.Paging == nil {
				return out
			}
			after = page.Paging.Cursors.After
		}
	}
	first, second := walk(), walk()
	if len(first) != n {
		t.Fatalf("walk saw %d likers, want %d", len(first), n)
	}
	seen := map[string]bool{}
	for _, id := range first {
		if seen[id] {
			t.Fatalf("duplicate liker %s in paged walk", id)
		}
		seen[id] = true
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("walks diverge at %d: %q vs %q", i, first[i], second[i])
		}
	}
	// The paged order is exactly the store's crawl order.
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != n {
		t.Fatalf("store has %d likes", len(likes))
	}
	for i, l := range likes {
		if first[i] != l.AccountID {
			t.Fatalf("page order diverges from crawl order at %d: %q vs %q", i, first[i], l.AccountID)
		}
	}
}

func TestLikesEdgeLimitClamp(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	seedLikes(t, f, 150)
	page := getLikesPage(t, srv, f.post.ID, tok, url.Values{"limit": {"5000"}})
	if len(page.Data) != 100 {
		t.Fatalf("clamped page = %d rows, want 100", len(page.Data))
	}
}

func TestLikesEdgeBadPagingParams(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	seedLikes(t, f, 3)
	for _, params := range []url.Values{
		{"limit": {"0"}},
		{"limit": {"-3"}},
		{"limit": {"abc"}},
		{"after": {"not-base64!!"}},
	} {
		params.Set("access_token", tok)
		resp, err := http.Get(srv.URL + "/" + f.post.ID + "/likes?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("params %v: status = %d, want 400", params, resp.StatusCode)
		}
	}
}

func TestHTTPClientWalksAllPages(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	seedLikes(t, f, 230)
	// The platform HTTP client must transparently collect all pages.
	likes := fetchAllViaClient(t, srv.URL, tok, f.post.ID)
	if len(likes) != 230 {
		t.Fatalf("client collected %d likes, want 230", len(likes))
	}
}

// fetchAllViaClient uses the production pagination loop from the platform
// package indirectly — reimplemented minimally here to avoid an import
// cycle (platform imports graphapi).
func fetchAllViaClient(t *testing.T, base, token, postID string) []string {
	t.Helper()
	var out []string
	after := ""
	for {
		params := url.Values{"access_token": {token}, "limit": {"100"}}
		if after != "" {
			params.Set("after", after)
		}
		resp, err := http.Get(base + "/" + postID + "/likes?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		var page likesPage
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range page.Data {
			out = append(out, d.ID)
		}
		if page.Paging == nil {
			return out
		}
		after = page.Paging.Cursors.After
	}
}

func TestCursorRoundTrip(t *testing.T) {
	for _, off := range []int{0, 1, 25, 10_000} {
		got, err := decodeCursor(encodeCursor(off))
		if err != nil || got != off {
			t.Fatalf("round trip %d → %d, %v", off, got, err)
		}
	}
	if _, err := decodeCursor("###"); err == nil {
		t.Fatal("garbage cursor decoded")
	}
	if off, err := decodeCursor(""); err != nil || off != 0 {
		t.Fatalf("empty cursor = %d, %v", off, err)
	}
}
