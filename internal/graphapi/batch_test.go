package graphapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/oauthsim"
	"repro/internal/socialgraph"
)

func postBatch(t *testing.T, srvURL, token, batchJSON string) []batchResult {
	t.Helper()
	form := url.Values{"access_token": {token}, "batch": {batchJSON}}
	resp, err := http.PostForm(srvURL+"/batch", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var results []batchResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	return results
}

func TestBatchPartialFailures(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	other := f.graph.CreateAccount("second-member", "IN", t0)
	resB, err := f.oauth.Authorize(authorizeReqFor(f, other.ID))
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes","body":"access_token=%s"}
	]`, f.post.ID, f.post.ID, f.post.ID, resB.AccessToken)
	results := postBatch(t, srv.URL, tok, batch)
	if results[0].Code != http.StatusOK {
		t.Fatalf("first like failed: %+v", results[0])
	}
	// The duplicate like fails with an embedded error envelope while the
	// rest of the batch proceeds.
	if results[1].Code != http.StatusBadRequest {
		t.Fatalf("duplicate like code = %d", results[1].Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal([]byte(results[1].Body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeDuplicate {
		t.Fatalf("embedded error = %+v", env)
	}
	if results[2].Code != http.StatusOK {
		t.Fatalf("trailing op failed: %+v", results[2])
	}
}

// serveBatch answers one POST /batch carrying token as the outer
// access_token, in process.
func serveBatch(api *API, token, batch string) *httptest.ResponseRecorder {
	form := url.Values{"access_token": {token}, "batch": {batch}}
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	Handler(api).ServeHTTP(rec, req)
	return rec
}

// batchError answers one batch and decodes its error envelope.
func batchError(api *API, token, batch string) (int, errorEnvelope) {
	rec := serveBatch(api, token, batch)
	var env errorEnvelope
	_ = json.Unmarshal(rec.Body.Bytes(), &env)
	return rec.Code, env
}

// TestBatchRejectsNonLikeOperations: /batch serves only likes on one
// object. Any other batch is refused whole, so not even its like ops
// are applied.
func TestBatchRejectsNonLikeOperations(t *testing.T) {
	for _, tc := range []struct{ name, batch string }{
		{"read", `[{"method":"POST","relative_url":"{post}/likes"},{"method":"GET","relative_url":"me"}]`},
		{"comment", `[{"method":"POST","relative_url":"{post}/likes"},{"method":"POST","relative_url":"{post}/comments","body":"message=hi"}]`},
		{"two objects", `[{"method":"POST","relative_url":"{post}/likes"},{"method":"POST","relative_url":"{post2}/likes"}]`},
		{"extra parameter", `[{"method":"POST","relative_url":"{post}/likes","body":"message=hi"}]`},
		{"delete", `[{"method":"DELETE","relative_url":"{liked}/likes?access_token={token}"}]`},
	} {
		f := newFixture(t)
		tok := f.token(t)
		post2, err := f.graph.CreatePost(f.post.AuthorID, "second post", socialgraph.WriteMeta{At: t0})
		if err != nil {
			t.Fatal(err)
		}
		liked, err := f.graph.CreatePost(f.post.AuthorID, "liked post", socialgraph.WriteMeta{At: t0})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.graph.AddLike(f.user.ID, liked.ID, socialgraph.WriteMeta{At: t0}); err != nil {
			t.Fatal(err)
		}
		batch := strings.NewReplacer("{post}", f.post.ID, "{post2}", post2.ID, "{liked}", liked.ID, "{token}", tok).Replace(tc.batch)
		before := f.graph.RetainedEdges()
		status, env := batchError(f.api, tok, batch)
		if status != http.StatusBadRequest || env.Error.Code != CodeInvalidParam {
			t.Errorf("%s batch: status %d, envelope %+v; want 400 code %d", tc.name, status, env, CodeInvalidParam)
		}
		if after := f.graph.RetainedEdges(); after != before {
			t.Errorf("%s batch applied: store %+v → %+v", tc.name, before, after)
		}
	}
}

// TestBatchBodyBound: a /batch body over MaxBatchOps × 4 KiB is refused
// before its op array is decoded, even when the batch inside is valid.
func TestBatchBodyBound(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t)
	pad := strings.Repeat(" ", f.api.prov.MaxBatchOps()*maxBatchOpBytes)
	batch := fmt.Sprintf(`[{"method":"POST","relative_url":"%s/likes"}%s]`, f.post.ID, pad)
	if status, env := batchError(f.api, tok, batch); status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, envelope %+v; want 400", status, env)
	}
	if n := f.graph.LikeCount(f.post.ID); n != 0 {
		t.Fatalf("oversized batch stored %d likes", n)
	}
}

func TestBatchValidation(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	for _, batch := range []string{"", "not-json", "[]"} {
		form := url.Values{"access_token": {tok}, "batch": {batch}}
		resp, err := http.PostForm(srv.URL+"/batch", form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch %q status = %d", batch, resp.StatusCode)
		}
	}
	// Over the 50-op cap.
	big := "["
	for i := 0; i < 51; i++ {
		if i > 0 {
			big += ","
		}
		big += `{"method":"GET","relative_url":"me"}`
	}
	big += "]"
	form := url.Values{"access_token": {tok}, "batch": {big}}
	resp, err := http.PostForm(srv.URL+"/batch", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d", resp.StatusCode)
	}
	_ = f
}

func TestBatchPerOpToken(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tokA := httpToken(t, f, srv)
	// A second member with their own token inside the op body.
	other := f.graph.CreateAccount("other-member", "IN", t0)
	resB, err := f.oauth.Authorize(authorizeReqFor(f, other.ID))
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes","body":"access_token=%s"}
	]`, f.post.ID, f.post.ID, resB.AccessToken)
	results := postBatch(t, srv.URL, tokA, batch)
	for i, r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 2 {
		t.Fatalf("likes = %d", len(likes))
	}
	if likes[0].AccountID == likes[1].AccountID {
		t.Fatal("per-op token ignored")
	}
}

func TestHTTPDialogEchoesState(t *testing.T) {
	f, srv := newHTTPFixture(t)
	q := url.Values{}
	q.Set("client_id", f.app.ID)
	q.Set("redirect_uri", f.app.RedirectURI)
	q.Set("response_type", "token")
	q.Set("scope", "publish_actions")
	q.Set("account_id", f.user.ID)
	q.Set("state", "csrf-nonce-123")
	resp, err := noRedirect().Get(srv.URL + "/dialog/oauth?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	loc, _ := url.Parse(resp.Header.Get("Location"))
	frag, _ := url.ParseQuery(loc.Fragment)
	if frag.Get("state") != "csrf-nonce-123" {
		t.Fatalf("state = %q", frag.Get("state"))
	}
}

// authorizeReqFor builds an implicit-flow request for an arbitrary
// account on the fixture's app.
func authorizeReqFor(f *fixture, accountID string) oauthsim.AuthorizeRequest {
	return oauthsim.AuthorizeRequest{
		AppID:        f.app.ID,
		RedirectURI:  f.app.RedirectURI,
		ResponseType: oauthsim.ResponseToken,
		Scopes:       []string{"publish_actions"},
		AccountID:    accountID,
	}
}

func TestBatchLikeFastPathSourceIP(t *testing.T) {
	// A homogeneous all-likes batch takes the native LikeBatch lowering;
	// per-op source_ip must survive it and land in the stored like's
	// attribution, falling back to the transport IP when absent.
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	other := f.graph.CreateAccount("fastpath-member", "IN", t0)
	resB, err := f.oauth.Authorize(authorizeReqFor(f, other.ID))
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes","source_ip":"198.51.100.7"},
		{"method":"POST","relative_url":"%s/likes","body":"access_token=%s"}
	]`, f.post.ID, f.post.ID, resB.AccessToken)
	results := postBatch(t, srv.URL, tok, batch)
	for i, r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 2 {
		t.Fatalf("likes = %d", len(likes))
	}
	if likes[0].SourceIP != "198.51.100.7" {
		t.Fatalf("per-op source_ip ignored: %q", likes[0].SourceIP)
	}
	if likes[1].SourceIP == "198.51.100.7" {
		t.Fatal("op without source_ip inherited a sibling's IP")
	}
}
