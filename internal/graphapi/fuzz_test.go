package graphapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/provider"
)

func FuzzDecodeCursor(f *testing.F) {
	f.Add("")
	f.Add(encodeCursor(0))
	f.Add(encodeCursor(25))
	f.Add(encodeCursor(1 << 30))
	f.Add("###")
	f.Add("MTIzNDU=")
	f.Add("LTU=") // base64("-5")
	f.Fuzz(func(t *testing.T, s string) {
		off, err := decodeCursor(s)
		if err != nil {
			return
		}
		if off < 0 {
			t.Fatalf("decoded negative offset %d from %q", off, s)
		}
		// Round trip: re-encoding a decoded cursor must decode to the
		// same offset.
		again, err := decodeCursor(encodeCursor(off))
		if err != nil || again != off {
			t.Fatalf("round trip %d → %d, %v", off, again, err)
		}
	})
}

// FuzzBatchHandler checks the /batch contract on arbitrary batch values.
// The answer is either a 400 that applied nothing, or a 200 carrying one
// result per decoded op, each a 200 or a 4xx, with exactly one like
// stored per 200. In the input, {post} stands for the fixture's post and
// {token} for a second token of the member whose token is the outer one.
func FuzzBatchHandler(f *testing.F) {
	for _, seed := range []string{
		`[{"method":"POST","relative_url":"{post}/likes"},{"method":"POST","relative_url":"{post}/likes","body":"access_token={token}"}]`,
		`[{"method":"POST","relative_url":"/{post}/likes","source_ip":"203.0.113.9"}]`,
		`[{"method":"POST","relative_url":"{post}/likes"},{"method":"GET","relative_url":"me"}]`,
		`[{"method":"POST","relative_url":"{post}/likes"},{"method":"POST","relative_url":"me/likes"}]`,
		`[{"method":"POST","relative_url":"{post}/likes","body":"access_token={token}&appsecret_proof=00"}]`,
		`[]`,
		`not-json`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, batch string) {
		fx := newFixture(t)
		tok := fx.token(t)
		batch = strings.NewReplacer("{post}", fx.post.ID, "{token}", fx.token(t)).Replace(batch)
		before := fx.graph.RetainedEdges()
		rec := serveBatch(fx.api, tok, batch)
		after := fx.graph.RetainedEdges()
		switch rec.Code {
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("400 answer applied writes: store %+v → %+v", before, after)
			}
		case http.StatusOK:
			var ops []batchOp
			if err := json.Unmarshal([]byte(batch), &ops); err != nil {
				t.Fatalf("200 answer to an undecodable batch: %v", err)
			}
			var results []batchResult
			if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
				t.Fatalf("undecodable 200 answer %q: %v", rec.Body, err)
			}
			if len(results) != len(ops) {
				t.Fatalf("%d results for %d ops", len(results), len(ops))
			}
			ok := 0
			for i, r := range results {
				switch {
				case r.Code == http.StatusOK:
					ok++
				case r.Code < 400 || r.Code > 499:
					t.Fatalf("op %d answered %d: %s", i, r.Code, r.Body)
				}
			}
			// Each applied like adds a like and the liker's activity.
			want := before
			want.Likes += int64(ok)
			want.Activities += int64(ok)
			if after != want {
				t.Fatalf("%d successful ops: store %+v → %+v", ok, before, after)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// FuzzGraphAPIHandler serves a fuzzed method, request target and form
// body through the whole route table. The handler must not panic or
// answer 5xx, and every 4xx must be the JSON error envelope carrying a
// code the provider issues for an error kind. The seeds cover every
// route the API serves, and the unlike, feed read, comments page, token
// introspection and token extension requests it refuses. In the input, {post}, {token}, {app}, {secret}, {redirect} and {user} stand
// for the fixture's post, a token of its member, its app's ID, secret
// and escaped redirect URI, and its member's ID.
func FuzzGraphAPIHandler(f *testing.F) {
	for _, seed := range []struct{ method, target, form string }{
		{"GET", "/dialog/oauth?client_id={app}&redirect_uri={redirect}&response_type=token&scope=publish_actions&account_id={user}", ""},
		{"GET", "/dialog/oauth?client_id={app}&redirect_uri={redirect}&response_type=code&account_id={user}&state=s", ""},
		{"POST", "/oauth/access_token", "client_id={app}&client_secret={secret}&redirect_uri={redirect}&code=c"},
		{"GET", "/me?access_token={token}", ""},
		{"GET", "/me/friends?access_token={token}", ""},
		{"POST", "/me/feed", "access_token={token}&message=status"},
		{"POST", "/{post}/likes", "access_token={token}"},
		{"GET", "/{post}/likes?access_token={token}&limit=2&after=MQ==", ""},
		{"POST", "/{post}/comments", "access_token={token}&message=nice"},
		{"POST", "/batch", `access_token={token}&batch=[{"method":"POST","relative_url":"{post}/likes"}]`},
		// Refused: unlike, feed read, comments page, /debug_token and
		// fb_exchange_token.
		{"DELETE", "/{post}/likes?access_token={token}", ""},
		{"GET", "/me/feed?access_token={token}", ""},
		{"GET", "/{post}/comments?access_token={token}", ""},
		{"GET", "/debug_token?client_id={app}&client_secret={secret}&input_token={token}", ""},
		{"POST", "/oauth/access_token", "grant_type=fb_exchange_token&client_id={app}&client_secret={secret}&fb_exchange_token={token}"},
		// Junk.
		{"PUT", "/{post}/unknown-edge", "access_token={token}"},
		{"GET", "/a/b/c", ""},
		{"GET", "/%00%01/likes?after=%%%", "message=%zz"},
	} {
		f.Add(seed.method, seed.target, seed.form)
	}
	f.Fuzz(func(t *testing.T, method, target, form string) {
		fx := newFixture(t)
		r := strings.NewReplacer("{post}", fx.post.ID, "{token}", fx.token(t), "{app}", fx.app.ID,
			"{secret}", fx.app.Secret, "{redirect}", url.QueryEscape(fx.app.RedirectURI), "{user}", fx.user.ID)
		target, form = r.Replace(target), r.Replace(form)
		// Parse the request as the server does: a request line it cannot
		// parse is answered 400 before any handler runs.
		raw := method + " " + target + " HTTP/1.1\r\nHost: graph.example\r\n" +
			"Content-Type: application/x-www-form-urlencoded\r\n" +
			"Content-Length: " + strconv.Itoa(len(form)) + "\r\n\r\n" + form
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil || !strings.HasPrefix(req.RequestURI, "/") {
			// Only a path reaches a route: net/http's mux answers the
			// "*" and authority-form targets itself.
			return
		}
		req.RemoteAddr = "198.51.100.1:4000"
		rec := httptest.NewRecorder()
		Handler(fx.api).ServeHTTP(rec, req)
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s %q answered %d: %s", method, target, rec.Code, rec.Body)
		case rec.Code >= 400:
			var env errorEnvelope
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("%s %q answered %d with a body that is not the error envelope: %q", method, target, rec.Code, rec.Body)
			}
			if !issuedCode(fx.api.prov, env.Error.Code) || env.Error.Type == "" {
				t.Fatalf("%s %q answered %d with envelope %+v", method, target, rec.Code, env)
			}
		}
	})
}

// issuedCode reports whether prov maps some error kind to code.
func issuedCode(prov provider.Provider, code int) bool {
	for k := provider.KindNone + 1; k < provider.NumKinds; k++ {
		if prov.ErrorCode(k) == code {
			return true
		}
	}
	return false
}
