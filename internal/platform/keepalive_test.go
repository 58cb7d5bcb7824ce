package platform

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/socialgraph"
)

// countingServer serves h over loopback and counts the TCP connections
// its clients open.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	conns := new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, conns
}

// TestHTTPClientReusesOneConnection calls every HTTPClient method in
// sequence, error answers and multi-page walks included: each response
// must be consumed so that the next call rides the same keep-alive
// connection.
func TestHTTPClientReusesOneConnection(t *testing.T) {
	w := newWorld(t)
	app := w.p.Apps.Register(apps.Config{
		Name:              "keep-alive",
		RedirectURI:       "https://keep-alive.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions, apps.PermUserFriends},
	})
	scopes := []string{apps.PermPublicProfile, apps.PermPublishActions, apps.PermUserFriends}
	// Two pages of likes at the client's page size of 100.
	meta := socialgraph.WriteMeta{At: t0}
	for i := 0; i < 150; i++ {
		acct := w.p.Graph.CreateAccount(fmt.Sprintf("fan-%d", i), "IN", t0)
		if err := w.p.Graph.AddLike(acct.ID, w.post.ID, meta); err != nil {
			t.Fatal(err)
		}
	}
	srv, conns := countingServer(t, w.p.Handler())
	c := NewHTTPClient(srv.URL)
	ctx := context.Background()

	tok, err := c.AuthorizeImplicit(app.ID, app.RedirectURI, w.member.ID, scopes)
	if err != nil {
		t.Fatal(err)
	}
	code, err := c.AuthorizeCode(app.ID, app.RedirectURI, w.member.ID, scopes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExchangeCode(app.ID, app.Secret, app.RedirectURI, code); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Me(tok, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Like(tok, w.post.ID, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.LikeCtx(ctx, tok, w.post.ID, ""); ErrorCode(err) != 520 {
		t.Fatalf("duplicate like: %v, want code 520", err)
	}
	if _, err := c.Me("not-a-token", ""); err == nil {
		t.Fatal("bogus token accepted")
	}
	other, err := w.p.Graph.CreatePost(w.author.ID, "second", meta)
	if err != nil {
		t.Fatal(err)
	}
	if errs := c.LikeBatch(ctx, other.ID, []BatchLike{{Token: tok}, {Token: tok}}); errs[0] != nil || ErrorCode(errs[1]) != 520 {
		t.Fatalf("batch of a like and its duplicate = %v, want [nil, code 520]", errs)
	}
	if _, err := c.CommentCtx(nil, tok, w.post.ID, "hi", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommentCtx(ctx, tok, w.post.ID, "hi again", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(tok, "status", ""); err != nil {
		t.Fatal(err)
	}
	likes, err := c.LikesOf(tok, w.post.ID)
	if err != nil || len(likes) != 151 {
		t.Fatalf("LikesOf = %d likes, %v; want 151", len(likes), err)
	}
	if _, err := c.LikesOf("not-a-token", w.post.ID); err == nil {
		t.Fatal("likes listed for a bogus token")
	}
	if _, err := c.FriendsOf(tok, ""); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("sequential calls opened %d connections, want 1", n)
	}
}

// TestHTTPClientPoolsDeliveryFanOut replays concurrent callers sharing one
// client — bursts of concurrent /batch calls, as parallel member requests
// make them — and requires the client to keep a connection idle for
// every caller.
func TestHTTPClientPoolsDeliveryFanOut(t *testing.T) {
	const bursts, workers = 100, 4
	w := newWorld(t)
	var tokens [workers]string
	for i := range tokens {
		acct := w.p.Graph.CreateAccount(fmt.Sprintf("deliverer-%d", i), "IN", t0)
		tok, err := NewLocalClient(w.p).AuthorizeImplicit(w.app.ID, w.app.RedirectURI, acct.ID, []string{apps.PermPublishActions})
		if err != nil {
			t.Fatal(err)
		}
		tokens[i] = tok
	}
	// The first burst is held at the server until all its calls have
	// arrived, so each one dials its own connection. Otherwise a call can
	// find no idle connection while another call's dial is still in
	// flight, and net/http dials once more; the spare connection then
	// idles in the pool, which is not the failure this test looks for.
	var arrived sync.WaitGroup
	arrived.Add(workers)
	var served atomic.Int64
	handler := w.p.Handler()
	srv, conns := countingServer(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= workers {
			arrived.Done()
			arrived.Wait()
		}
		handler.ServeHTTP(rw, r)
	}))
	c := NewHTTPClient(srv.URL)
	for b := 0; b < bursts; b++ {
		post, err := w.p.Graph.CreatePost(w.author.ID, fmt.Sprintf("burst %d", b), socialgraph.WriteMeta{At: t0})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, tok := range tokens {
			wg.Add(1)
			go func(tok string) {
				defer wg.Done()
				for _, err := range c.LikeBatch(context.Background(), post.ID, []BatchLike{{Token: tok, IP: "203.0.113.9"}}) {
					if err != nil {
						t.Error(err)
					}
				}
			}(tok)
		}
		wg.Wait()
	}
	if n := conns.Load(); n > workers {
		t.Fatalf("%d bursts of %d concurrent batches opened %d connections, want at most %d", bursts, workers, n, workers)
	}
}
