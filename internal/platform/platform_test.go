package platform

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/defense"
	"repro/internal/graphapi"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

var t0 = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

type world struct {
	p      *Platform
	clock  *simclock.Simulated
	app    apps.App
	member socialgraph.Account
	author socialgraph.Account
	post   socialgraph.Post
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clock := simclock.NewSimulated(t0)
	internet := netsim.NewInternet()
	if err := internet.RegisterAS(netsim.AS{Number: 64500, Name: "BP", Bulletproof: true}, "203.0.113.0/24"); err != nil {
		t.Fatal(err)
	}
	p := New(clock, internet)
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	member := p.Graph.CreateAccount("member", "IN", t0)
	author := p.Graph.CreateAccount("author", "IN", t0)
	post, err := p.Graph.CreatePost(author.ID, "my status", socialgraph.WriteMeta{At: t0})
	if err != nil {
		t.Fatal(err)
	}
	return &world{p: p, clock: clock, app: app, member: member, author: author, post: post}
}

// clientsUnderTest returns both transports bound to the same platform.
func clientsUnderTest(t *testing.T, w *world) map[string]Client {
	t.Helper()
	srv := w.p.ServeHTTPTest()
	t.Cleanup(srv.Close)
	return map[string]Client{
		"local": NewLocalClient(w.p),
		"http":  NewHTTPClient(srv.URL),
	}
}

func TestClientTransportsEquivalent(t *testing.T) {
	w := newWorld(t)
	for name, client := range clientsUnderTest(t, w) {
		t.Run(name, func(t *testing.T) {
			member := w.p.Graph.CreateAccount("member-"+name, "IN", t0)
			post, err := w.p.Graph.CreatePost(w.author.ID, "status for "+name, socialgraph.WriteMeta{At: t0})
			if err != nil {
				t.Fatal(err)
			}
			tok, err := client.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, member.ID,
				[]string{apps.PermPublishActions, apps.PermPublicProfile})
			if err != nil {
				t.Fatal(err)
			}
			if tok == "" {
				t.Fatal("empty token")
			}
			me, err := client.Me(tok, "")
			if err != nil {
				t.Fatal(err)
			}
			if me.ID != member.ID || me.Country != "IN" {
				t.Fatalf("Me = %+v", me)
			}
			// The like and comment land after the post, on a whole second:
			// the wire carries timestamps at second precision.
			w.clock.Advance(90 * time.Second)
			now := w.clock.Now()
			if err := client.LikeCtx(context.Background(), tok, post.ID, "203.0.113.9"); err != nil {
				t.Fatal(err)
			}
			likes, err := client.LikesOf(tok, post.ID)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, l := range likes {
				if l.AccountID == member.ID {
					found = true
					if !l.At.Equal(now) {
						t.Fatalf("like At = %v, want %v", l.At, now)
					}
				}
			}
			if !found {
				t.Fatalf("member like missing from %v", likes)
			}
			cid, err := client.CommentCtx(context.Background(), tok, post.ID, "first!", "203.0.113.9")
			if err != nil {
				t.Fatal(err)
			}
			if cid == "" {
				t.Fatal("empty comment ID")
			}
			comments := w.p.Graph.Comments(post.ID)
			if len(comments) == 0 || comments[len(comments)-1].Message != "first!" {
				t.Fatalf("comments = %+v", comments)
			}
			if at := comments[len(comments)-1].At; !at.Equal(now) {
				t.Fatalf("comment At = %v, want %v", at, now)
			}
			pid, err := client.Publish(tok, "hello from "+name, "")
			if err != nil {
				t.Fatal(err)
			}
			published(t, w.p.Graph, member.ID, pid)
		})
	}
}

// published fails the test unless authorID's activity log records the
// post postID: a post activity naming it, with authorID as its target.
func published(t *testing.T, g *socialgraph.Store, authorID, postID string) {
	t.Helper()
	for _, a := range g.ActivityLog(authorID) {
		if a.Verb == socialgraph.VerbPost && a.ObjectID == postID && a.TargetID == authorID {
			return
		}
	}
	t.Fatalf("published post %s missing from %s's activity log", postID, authorID)
}

// postRecorder is a policy that allows every request and keeps the
// message of the latest post it evaluates.
type postRecorder struct{ last atomic.Value }

func (r *postRecorder) Name() string { return "post-recorder" }

func (r *postRecorder) Evaluate(req graphapi.Request) graphapi.Decision {
	if req.Verb == graphapi.VerbPost {
		r.last.Store(req.Message)
	}
	return graphapi.Allowed()
}

func TestNewWithShardsPinsStripeCount(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	for _, tc := range []struct{ in, want int }{{1, 1}, {8, 8}, {13, 16}} {
		p := NewWithConfig(clock, nil, Config{Provider: provider.Default(), Shards: tc.in})
		if got := len(p.Graph.Contention()); got != tc.want {
			t.Fatalf("Shards: %d: stripe count = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := len(New(clock, nil).Graph.Contention()); got != len(socialgraph.New(0, 0).Contention()) {
		t.Fatalf("New: stripe count = %d, want store default", got)
	}
	// A pinned single-stripe platform must behave identically end to end:
	// run the full authorize→like→crawl path against it.
	p := NewWithConfig(clock, nil, Config{Provider: provider.Default(), Shards: 1})
	app := p.Apps.Register(apps.Config{
		Name:              "Shard Probe",
		RedirectURI:       "https://probe.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	member := p.Graph.CreateAccount("member", "IN", t0)
	author := p.Graph.CreateAccount("author", "IN", t0)
	post, err := p.Graph.CreatePost(author.ID, "status", socialgraph.WriteMeta{At: t0})
	if err != nil {
		t.Fatal(err)
	}
	client := NewLocalClient(p)
	tok, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, member.ID,
		[]string{apps.PermPublishActions, apps.PermPublicProfile})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LikeCtx(context.Background(), tok, post.ID, ""); err != nil {
		t.Fatal(err)
	}
	likes, err := client.LikesOf(tok, post.ID)
	if err != nil || len(likes) != 1 || likes[0].AccountID != member.ID {
		t.Fatalf("likes = %+v, err = %v", likes, err)
	}
}

func TestClientErrorsPropagate(t *testing.T) {
	w := newWorld(t)
	// Both transports must deny with the same *graphapi.APIError.
	type denials struct{ bogus, dup *graphapi.APIError }
	got := map[string]denials{}
	for name, client := range clientsUnderTest(t, w) {
		t.Run(name, func(t *testing.T) {
			member := w.p.Graph.CreateAccount("err-member-"+name, "IN", t0)
			post, err := w.p.Graph.CreatePost(w.author.ID, "err post for "+name, socialgraph.WriteMeta{At: t0})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.AuthorizeImplicit(w.app.ID, "https://evil.example", member.ID, nil); err == nil {
				t.Fatal("bad redirect URI accepted")
			}
			var d denials
			err = client.LikeCtx(context.Background(), "bogus-token", post.ID, "")
			if !errors.As(err, &d.bogus) {
				t.Fatalf("bogus token: err = %v, want *graphapi.APIError", err)
			}
			if d.bogus.Code != provider.Default().ErrorCode(provider.KindInvalidToken) || d.bogus.Kind != provider.KindInvalidToken {
				t.Fatalf("bogus token denial = %+v", d.bogus)
			}
			tok, err := client.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, member.ID, []string{apps.PermPublishActions})
			if err != nil {
				t.Fatal(err)
			}
			if err := client.LikeCtx(context.Background(), tok, post.ID, ""); err != nil {
				t.Fatal(err)
			}
			err = client.LikeCtx(context.Background(), tok, post.ID, "")
			if !errors.As(err, &d.dup) {
				t.Fatalf("duplicate like: err = %v, want *graphapi.APIError", err)
			}
			if d.dup.Code != provider.Default().ErrorCode(provider.KindDuplicate) || d.dup.Kind != provider.KindDuplicate {
				t.Fatalf("duplicate denial = %+v", d.dup)
			}
			if !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("duplicate error text = %v", err)
			}
			got[name] = d
		})
	}
	local, remote := got["local"], got["http"]
	if local.bogus == nil || remote.bogus == nil {
		t.Fatal("a transport produced no denials")
	}
	if *local.bogus != *remote.bogus {
		t.Errorf("bogus token: local %+v, http %+v", *local.bogus, *remote.bogus)
	}
	if *local.dup != *remote.dup {
		t.Errorf("duplicate like: local %+v, http %+v", *local.dup, *remote.dup)
	}
}

func TestCountermeasuresApplyAcrossTransports(t *testing.T) {
	w := newWorld(t)
	limiter := defense.NewTokenRateLimiter(w.clock, 1, time.Hour)
	w.p.Chain().Append(limiter)
	for name, client := range clientsUnderTest(t, w) {
		t.Run(name, func(t *testing.T) {
			member := w.p.Graph.CreateAccount("m-"+name, "IN", t0)
			post, err := w.p.Graph.CreatePost(w.author.ID, "post for "+name, socialgraph.WriteMeta{At: t0})
			if err != nil {
				t.Fatal(err)
			}
			post2, err := w.p.Graph.CreatePost(w.author.ID, "post2 for "+name, socialgraph.WriteMeta{At: t0})
			if err != nil {
				t.Fatal(err)
			}
			tok, err := client.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, member.ID, []string{apps.PermPublishActions})
			if err != nil {
				t.Fatal(err)
			}
			if err := client.LikeCtx(context.Background(), tok, post.ID, ""); err != nil {
				t.Fatal(err)
			}
			if err := client.LikeCtx(context.Background(), tok, post2.ID, ""); err == nil {
				t.Fatal("rate limit not enforced")
			}
		})
	}
}

func TestASBlockAppliesOverHTTP(t *testing.T) {
	w := newWorld(t)
	blocker := defense.NewASBlocker()
	blocker.Block(64500)
	w.p.Chain().Append(blocker)
	srv := w.p.ServeHTTPTest()
	t.Cleanup(srv.Close)
	client := NewHTTPClient(srv.URL)
	tok, err := client.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, w.member.ID, []string{apps.PermPublishActions})
	if err != nil {
		t.Fatal(err)
	}
	// From the bulletproof AS: denied.
	if err := client.Like(tok, w.post.ID, "203.0.113.77"); err == nil {
		t.Fatal("like from blocked AS allowed")
	}
	// From an unknown IP: allowed.
	if err := client.Like(tok, w.post.ID, "192.0.2.1"); err != nil {
		t.Fatalf("like from unblocked source denied: %v", err)
	}
}

func TestLocalClientFeedAndFriends(t *testing.T) {
	w := newWorld(t)
	// Re-register an app approved for friends access.
	app := w.p.Apps.Register(apps.Config{
		Name:              "Full Access",
		RedirectURI:       "https://full.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions: []string{
			apps.PermPublicProfile, apps.PermUserFriends, apps.PermPublishActions,
		},
	})
	friend := w.p.Graph.CreateAccount("friendly", "EG", t0)
	if err := w.p.Graph.AddFriendship(w.member.ID, friend.ID); err != nil {
		t.Fatal(err)
	}
	posts := &postRecorder{}
	w.p.API.Chain().Append(posts)
	srv := w.p.ServeHTTPTest()
	t.Cleanup(srv.Close)
	for name, client := range map[string]Client{
		"local": NewLocalClient(w.p),
		"http":  NewHTTPClient(srv.URL),
	} {
		t.Run(name, func(t *testing.T) {
			tok, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, w.member.ID,
				[]string{apps.PermUserFriends, apps.PermPublishActions})
			if err != nil {
				t.Fatal(err)
			}
			// Publish lands a post through the token.
			postID, err := client.Publish(tok, "feed post via "+name, "")
			if err != nil {
				t.Fatal(err)
			}
			published(t, w.p.Graph, w.member.ID, postID)
			if got, _ := posts.last.Load().(string); got != "feed post via "+name {
				t.Fatalf("post message = %q", got)
			}
			// FriendsOf exposes the friend edge.
			friends, err := client.FriendsOf(tok, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(friends) != 1 || friends[0].ID != friend.ID || friends[0].Country != "EG" {
				t.Fatalf("friends = %+v", friends)
			}
			// Error paths: a scopeless token is refused.
			bare, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, w.member.ID,
				[]string{apps.PermPublishActions})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.FriendsOf(bare, ""); err == nil {
				t.Fatal("scopeless FriendsOf succeeded")
			}
			if _, err := client.CommentCtx(context.Background(), "dead-token", "p", "m", ""); err == nil {
				t.Fatal("CommentCtx with dead token succeeded")
			}
			if _, err := client.Publish("dead-token", "m", ""); err == nil {
				t.Fatal("Publish with dead token succeeded")
			}
			if _, err := client.Me("dead-token", ""); err == nil {
				t.Fatal("Me with dead token succeeded")
			}
			if _, err := client.LikesOf("dead-token", "p"); err == nil {
				t.Fatal("LikesOf with dead token succeeded")
			}
		})
	}
}
