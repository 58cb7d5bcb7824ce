package platform

// Transport equivalence for the batched like path: LocalClient lowers
// LikeBatch straight onto the API; HTTPClient chunks it into /batch
// requests that the server recognizes as homogeneous like batches and
// lowers onto the same API call. Both must produce identical per-op
// results, honor per-op source IPs, and map embedded errors back to the
// same codes as single Like calls.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/oauthsim"
	"repro/internal/provider"
	"repro/internal/socialgraph"
)

// Both transports implement the whole Client surface, batching included.
var (
	_ Client = (*LocalClient)(nil)
	_ Client = (*HTTPClient)(nil)
)

func TestLikeBatchTransportsEquivalent(t *testing.T) {
	w := newWorld(t)
	for name, client := range clientsUnderTest(t, w) {
		t.Run(name, func(t *testing.T) {
			post, err := w.p.Graph.CreatePost(w.author.ID, "batch post "+name, socialgraph.WriteMeta{At: t0})
			if err != nil {
				t.Fatal(err)
			}
			// 60 members forces the HTTP transport to split into two /batch
			// chunks (50-op Graph API cap + 10).
			const members = 60
			ops := make([]BatchLike, 0, members+2)
			for i := 0; i < members; i++ {
				m := w.p.Graph.CreateAccount(fmt.Sprintf("bm-%s-%d", name, i), "IN", t0)
				tok, err := client.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, m.ID,
					[]string{apps.PermPublishActions, apps.PermPublicProfile})
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, BatchLike{Token: tok, IP: fmt.Sprintf("203.0.113.%d", i%250)})
			}
			// A bogus token and an intra-batch duplicate ride along.
			ops = append(ops, BatchLike{Token: "bogus-token", IP: "203.0.113.250"})
			ops = append(ops, BatchLike{Token: ops[0].Token, IP: ops[0].IP})

			errs := client.LikeBatch(context.Background(), post.ID, ops)
			if len(errs) != len(ops) {
				t.Fatalf("LikeBatch returned %d errors for %d ops", len(errs), len(ops))
			}
			for i := 0; i < members; i++ {
				if errs[i] != nil {
					t.Fatalf("op %d failed: %v", i, errs[i])
				}
			}
			if code, want := ErrorCode(errs[members]), provider.Default().ErrorCode(provider.KindInvalidToken); code != want {
				t.Fatalf("bogus-token op code = %d (%v), want %d", code, errs[members], want)
			}
			if code, want := ErrorCode(errs[members+1]), provider.Default().ErrorCode(provider.KindDuplicate); code != want {
				t.Fatalf("duplicate op code = %d (%v), want %d", code, errs[members+1], want)
			}

			likes := w.p.Graph.Likes(post.ID)
			if len(likes) != members {
				t.Fatalf("likes = %d, want %d", len(likes), members)
			}
			// Per-op source IPs survive the transport: countermeasures key on
			// them, so the batch may not flatten attribution.
			for i, l := range likes {
				if want := fmt.Sprintf("203.0.113.%d", i%250); l.SourceIP != want {
					t.Fatalf("like %d SourceIP = %q, want %q", i, l.SourceIP, want)
				}
			}
		})
	}
}

func TestLikeBatchEmptyAndSingle(t *testing.T) {
	w := newWorld(t)
	for name, client := range clientsUnderTest(t, w) {
		t.Run(name, func(t *testing.T) {
			if errs := client.LikeBatch(context.Background(), w.post.ID, nil); len(errs) != 0 {
				t.Fatalf("empty batch returned %d errors", len(errs))
			}
			m := w.p.Graph.CreateAccount("single-"+name, "IN", t0)
			tok, err := client.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, m.ID,
				[]string{apps.PermPublishActions, apps.PermPublicProfile})
			if err != nil {
				t.Fatal(err)
			}
			errs := client.LikeBatch(context.Background(), w.post.ID, []BatchLike{{Token: tok, IP: "203.0.113.1"}})
			if len(errs) != 1 || errs[0] != nil {
				t.Fatalf("single-op batch = %v", errs)
			}
		})
	}
}

// TestLikeBatchAppSecretProof: both transports carry an op's
// appsecret_proof, so a batch for an app that requires one lands with the
// proof and is refused with code 104 without it.
func TestLikeBatchAppSecretProof(t *testing.T) {
	w := newWorld(t)
	app := w.p.Apps.Register(apps.Config{
		Name:              "Secured",
		RedirectURI:       "https://secured.example/cb",
		ClientFlowEnabled: true,
		RequireAppSecret:  true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	for name, client := range clientsUnderTest(t, w) {
		t.Run(name, func(t *testing.T) {
			m := w.p.Graph.CreateAccount("proof-"+name, "IN", t0)
			tok, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, m.ID,
				[]string{apps.PermPublishActions, apps.PermPublicProfile})
			if err != nil {
				t.Fatal(err)
			}
			post, err := w.p.Graph.CreatePost(w.author.ID, "proof post "+name, socialgraph.WriteMeta{At: t0})
			if err != nil {
				t.Fatal(err)
			}
			errs := client.LikeBatch(context.Background(), post.ID, []BatchLike{{Token: tok, IP: "203.0.113.1"}})
			if code, want := ErrorCode(errs[0]), provider.Default().ErrorCode(provider.KindSecretProof); code != want {
				t.Fatalf("op without proof: code %d (%v), want %d", code, errs[0], want)
			}
			proof := oauthsim.SecretProof(app.Secret, tok)
			errs = client.LikeBatch(context.Background(), post.ID, []BatchLike{{Token: tok, AppSecretProof: proof, IP: "203.0.113.1"}})
			if errs[0] != nil {
				t.Fatalf("op with proof: %v", errs[0])
			}
			if n := w.p.Graph.LikeCount(post.ID); n != 1 {
				t.Fatalf("LikeCount = %d, want 1", n)
			}
		})
	}
}
