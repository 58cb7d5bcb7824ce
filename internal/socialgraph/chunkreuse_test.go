package socialgraph

// Chunk-recycling differential tests. The pooled edge history (chunk.go)
// returns evicted chunks to per-shard free lists and hands them back out
// on the next append. Two properties must survive that recycling, and
// neither is visible to the end-state comparison the main differential
// harness does:
//
//   - no resurrection: a recycled chunk must never leak an evicted edge
//     back into a crawl, a count, or a HasLiked probe — entries are
//     zeroed on release and the list length, not stale buffer contents,
//     bounds every traversal;
//   - cursor stability under reuse: a pagination cursor taken before a
//     sweep-and-refill cycle must keep resuming at the same absolute
//     arrival sequence even though the bytes behind it now live in a
//     different (recycled) chunk.
//
// Both are checked mid-sequence against the single-lock oracle, at the
// exact interleavings where a stale buffer would show.

import (
	"fmt"
	"testing"
	"time"
)

// TestChunkReuseChurn drives the recycle loop deliberately hard: fill a
// post's like history from a fixed population, remove part of it, sweep
// the rest out past the retention window, then refill — dozens of times,
// so the same chunks cycle through free list and list repeatedly — and
// after every phase compares full crawls, paginated crawls, and
// membership probes against the oracle.
func TestChunkReuseChurn(t *testing.T) {
	const (
		accounts = 3*edgeChunkCap + 7 // several chunks plus a partial tail
		rounds   = 30
		window   = 30 * time.Minute
	)
	sharded := New(4, 0)
	oracle := newReferenceStore()
	sharded.SetRetentionWindow(window)
	oracle.SetRetentionWindow(window)
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

	var likers []string
	for i := 0; i < accounts; i++ {
		name := fmt.Sprintf("churn-%d", i)
		g := sharded.CreateAccount(name, "IN", epoch)
		if w := oracle.CreateAccount(name, "IN", epoch); w != g {
			t.Fatalf("CreateAccount = %+v, oracle %+v", g, w)
		}
		likers = append(likers, g.ID)
	}
	gp, _ := sharded.CreatePost(likers[0], "p", WriteMeta{At: epoch})
	wp, _ := oracle.CreatePost(likers[0], "p", WriteMeta{At: epoch})
	if gp != wp {
		t.Fatalf("CreatePost = %+v, oracle %+v", gp, wp)
	}
	post := gp.ID

	now := epoch
	for round := 0; round < rounds; round++ {
		now = now.Add(time.Hour) // previous round's edges are out of window
		meta := WriteMeta{At: now}
		for _, id := range likers {
			gerr := sharded.AddLike(id, post, meta)
			werr := oracle.AddLike(id, post, meta)
			if !sameErr(gerr, werr) {
				t.Fatalf("round %d: AddLike(%s) = %v, oracle %v", round, id, gerr, werr)
			}
		}
		compareLikeCrawl(t, sharded, oracle, post)

		// Take a cursor mid-history, then churn: remove every third liker,
		// sweep everything older than the window out, and check the cursor
		// still resumes at the same surviving edge on both stores.
		gPage, gCur, gMore := sharded.LikesPage(post, 0, edgeChunkCap+3)
		wPage, wCur, wMore := oracle.LikesPage(post, 0, edgeChunkCap+3)
		if len(gPage) != len(wPage) || gCur != wCur || gMore != wMore {
			t.Fatalf("round %d: pre-churn LikesPage: %d/%d/%v vs %d/%d/%v",
				round, len(gPage), gCur, gMore, len(wPage), wCur, wMore)
		}
		for i := 0; i < len(likers); i += 3 {
			gerr := sharded.RemoveLike(likers[i], post)
			werr := oracle.RemoveLike(likers[i], post)
			if !sameErr(gerr, werr) {
				t.Fatalf("round %d: RemoveLike(%s) = %v, oracle %v", round, likers[i], gerr, werr)
			}
		}
		if gMore {
			g2, _, _ := sharded.LikesPage(post, gCur, edgeChunkCap)
			w2, _, _ := oracle.LikesPage(post, wCur, edgeChunkCap)
			if len(g2) != len(w2) {
				t.Fatalf("round %d: post-remove continuation: %d vs %d likes", round, len(g2), len(w2))
			}
			for i := range g2 {
				if g2[i] != w2[i] {
					t.Fatalf("round %d: post-remove continuation[%d] = %+v, oracle %+v", round, i, g2[i], w2[i])
				}
			}
		}

		sweepAt := now.Add(window + time.Minute)
		gres := sharded.RetentionSweep(sweepAt)
		wres := oracle.RetentionSweep(sweepAt)
		if gres != wres {
			t.Fatalf("round %d: RetentionSweep = %+v, oracle %+v", round, gres, wres)
		}
		// Resurrection probe: every evicted edge must be gone from both
		// stores — counts, membership, and the (now empty) crawl.
		if g, w := sharded.LikeCount(post), oracle.LikeCount(post); g != 0 || g != w {
			t.Fatalf("round %d: post-sweep LikeCount = %d, oracle %d", round, g, w)
		}
		for _, id := range likers {
			if sharded.HasLiked(id, post) {
				t.Fatalf("round %d: evicted like (%s,%s) resurrected", round, id, post)
			}
		}
		compareLikeCrawl(t, sharded, oracle, post)
		// The sweep must actually have recycled: the post's shard holds the
		// released chunks on its free list, ready for the next round. This
		// pins the mechanism (not just the observable equivalence) so a
		// regression that silently drops chunks on the floor — correct but
		// allocating — fails here instead of only in the alloc gates.
		if round == 0 {
			sh := sharded.lockIdx(sharded.ShardIndexOf(post))
			free := len(sh.edges.free)
			sh.mu.Unlock()
			if free == 0 {
				t.Fatalf("round %d: sweep returned no edge chunks to the shard free list", round)
			}
		}
	}
}

// FuzzChunkReuse interleaves likes, removals, sweeps, and cursor crawls
// from a fuzzed byte stream, holding the sharded store and the oracle in
// lockstep the whole way. The population is small and the window short,
// so almost every input recycles chunks many times; any divergence —
// resurrected edge, wrong count, shifted cursor — trips immediately at
// the interleaving that caused it.
func FuzzChunkReuse(f *testing.F) {
	f.Add([]byte{0x00, 0x51, 0xa2, 0xf3, 0x44, 0x95, 0xe6, 0x37, 0x88, 0xd9})
	f.Add([]byte{0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			nAccounts = 12
			nPosts    = 3
			window    = 30 * time.Minute
		)
		sharded := New(4, 0)
		oracle := newReferenceStore()
		sharded.SetRetentionWindow(window)
		oracle.SetRetentionWindow(window)
		epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

		var accounts, posts []string
		for i := 0; i < nAccounts; i++ {
			name := fmt.Sprintf("f%d", i)
			g := sharded.CreateAccount(name, "IN", epoch)
			oracle.CreateAccount(name, "IN", epoch)
			accounts = append(accounts, g.ID)
		}
		for i := 0; i < nPosts; i++ {
			g, _ := sharded.CreatePost(accounts[i], "p", WriteMeta{At: epoch})
			oracle.CreatePost(accounts[i], "p", WriteMeta{At: epoch})
			posts = append(posts, g.ID)
		}

		// cursor is one saved mid-crawl position per post, possibly taken
		// many mutations and sweeps ago — exactly the state a Graph API
		// crawler holds across server-side churn.
		type cursor struct {
			after int
			live  bool
		}
		cursors := make([]cursor, nPosts)
		now := epoch.Add(time.Hour)

		for _, b := range data {
			now = now.Add(time.Duration(1+int(b&0x0f)) * time.Minute)
			actor := accounts[int(b>>4)%nAccounts]
			pi := int(b>>2) % nPosts
			post := posts[pi]
			meta := WriteMeta{At: now}
			switch b % 6 {
			case 0, 1: // like
				gerr := sharded.AddLike(actor, post, meta)
				werr := oracle.AddLike(actor, post, meta)
				if !sameErr(gerr, werr) {
					t.Fatalf("AddLike(%s,%s) = %v, oracle %v", actor, post, gerr, werr)
				}
			case 2: // remove
				gerr := sharded.RemoveLike(actor, post)
				werr := oracle.RemoveLike(actor, post)
				if !sameErr(gerr, werr) {
					t.Fatalf("RemoveLike(%s,%s) = %v, oracle %v", actor, post, gerr, werr)
				}
			case 3: // sweep — recycles every out-of-window chunk
				gres := sharded.RetentionSweep(now)
				wres := oracle.RetentionSweep(now)
				if gres != wres {
					t.Fatalf("RetentionSweep = %+v, oracle %+v", gres, wres)
				}
				if g, w := sharded.RetainedEdges(), oracle.RetainedEdges(); g != w {
					t.Fatalf("RetainedEdges = %+v, oracle %+v", g, w)
				}
			case 4: // take (or resume) a cursor on this post
				c := cursors[pi]
				gp, gnext, gmore := sharded.LikesPage(post, c.after, 2)
				wp, wnext, wmore := oracle.LikesPage(post, c.after, 2)
				if len(gp) != len(wp) || gnext != wnext || gmore != wmore {
					t.Fatalf("LikesPage(%s, after=%d): %d/%d/%v vs %d/%d/%v",
						post, c.after, len(gp), gnext, gmore, len(wp), wnext, wmore)
				}
				for i := range gp {
					if gp[i] != wp[i] {
						t.Fatalf("LikesPage(%s, after=%d)[%d] = %+v, oracle %+v", post, c.after, i, gp[i], wp[i])
					}
				}
				if gmore {
					cursors[pi] = cursor{after: gnext, live: true}
				} else {
					cursors[pi] = cursor{}
				}
			case 5: // full-crawl spot check
				compareLikeCrawl(t, sharded, oracle, post)
				if g, w := sharded.HasLiked(actor, post), oracle.HasLiked(actor, post); g != w {
					t.Fatalf("HasLiked(%s,%s) = %v, oracle %v", actor, post, g, w)
				}
			}
		}
		for _, post := range posts {
			compareLikeCrawl(t, sharded, oracle, post)
		}
		for _, id := range accounts {
			compareActivities(t, id, sharded.ActivityLog(id), oracle.ActivityLog(id))
		}
	})
}
