package socialgraph

import (
	"fmt"
	"testing"
	"time"
)

func retEpoch() time.Time {
	return time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
}

// retWorld is a small fixed population for the retention tests.
type retWorld struct {
	s        *Store
	accounts []string
	posts    []string
}

func newRetWorld(t testing.TB, shards, accounts, posts int) *retWorld {
	t.Helper()
	w := &retWorld{s: New(shards, 0)}
	at := retEpoch()
	for i := 0; i < accounts; i++ {
		w.accounts = append(w.accounts, w.s.CreateAccount(fmt.Sprintf("u%d", i), "IN", at).ID)
	}
	for i := 0; i < posts; i++ {
		p, err := w.s.CreatePost(w.accounts[0], "p", WriteMeta{At: at})
		if err != nil {
			t.Fatal(err)
		}
		w.posts = append(w.posts, p.ID)
	}
	return w
}

func TestRetentionSweepEvictsOnlyOldEdges(t *testing.T) {
	w := newRetWorld(t, 8, 10, 2)
	w.s.SetRetentionWindow(time.Hour)
	epoch := retEpoch()
	// Likes at epoch, epoch+10m, ..., epoch+90m on post 0.
	for i := 0; i < 10; i++ {
		at := epoch.Add(time.Duration(i) * 10 * time.Minute)
		if err := w.s.AddLike(w.accounts[i], w.posts[0], WriteMeta{At: at}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.s.AddComment(w.accounts[1], w.posts[1], "old", WriteMeta{At: epoch}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.s.AddComment(w.accounts[2], w.posts[1], "new", WriteMeta{At: epoch.Add(90 * time.Minute)}); err != nil {
		t.Fatal(err)
	}

	// Sweep at epoch+100m, window 1h: cutoff epoch+40m. Likes at 0..30m
	// (4 of them) and the old comment go; everything else stays.
	now := epoch.Add(100 * time.Minute)
	res := w.s.RetentionSweep(now)
	if res.Likes != 4 || res.Comments != 1 {
		t.Fatalf("sweep = %+v, want 4 likes and 1 comment evicted", res)
	}
	if res.Activities == 0 {
		t.Fatalf("sweep = %+v, want activity entries evicted alongside", res)
	}
	if got := w.s.LikeCount(w.posts[0]); got != 6 {
		t.Fatalf("LikeCount = %d after sweep, want 6", got)
	}
	for i, id := range w.accounts {
		want := i >= 4
		if got := w.s.HasLiked(id, w.posts[0]); got != want {
			t.Fatalf("HasLiked(%s) = %v after sweep, want %v", id, got, want)
		}
	}
	// Nothing but edge history may go: accounts, pages, posts all stay.
	if got := w.s.AccountCount(); got != 10 {
		t.Fatalf("AccountCount = %d after sweep, want 10", got)
	}
	for _, p := range w.posts {
		if _, err := w.s.Post(p); err != nil {
			t.Fatalf("Post(%s) after sweep: %v", p, err)
		}
	}
	// An evicted like is re-likeable (the edge is gone, not tombstoned).
	if err := w.s.AddLike(w.accounts[0], w.posts[0], WriteMeta{At: now}); err != nil {
		t.Fatalf("re-like after eviction: %v", err)
	}
	// Counters accumulated.
	snap := w.s.Retention()
	if snap.Sweeps != 1 || snap.Likes != 4 || snap.Comments != 1 {
		t.Fatalf("retention counters = %+v", snap)
	}
}

func TestRetentionInfiniteWindowIsNoop(t *testing.T) {
	w := newRetWorld(t, 4, 5, 1)
	epoch := retEpoch()
	for i := 0; i < 5; i++ {
		if err := w.s.AddLike(w.accounts[i], w.posts[0], WriteMeta{At: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	if res := w.s.RetentionSweep(epoch.AddDate(10, 0, 0)); res != (SweepResult{}) {
		t.Fatalf("infinite-window sweep evicted %+v", res)
	}
	if got := w.s.Retention().Sweeps; got != 0 {
		t.Fatalf("no-op sweep counted: %d", got)
	}
	if got := w.s.LikeCount(w.posts[0]); got != 5 {
		t.Fatalf("LikeCount = %d", got)
	}
}

func TestRetentionCursorStableAcrossSweep(t *testing.T) {
	w := newRetWorld(t, 8, 10, 1)
	w.s.SetRetentionWindow(time.Hour)
	epoch := retEpoch()
	for i := 0; i < 10; i++ {
		at := epoch.Add(time.Duration(i) * 10 * time.Minute)
		if err := w.s.AddLike(w.accounts[i], w.posts[0], WriteMeta{At: at}); err != nil {
			t.Fatal(err)
		}
	}
	// Crawl the first page, then evict likes 0..5 (cutoff epoch+60m via a
	// sweep at epoch+120m) mid-crawl.
	page1, cur, more := w.s.LikesPage(w.posts[0], 0, 3)
	if len(page1) != 3 || !more {
		t.Fatalf("page1 = %d likes, more=%v", len(page1), more)
	}
	w.s.RetentionSweep(epoch.Add(120 * time.Minute))
	// Continuing from the pre-sweep cursor must return exactly the
	// surviving likes past it — no duplicates of page1, no skips.
	var rest []Like
	for more {
		var page []Like
		page, cur, more = w.s.LikesPage(w.posts[0], cur, 3)
		rest = append(rest, page...)
	}
	if len(rest) != 4 { // likes 6..9 survive (3..5 evicted, 0..2 were page1)
		t.Fatalf("continuation = %d likes, want 4", len(rest))
	}
	for i, l := range rest {
		if want := w.accounts[6+i]; l.AccountID != want {
			t.Fatalf("continuation[%d] = %s, want %s", i, l.AccountID, want)
		}
	}
}

func TestRetentionSeqSurvivesFullEviction(t *testing.T) {
	w := newRetWorld(t, 4, 3, 1)
	w.s.SetRetentionWindow(time.Minute)
	epoch := retEpoch()
	for i := 0; i < 3; i++ {
		if err := w.s.AddLike(w.accounts[i], w.posts[0], WriteMeta{At: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	// Crawl one page, then evict the post's entire like history.
	_, cur, _ := w.s.LikesPage(w.posts[0], 0, 2)
	w.s.RetentionSweep(epoch.Add(time.Hour))
	if got := w.s.LikeCount(w.posts[0]); got != 0 {
		t.Fatalf("LikeCount = %d after full eviction", got)
	}
	// New likes get sequences past the evicted ones, so the stale cursor
	// sees them (they are genuinely after the cursor's position) and a
	// fresh crawl sees exactly the new history.
	if err := w.s.AddLike(w.accounts[0], w.posts[0], WriteMeta{At: epoch.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	page, _, more := w.s.LikesPage(w.posts[0], cur, 10)
	if len(page) != 1 || more {
		t.Fatalf("stale-cursor page = %d likes, more=%v", len(page), more)
	}
	if page[0].AccountID != w.accounts[0] {
		t.Fatalf("stale-cursor page = %+v", page[0])
	}
}

// FuzzRetentionBoundary interleaves likes, comments, like removals, and
// retention sweeps from fuzz input. Writes are stamped up to 40 minutes
// either side of the advancing clock, so one post's likes arrive out of
// time order. After every sweep it checks that
//
//   - no account, page, or post is ever deleted;
//   - exactly the out-of-window edges are evicted (a shadow model with a
//     latest-timestamp map predicts both retained and evicted sets);
//   - pagination cursors taken before a sweep remain stable across it:
//     the continuation returns exactly the surviving likes past the
//     cursor, in order.
func FuzzRetentionBoundary(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0xc4, 0x05, 0x46, 0x87, 0xc8})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	f.Add([]byte{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef, 0x13, 0x37, 0xde, 0xad})
	// A post's second like is stamped before its first, then a sweep's
	// cutoff falls between them: only the second like is out of window.
	f.Add([]byte{0x01, 0x32, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			nAccounts = 8
			nPosts    = 4
			window    = 30 * time.Minute
		)
		w := newRetWorld(t, 4, nAccounts, nPosts)
		w.s.SetRetentionWindow(window)

		type likeKey struct{ actor, obj string }
		liked := make(map[likeKey]time.Time) // present likes, latest timestamp
		var commentTimes []time.Time         // comments are never duplicates
		now := retEpoch().Add(time.Hour)     // clear of the setup writes
		lastCutoff := time.Time{}

		for i, b := range data {
			now = now.Add(time.Duration(1+int(b&0x0f)) * time.Minute)
			at := now.Add(time.Duration((int(b)*7+i)%9-4) * 10 * time.Minute)
			actor := w.accounts[int(b>>4)%nAccounts]
			post := w.posts[int(b>>2)%nPosts]
			switch b % 5 {
			case 0, 1: // like
				k := likeKey{actor, post}
				err := w.s.AddLike(actor, post, WriteMeta{At: at})
				if _, present := liked[k]; present {
					if err == nil {
						t.Fatalf("duplicate like (%s,%s) succeeded", actor, post)
					}
				} else {
					if err != nil {
						t.Fatalf("like (%s,%s): %v", actor, post, err)
					}
					liked[k] = at
				}
			case 2: // comment
				if _, err := w.s.AddComment(actor, post, "c", WriteMeta{At: at}); err != nil {
					t.Fatal(err)
				}
				commentTimes = append(commentTimes, at)
			case 3: // remove a like
				k := likeKey{actor, post}
				err := w.s.RemoveLike(actor, post)
				if _, present := liked[k]; present != (err == nil) {
					t.Fatalf("RemoveLike(%s,%s) = %v, model present=%v", actor, post, err, present)
				}
				delete(liked, k)
			case 4: // sweep, with a mid-crawl cursor across it
				cutoff := now.Add(-window)
				full := w.s.Likes(post)
				page1, cur, more := w.s.LikesPage(post, 0, 2)
				w.s.RetentionSweep(now)
				lastCutoff = cutoff

				// Cursor stability: continuation = surviving remainder.
				if more {
					var rest []Like
					m := true
					c := cur
					for m {
						var page []Like
						page, c, m = w.s.LikesPage(post, c, 3)
						rest = append(rest, page...)
					}
					var want []Like
					for _, l := range full[len(page1):] {
						if !l.At.Before(cutoff) {
							want = append(want, l)
						}
					}
					if len(rest) != len(want) {
						t.Fatalf("continuation = %d likes, want %d surviving", len(rest), len(want))
					}
					for i := range rest {
						if rest[i] != want[i] {
							t.Fatalf("continuation[%d] = %+v, want %+v", i, rest[i], want[i])
						}
					}
				}

				// Shadow model: exactly the in-window edges survive.
				expectLikes := int64(0)
				for k, at := range liked {
					if at.Before(cutoff) {
						delete(liked, k)
						if w.s.HasLiked(k.actor, k.obj) {
							t.Fatalf("out-of-window like (%s,%s) at %v survived cutoff %v", k.actor, k.obj, at, cutoff)
						}
						continue
					}
					expectLikes++
					if !w.s.HasLiked(k.actor, k.obj) {
						t.Fatalf("in-window like (%s,%s) at %v evicted, cutoff %v", k.actor, k.obj, at, cutoff)
					}
				}
				expectComments := int64(0)
				kept := commentTimes[:0]
				for _, at := range commentTimes {
					if !at.Before(cutoff) {
						expectComments++
						kept = append(kept, at)
					}
				}
				commentTimes = kept
				got := w.s.RetainedEdges()
				if got.Likes != expectLikes || got.Comments != expectComments {
					t.Fatalf("RetainedEdges = %+v, model wants %d likes / %d comments", got, expectLikes, expectComments)
				}

				// The no-deletion invariant, every sweep.
				if n := w.s.AccountCount(); n != nAccounts {
					t.Fatalf("AccountCount = %d after sweep, want %d", n, nAccounts)
				}
				for _, p := range w.posts {
					if _, err := w.s.Post(p); err != nil {
						t.Fatalf("Post(%s) after sweep: %v", p, err)
					}
				}
			}
		}
		_ = lastCutoff
	})
}
