package socialgraph

// Differential harness: the sharded Store and the seed single-lock
// referenceStore are driven with identical randomized operation sequences
// and must produce identical observable state — returned values, error
// sentinels, minted IDs, like counts, crawl order, activity logs,
// friendship sets, and pagination cursors. This is the fidelity guarantee
// the whole reproduction rests on: every experiment's numbers flow
// through this store, so the concurrency refactor must be invisible to
// sequential callers.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// graphStore is the observable operation surface shared by the sharded
// store and the reference oracle.
type graphStore interface {
	CreateAccount(name, country string, at time.Time) Account
	Account(id string) (Account, error)
	AccountCount() int
	CreatePage(ownerID, name string, at time.Time) (Page, error)
	Page(id string) (Page, error)
	CreatePost(authorID, message string, meta WriteMeta) (Post, error)
	Post(id string) (Post, error)
	PostsByAuthor(authorID string) []Post
	AddLike(accountID, objectID string, meta WriteMeta) error
	RemoveLike(accountID, objectID string) error
	Likes(objectID string) []Like
	LikeCount(objectID string) int
	HasLiked(accountID, objectID string) bool
	AddComment(accountID, postID, message string, meta WriteMeta) (Comment, error)
	Comments(postID string) []Comment
	ActivityLog(accountID string) []Activity
	ActivitySince(accountID string, t time.Time) []Activity
	OwnerOf(objectID string) (string, error)
	Stats() Stats
	AccountIDs() []string
	AddFriendship(a, b string) error
	Friends(accountID string) []string
	FriendCount(accountID string) int
	AreFriends(a, b string) bool
	CreateAccountBatch(seeds []AccountSeed, at time.Time) []Account
	SetRetentionWindow(w time.Duration)
	RetentionWindow() time.Duration
	RetentionSweep(now time.Time) SweepResult
	RetainedEdges() EdgeStats
	LikesPage(objectID string, after, limit int) (page []Like, next int, more bool)
	CommentsPage(postID string, after, limit int) (page []Comment, next int, more bool)
}

var (
	_ graphStore = (*Store)(nil)
	_ graphStore = (*referenceStore)(nil)
)

// diffWorld tracks the IDs both stores have minted so far (they must
// agree, which the harness asserts on every create).
type diffWorld struct {
	accounts []string
	pages    []string
	posts    []string
}

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, sentinel := range []error{
		ErrNotFound, ErrAlreadyLiked, ErrNotLiked,
		ErrEmptyMessage, ErrInvalidReference,
	} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// pick returns a mostly-valid ID: usually a known one, occasionally a
// bogus string, exercising the error paths of both stores identically.
func pick(rng *rand.Rand, pool []string) string {
	if len(pool) == 0 || rng.Intn(20) == 0 {
		return fmt.Sprintf("bogus-%d", rng.Intn(5))
	}
	return pool[rng.Intn(len(pool))]
}

// runDifferential drives ops randomized operations into both stores.
// window sets both stores' retention window (0 = infinite); the op mix
// includes retention sweeps, which are no-ops at the infinite window and
// evict identically on both stores at a finite one. jitter > 0 moves each
// op's instant by a uniform draw in [-jitter, +jitter], so one object's
// likes arrive out of time order and sweep instants go back and forth,
// and makes each purge remove a like that exists.
func runDifferential(t *testing.T, seed int64, ops int, shards int, window, jitter time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sharded := New(shards, 0)
	oracle := newReferenceStore()
	sharded.SetRetentionWindow(window)
	oracle.SetRetentionWindow(window)
	if g, want := sharded.RetentionWindow(), oracle.RetentionWindow(); g != want {
		t.Fatalf("RetentionWindow = %v, oracle %v", g, want)
	}
	w := &diffWorld{}
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

	for i := 0; i < ops; i++ {
		at := epoch.Add(time.Duration(i) * time.Minute)
		if jitter > 0 {
			at = at.Add(time.Duration(rng.Int63n(int64(2*jitter)+1)) - jitter)
		}
		meta := WriteMeta{
			AppID:    fmt.Sprintf("app-%d", rng.Intn(3)),
			SourceIP: fmt.Sprintf("203.0.113.%d", rng.Intn(200)),
			At:       at,
		}
		switch op := rng.Intn(100); {
		case op < 15: // create account (sometimes a whole batch)
			if rng.Intn(5) == 0 {
				seeds := make([]AccountSeed, 1+rng.Intn(20))
				for j := range seeds {
					seeds[j] = AccountSeed{Name: fmt.Sprintf("acct-%d-%d", i, j), Country: "TR"}
				}
				got := sharded.CreateAccountBatch(seeds, at)
				want := oracle.CreateAccountBatch(seeds, at)
				if len(got) != len(want) {
					t.Fatalf("op %d: CreateAccountBatch: %d vs %d", i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("op %d: CreateAccountBatch[%d] = %+v, oracle %+v", i, j, got[j], want[j])
					}
					w.accounts = append(w.accounts, got[j].ID)
				}
				break
			}
			name := fmt.Sprintf("acct-%d", i)
			got := sharded.CreateAccount(name, "IN", at)
			want := oracle.CreateAccount(name, "IN", at)
			if got != want {
				t.Fatalf("op %d: CreateAccount = %+v, oracle %+v", i, got, want)
			}
			w.accounts = append(w.accounts, got.ID)
		case op < 20: // create page
			owner := pick(rng, w.accounts)
			got, gerr := sharded.CreatePage(owner, "page", at)
			want, werr := oracle.CreatePage(owner, "page", at)
			if !sameErr(gerr, werr) || got != want {
				t.Fatalf("op %d: CreatePage = %+v/%v, oracle %+v/%v", i, got, gerr, want, werr)
			}
			if gerr == nil {
				w.pages = append(w.pages, got.ID)
			}
		case op < 35: // create post (sometimes by a page, sometimes empty)
			author := pick(rng, w.accounts)
			if len(w.pages) > 0 && rng.Intn(4) == 0 {
				author = pick(rng, w.pages)
			}
			msg := fmt.Sprintf("post %d", i)
			if rng.Intn(25) == 0 {
				msg = ""
			}
			got, gerr := sharded.CreatePost(author, msg, meta)
			want, werr := oracle.CreatePost(author, msg, meta)
			if !sameErr(gerr, werr) || got != want {
				t.Fatalf("op %d: CreatePost = %+v/%v, oracle %+v/%v", i, got, gerr, want, werr)
			}
			if gerr == nil {
				w.posts = append(w.posts, got.ID)
			}
		case op < 58: // like a post, page, or profile (dups included)
			liker := pick(rng, w.accounts)
			object := pick(rng, w.posts)
			switch rng.Intn(6) {
			case 0:
				object = pick(rng, w.pages)
			case 1:
				object = pick(rng, w.accounts)
			}
			gerr := sharded.AddLike(liker, object, meta)
			werr := oracle.AddLike(liker, object, meta)
			if !sameErr(gerr, werr) {
				t.Fatalf("op %d: AddLike(%s,%s) = %v, oracle %v", i, liker, object, gerr, werr)
			}
		case op < 65: // batched likes: AddLikeBatch vs sequential oracle
			n := 1 + rng.Intn(60)
			batch := make([]LikeOp, n)
			for j := range batch {
				object := pick(rng, w.posts)
				switch rng.Intn(6) {
				case 0:
					object = pick(rng, w.pages)
				case 1:
					object = pick(rng, w.accounts)
				}
				batch[j] = LikeOp{AccountID: pick(rng, w.accounts), ObjectID: object, Meta: meta}
			}
			if n > 1 && rng.Intn(2) == 0 {
				// Force an intra-batch duplicate: its second occurrence
				// must fail with ErrAlreadyLiked exactly as a sequential
				// AddLike replay would.
				batch[n-1] = batch[rng.Intn(n-1)]
			}
			gerrs := sharded.AddLikeBatch(batch)
			for j, lop := range batch {
				werr := oracle.AddLike(lop.AccountID, lop.ObjectID, lop.Meta)
				if !sameErr(gerrs[j], werr) {
					t.Fatalf("op %d: AddLikeBatch[%d](%s,%s) = %v, oracle AddLike %v",
						i, j, lop.AccountID, lop.ObjectID, gerrs[j], werr)
				}
			}
		case op < 70: // purge a like
			liker := pick(rng, w.accounts)
			object := pick(rng, w.posts)
			if likes := oracle.Likes(object); jitter > 0 && len(likes) > 0 {
				liker = likes[rng.Intn(len(likes))].AccountID
			}
			gerr := sharded.RemoveLike(liker, object)
			werr := oracle.RemoveLike(liker, object)
			if !sameErr(gerr, werr) {
				t.Fatalf("op %d: RemoveLike = %v, oracle %v", i, gerr, werr)
			}
		case op < 80: // comment
			commenter := pick(rng, w.accounts)
			post := pick(rng, w.posts)
			msg := fmt.Sprintf("AW E S O M E %d", i)
			if rng.Intn(25) == 0 {
				msg = ""
			}
			got, gerr := sharded.AddComment(commenter, post, msg, meta)
			want, werr := oracle.AddComment(commenter, post, msg, meta)
			if !sameErr(gerr, werr) || got != want {
				t.Fatalf("op %d: AddComment = %+v/%v, oracle %+v/%v", i, got, gerr, want, werr)
			}
		case op < 93: // friendship
			a := pick(rng, w.accounts)
			b := pick(rng, w.accounts)
			gerr := sharded.AddFriendship(a, b)
			werr := oracle.AddFriendship(a, b)
			if !sameErr(gerr, werr) {
				t.Fatalf("op %d: AddFriendship(%s,%s) = %v, oracle %v", i, a, b, gerr, werr)
			}
		case op < 95: // retention sweep
			gres := sharded.RetentionSweep(at)
			wres := oracle.RetentionSweep(at)
			if gres != wres {
				t.Fatalf("op %d: RetentionSweep = %+v, oracle %+v", i, gres, wres)
			}
			if g, want := sharded.RetainedEdges(), oracle.RetainedEdges(); g != want {
				t.Fatalf("op %d: RetainedEdges = %+v, oracle %+v", i, g, want)
			}
		default: // spot-check reads mid-sequence
			id := pick(rng, w.accounts)
			obj := pick(rng, w.posts)
			ga, gaerr := sharded.Account(id)
			wa, waerr := oracle.Account(id)
			if !sameErr(gaerr, waerr) || ga != wa {
				t.Fatalf("op %d: Account = %+v/%v, oracle %+v/%v", i, ga, gaerr, wa, waerr)
			}
			if g, w := sharded.LikeCount(obj), oracle.LikeCount(obj); g != w {
				t.Fatalf("op %d: LikeCount = %d, oracle %d", i, g, w)
			}
			if g, w := sharded.HasLiked(id, obj), oracle.HasLiked(id, obj); g != w {
				t.Fatalf("op %d: HasLiked = %v, oracle %v", i, g, w)
			}
			go1, goerr := sharded.OwnerOf(obj)
			wo, woerr := oracle.OwnerOf(obj)
			if !sameErr(goerr, woerr) || go1 != wo {
				t.Fatalf("op %d: OwnerOf = %v/%v, oracle %v/%v", i, go1, goerr, wo, woerr)
			}
		}
	}
	// Likers is the oracle's like crawl without the attribution.
	for _, obj := range append(append(append([]string(nil), w.posts...), w.pages...), w.accounts...) {
		likes, likers := oracle.Likes(obj), sharded.Likers(obj)
		if len(likers) != len(likes) {
			t.Fatalf("Likers(%s) = %d IDs, oracle %d likes", obj, len(likers), len(likes))
		}
		for i, l := range likes {
			if likers[i] != l.AccountID {
				t.Fatalf("Likers(%s)[%d] = %s, oracle %s", obj, i, likers[i], l.AccountID)
			}
		}
	}
	compareStores(t, sharded, oracle, w)
}

// compareStores asserts full observable-state equality after the run.
func compareStores(t *testing.T, sharded, oracle graphStore, w *diffWorld) {
	t.Helper()
	if g, want := sharded.Stats(), oracle.Stats(); g != want {
		t.Fatalf("Stats = %+v, oracle %+v", g, want)
	}
	if g, want := sharded.AccountCount(), oracle.AccountCount(); g != want {
		t.Fatalf("AccountCount = %d, oracle %d", g, want)
	}
	gids, wids := sharded.AccountIDs(), oracle.AccountIDs()
	if len(gids) != len(wids) {
		t.Fatalf("AccountIDs: %d vs %d", len(gids), len(wids))
	}
	for i := range gids {
		if gids[i] != wids[i] {
			t.Fatalf("AccountIDs[%d] = %s, oracle %s", i, gids[i], wids[i])
		}
	}
	for _, id := range w.accounts {
		ga, gerr := sharded.Account(id)
		wa, werr := oracle.Account(id)
		if !sameErr(gerr, werr) || ga != wa {
			t.Fatalf("Account(%s) = %+v/%v, oracle %+v/%v", id, ga, gerr, wa, werr)
		}
		compareActivities(t, id, sharded.ActivityLog(id), oracle.ActivityLog(id))
		gf, wf := sharded.Friends(id), oracle.Friends(id)
		if len(gf) != len(wf) {
			t.Fatalf("Friends(%s): %d vs %d", id, len(gf), len(wf))
		}
		for i := range gf {
			if gf[i] != wf[i] {
				t.Fatalf("Friends(%s)[%d] = %s, oracle %s", id, i, gf[i], wf[i])
			}
		}
		if g, want := sharded.FriendCount(id), oracle.FriendCount(id); g != want {
			t.Fatalf("FriendCount(%s) = %d, oracle %d", id, g, want)
		}
		comparePosts(t, id, sharded.PostsByAuthor(id), oracle.PostsByAuthor(id))
	}
	objects := append(append(append([]string{}, w.posts...), w.pages...), w.accounts...)
	for _, obj := range objects {
		compareLikeCrawl(t, sharded, oracle, obj)
	}
	for _, post := range w.posts {
		gc, wc := sharded.Comments(post), oracle.Comments(post)
		if len(gc) != len(wc) {
			t.Fatalf("Comments(%s): %d vs %d", post, len(gc), len(wc))
		}
		for i := range gc {
			if gc[i] != wc[i] {
				t.Fatalf("Comments(%s)[%d] = %+v, oracle %+v", post, i, gc[i], wc[i])
			}
		}
		compareCommentCursorCrawl(t, sharded, oracle, post)
	}
	if g, want := sharded.RetainedEdges(), oracle.RetainedEdges(); g != want {
		t.Fatalf("RetainedEdges = %+v, oracle %+v", g, want)
	}
}

// compareLikeCrawl checks the full crawl order and the paginated crawl —
// the cursor scheme the Graph API layer exposes is offset-based over
// exactly this arrival order, so equal chunked traversal means equal
// pagination cursors for API clients.
func compareLikeCrawl(t *testing.T, sharded, oracle graphStore, objectID string) {
	t.Helper()
	gl, wl := sharded.Likes(objectID), oracle.Likes(objectID)
	if len(gl) != len(wl) {
		t.Fatalf("Likes(%s): %d vs %d", objectID, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("Likes(%s)[%d] = %+v, oracle %+v", objectID, i, gl[i], wl[i])
		}
	}
	if g, want := sharded.LikeCount(objectID), oracle.LikeCount(objectID); g != want {
		t.Fatalf("LikeCount(%s) = %d, oracle %d", objectID, g, want)
	}
	// Paginated crawl in pages of 3: every page boundary (cursor) must
	// yield the same window on both stores.
	const pageSize = 3
	for off := 0; off < len(gl); off += pageSize {
		end := off + pageSize
		if end > len(gl) {
			end = len(gl)
		}
		for i := off; i < end; i++ {
			if gl[i].AccountID != wl[i].AccountID {
				t.Fatalf("Likes(%s) page at cursor %d diverges", objectID, off)
			}
		}
	}
	// Sequence-cursored crawl via LikesPage: both stores must serve the
	// same pages, the same next-cursors, and reassemble the full crawl.
	var crawled []Like
	after := 0
	for {
		gp, gnext, gmore := sharded.LikesPage(objectID, after, pageSize)
		wp, wnext, wmore := oracle.LikesPage(objectID, after, pageSize)
		if len(gp) != len(wp) || gnext != wnext || gmore != wmore {
			t.Fatalf("LikesPage(%s, after=%d): %d/%d/%v vs %d/%d/%v",
				objectID, after, len(gp), gnext, gmore, len(wp), wnext, wmore)
		}
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("LikesPage(%s, after=%d)[%d] = %+v, oracle %+v", objectID, after, i, gp[i], wp[i])
			}
		}
		crawled = append(crawled, gp...)
		if !gmore {
			break
		}
		after = gnext
	}
	if len(crawled) != len(gl) {
		t.Fatalf("LikesPage crawl of %s reassembled %d likes, Likes has %d", objectID, len(crawled), len(gl))
	}
	for i := range crawled {
		if crawled[i] != gl[i] {
			t.Fatalf("LikesPage crawl of %s diverges at %d", objectID, i)
		}
	}
}

// compareCommentCursorCrawl walks the sequence-cursored comment pages on
// both stores in lockstep.
func compareCommentCursorCrawl(t *testing.T, sharded, oracle graphStore, postID string) {
	t.Helper()
	after := 0
	for {
		gp, gnext, gmore := sharded.CommentsPage(postID, after, 4)
		wp, wnext, wmore := oracle.CommentsPage(postID, after, 4)
		if len(gp) != len(wp) || gnext != wnext || gmore != wmore {
			t.Fatalf("CommentsPage(%s, after=%d): %d/%d/%v vs %d/%d/%v",
				postID, after, len(gp), gnext, gmore, len(wp), wnext, wmore)
		}
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("CommentsPage(%s, after=%d)[%d] = %+v, oracle %+v", postID, after, i, gp[i], wp[i])
			}
		}
		if !gmore {
			return
		}
		after = gnext
	}
}

func comparePosts(t *testing.T, author string, g, w []Post) {
	t.Helper()
	if len(g) != len(w) {
		t.Fatalf("PostsByAuthor(%s): %d vs %d", author, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("PostsByAuthor(%s)[%d] = %+v, oracle %+v", author, i, g[i], w[i])
		}
	}
}

func compareActivities(t *testing.T, account string, g, w []Activity) {
	t.Helper()
	if len(g) != len(w) {
		t.Fatalf("ActivityLog(%s): %d vs %d", account, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("ActivityLog(%s)[%d] = %+v, oracle %+v", account, i, g[i], w[i])
		}
	}
}

// TestDifferentialShardedVsReference drives >= 10k randomized operations
// into both implementations across several seeds and shard counts,
// including the degenerate 1-shard store and a shard count far above the
// object count.
func TestDifferentialShardedVsReference(t *testing.T) {
	ops := 10_000
	if testing.Short() {
		ops = 2_500
	}
	for _, tc := range []struct {
		seed   int64
		shards int
	}{
		{seed: 1, shards: 1},
		{seed: 2, shards: 4},
		{seed: 3, shards: 16},
		{seed: 4, shards: 256},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/shards=%d", tc.seed, tc.shards), func(t *testing.T) {
			runDifferential(t, tc.seed, ops, tc.shards, 0, 0)
		})
	}
}

// TestDifferentialRetention re-runs the harness with a finite retention
// window, so the in-mix retention sweeps actually evict edge history.
// Timestamps advance one minute per op, so a few-hour window turns over
// many times across the sequence; the sharded store's per-stripe eviction
// must remain indistinguishable from the oracle's single-lock one —
// including the sequence cursors of pages that survive a sweep.
func TestDifferentialRetention(t *testing.T) {
	ops := 10_000
	if testing.Short() {
		ops = 2_500
	}
	for _, tc := range []struct {
		seed   int64
		shards int
		window time.Duration
	}{
		{seed: 5, shards: 1, window: 2 * time.Hour},
		{seed: 6, shards: 8, window: 6 * time.Hour},
		{seed: 7, shards: 64, window: 30 * time.Minute},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/shards=%d/window=%s", tc.seed, tc.shards, tc.window), func(t *testing.T) {
			runDifferential(t, tc.seed, ops, tc.shards, tc.window, 0)
		})
	}
}

// TestDifferentialRetentionJitter re-runs the retention harness with each
// op's instant jittered by up to ±2 h and purges that hit existing likes.
// One object's likes then arrive out of time order, so a history's
// oldest and newest bounds must follow every like and survive every
// RemoveLike; a sweep that skips or retires a history on a wrong bound
// keeps or drops a like the oracle does not.
func TestDifferentialRetentionJitter(t *testing.T) {
	ops := 10_000
	if testing.Short() {
		ops = 2_500
	}
	for _, tc := range []struct {
		seed   int64
		shards int
		window time.Duration
	}{
		{seed: 8, shards: 1, window: time.Hour},
		{seed: 9, shards: 8, window: 3 * time.Hour},
		{seed: 10, shards: 64, window: 30 * time.Minute},
	} {
		t.Run(fmt.Sprintf("seed=%d/shards=%d/window=%s", tc.seed, tc.shards, tc.window), func(t *testing.T) {
			runDifferential(t, tc.seed, ops, tc.shards, tc.window, 2*time.Hour)
		})
	}
}

// TestDifferentialActivitySince pins the time-filtered crawl both
// implementations serve to the honeypot outgoing-activity experiments.
func TestDifferentialActivitySince(t *testing.T) {
	sharded := New(8, 0)
	oracle := newReferenceStore()
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	var gA, wA Account
	for i := 0; i < 5; i++ {
		gA = sharded.CreateAccount(fmt.Sprintf("u%d", i), "IN", epoch)
		wA = oracle.CreateAccount(fmt.Sprintf("u%d", i), "IN", epoch)
	}
	gp, _ := sharded.CreatePost(gA.ID, "p", WriteMeta{At: epoch})
	wp, _ := oracle.CreatePost(wA.ID, "p", WriteMeta{At: epoch})
	for i := 0; i < 24; i++ {
		at := epoch.Add(time.Duration(i) * time.Hour)
		_, _ = sharded.AddComment(gA.ID, gp.ID, "c", WriteMeta{At: at})
		_, _ = oracle.AddComment(wA.ID, wp.ID, "c", WriteMeta{At: at})
	}
	cut := epoch.Add(12 * time.Hour)
	compareActivities(t, gA.ID, sharded.ActivitySince(gA.ID, cut), oracle.ActivitySince(wA.ID, cut))
}
