package socialgraph

// Tests for the batched like apply: unit coverage for the run grouping
// and the generalized ordered-lock helper, plus a fuzz target that
// derives adversarial batches (repeated likers, mixed objects, bogus
// IDs, an unregistered account) from raw bytes and checks AddLikeBatch
// against a sequential AddLike replay on the single-lock reference
// store.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

var batchEpoch = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

// batchWorld builds the same small population in a sharded store and the
// reference oracle: accounts (the last slot unregistered), posts, and pages.
func batchWorld(t testing.TB, shards, accounts, posts, pages int) (*Store, *referenceStore, []string, []string, []string) {
	t.Helper()
	sharded := New(shards, 0)
	oracle := newReferenceStore()
	var acctIDs, postIDs, pageIDs []string
	for i := 0; i < accounts; i++ {
		g := sharded.CreateAccount(fmt.Sprintf("acct-%d", i), "IN", batchEpoch)
		w := oracle.CreateAccount(fmt.Sprintf("acct-%d", i), "IN", batchEpoch)
		if g.ID != w.ID {
			t.Fatalf("minted account IDs diverge: %s vs %s", g.ID, w.ID)
		}
		acctIDs = append(acctIDs, g.ID)
	}
	for i := 0; i < posts; i++ {
		meta := WriteMeta{At: batchEpoch}
		g, gerr := sharded.CreatePost(acctIDs[i%len(acctIDs)], "p", meta)
		w, werr := oracle.CreatePost(acctIDs[i%len(acctIDs)], "p", meta)
		if gerr != nil || werr != nil {
			t.Fatalf("CreatePost: %v / %v", gerr, werr)
		}
		if g.ID != w.ID {
			t.Fatalf("minted post IDs diverge: %s vs %s", g.ID, w.ID)
		}
		postIDs = append(postIDs, g.ID)
	}
	for i := 0; i < pages; i++ {
		g, gerr := sharded.CreatePage(acctIDs[0], fmt.Sprintf("page-%d", i), batchEpoch)
		w, werr := oracle.CreatePage(acctIDs[0], fmt.Sprintf("page-%d", i), batchEpoch)
		if gerr != nil || werr != nil {
			t.Fatalf("CreatePage: %v / %v", gerr, werr)
		}
		if g.ID != w.ID {
			t.Fatalf("minted page IDs diverge: %s vs %s", g.ID, w.ID)
		}
		pageIDs = append(pageIDs, g.ID)
	}
	// Swap the last account slot for an ID no account is registered under
	// after content creation, so it is never an author, only a (rejected)
	// liker.
	if accounts > 1 {
		acctIDs[len(acctIDs)-1] = "unregistered-account"
	}
	return sharded, oracle, acctIDs, postIDs, pageIDs
}

// replayBatch applies the batch to the sharded store in one call and to
// the oracle as sequential AddLikes, requiring identical per-op errors.
func replayBatch(t *testing.T, sharded *Store, oracle *referenceStore, batch []LikeOp) {
	t.Helper()
	gerrs := sharded.AddLikeBatch(batch)
	if len(gerrs) != len(batch) {
		t.Fatalf("AddLikeBatch returned %d errors for %d ops", len(gerrs), len(batch))
	}
	for j, op := range batch {
		werr := oracle.AddLike(op.AccountID, op.ObjectID, op.Meta)
		if !sameErr(gerrs[j], werr) {
			t.Fatalf("op %d (%s likes %s): batch err %v, sequential oracle %v",
				j, op.AccountID, op.ObjectID, gerrs[j], werr)
		}
	}
}

// TestAddLikeBatchMatchesSequential interleaves objects that land on
// different stripes so the batch splits into several runs, and includes
// every error class: duplicates (pre-existing and intra-batch), an
// unregistered liker, an unknown liker, and an unknown object.
func TestAddLikeBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, oracle, accts, posts, pages := batchWorld(t, shards, 6, 8, 2)
			meta := func(i int) WriteMeta {
				return WriteMeta{AppID: "app-1", SourceIP: "203.0.113.9", At: batchEpoch.Add(time.Duration(i) * time.Second)}
			}
			unregistered := accts[len(accts)-1]
			// Seed one pre-existing like so the batch hits ErrAlreadyLiked
			// across the batch boundary too.
			if err := sharded.AddLike(accts[0], posts[0], meta(0)); err != nil {
				t.Fatal(err)
			}
			if err := oracle.AddLike(accts[0], posts[0], meta(0)); err != nil {
				t.Fatal(err)
			}
			var batch []LikeOp
			for i := 0; i < 40; i++ {
				batch = append(batch, LikeOp{
					AccountID: accts[i%4],
					ObjectID:  posts[i%len(posts)], // cycles objects → many runs
					Meta:      meta(i + 1),
				})
			}
			batch = append(batch,
				LikeOp{AccountID: accts[0], ObjectID: posts[0], Meta: meta(50)},     // duplicate of the seeded like
				LikeOp{AccountID: accts[1], ObjectID: pages[0], Meta: meta(51)},     // page like
				LikeOp{AccountID: accts[1], ObjectID: pages[0], Meta: meta(52)},     // intra-batch duplicate
				LikeOp{AccountID: accts[2], ObjectID: accts[3], Meta: meta(53)},     // profile like
				LikeOp{AccountID: unregistered, ObjectID: posts[1], Meta: meta(54)}, // unregistered liker
				LikeOp{AccountID: "nobody", ObjectID: posts[2], Meta: meta(55)},     // unknown liker
				LikeOp{AccountID: accts[3], ObjectID: "no-object", Meta: meta(56)},  // unknown object
			)
			replayBatch(t, sharded, oracle, batch)
			objects := append(append(append([]string{}, posts...), pages...), accts...)
			for _, obj := range objects {
				compareLikeCrawl(t, sharded, oracle, obj)
			}
			for _, acct := range accts {
				compareActivities(t, acct, sharded.ActivityLog(acct), oracle.ActivityLog(acct))
			}
		})
	}
}

// TestAddLikeBatchEmpty pins the degenerate shapes.
func TestAddLikeBatchEmpty(t *testing.T) {
	s := New(4, 0)
	if errs := s.AddLikeBatch(nil); len(errs) != 0 {
		t.Fatalf("AddLikeBatch(nil) = %d errors", len(errs))
	}
	if errs := s.AddLikeBatch([]LikeOp{}); len(errs) != 0 {
		t.Fatalf("AddLikeBatch(empty) = %d errors", len(errs))
	}
	errs := s.AddLikeBatch([]LikeOp{{AccountID: "ghost", ObjectID: "ghost-post"}})
	if len(errs) != 1 || !errors.Is(errs[0], ErrNotFound) {
		t.Fatalf("AddLikeBatch(unknown) = %v", errs)
	}
}

// TestApplyLikeRunLockScope exercises the batch lock scope directly:
// duplicate stripes across the object and the run's likers must collapse
// into one ascending acquisition pass (counted via the contention
// counters), and every stripe must be released on exit.
func TestApplyLikeRunLockScope(t *testing.T) {
	s := New(8, 0)
	run := []LikeOp{
		{AccountID: "liker-a", ObjectID: "obj-x"},
		{AccountID: "liker-b", ObjectID: "obj-x"},
		{AccountID: "liker-a", ObjectID: "obj-x"}, // duplicate stripe
	}
	objIdx := s.shardIndex("obj-x")
	want := map[int]bool{objIdx: true}
	for _, op := range run {
		want[s.shardIndex(op.AccountID)] = true
	}
	errs := make([]error, len(run))
	acqBefore, _ := s.Contention().Totals()
	s.applyLikeRun(run, errs, objIdx)
	acqAfter, _ := s.Contention().Totals()
	if got := acqAfter - acqBefore; got != int64(len(want)) {
		t.Fatalf("applyLikeRun acquired %d stripes, want %d (dedup)", got, len(want))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("applyLikeRun on unknown likers = %v, want ErrNotFound", err)
		}
	}
	// Every stripe must be free again: a full relock would deadlock
	// otherwise.
	for i := 0; i < s.ShardCount(); i++ {
		sh := s.lockIdx(i)
		sh.mu.Unlock()
	}
}

// FuzzAddLikeBatchGrouping derives a like batch from arbitrary bytes —
// each byte selects a (liker, object) pair, covering repeated likers,
// repeated objects, bogus IDs, profile/page targets, and an unregistered
// account — and checks the batch→shard-run grouping against a sequential
// AddLike replay on the single-lock reference store: identical per-op
// errors and identical final crawl state, for shard counts from 1 to 128.
func FuzzAddLikeBatchGrouping(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0xff}, uint8(0))
	f.Add([]byte{0x07, 0x07, 0x07, 0x70, 0x71, 0xa5}, uint8(6))
	f.Add([]byte{0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, shardSel uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		shards := 1 << (shardSel % 8) // 1..128
		sharded, oracle, accts, posts, pages := batchWorld(t, shards, 8, 6, 2)
		batch := make([]LikeOp, 0, len(data))
		for i, b := range data {
			liker := "bogus-liker"
			if li := int(b & 0x0f); li < len(accts) {
				liker = accts[li]
			}
			var object string
			switch sel := int(b >> 4); {
			case sel < 6:
				object = posts[sel]
			case sel < 8:
				object = pages[sel-6]
			case sel < 12:
				object = accts[sel-8] // profile like
			default:
				object = fmt.Sprintf("bogus-object-%d", sel)
			}
			batch = append(batch, LikeOp{
				AccountID: liker,
				ObjectID:  object,
				Meta:      WriteMeta{AppID: "app-f", SourceIP: "203.0.113.77", At: batchEpoch.Add(time.Duration(i) * time.Second)},
			})
		}
		replayBatch(t, sharded, oracle, batch)
		objects := append(append(append([]string{}, posts...), pages...), accts...)
		for _, obj := range objects {
			compareLikeCrawl(t, sharded, oracle, obj)
		}
		for _, acct := range accts {
			compareActivities(t, acct, sharded.ActivityLog(acct), oracle.ActivityLog(acct))
		}
	})
}
