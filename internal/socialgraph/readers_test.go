package socialgraph

import (
	"fmt"
	"time"
)

// Store methods that only tests call. The differential oracle's
// graphStore interface names most of them, and the batch and stress
// tests apply through AddLikeBatch. The program reads the same state
// through PostsByAuthor, Likes, Friends, ActivityLog and RetainedEdges,
// and applies batches through AddLikeBatchInto.

// ShardCount returns the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// Page returns the page with the given ID.
func (s *Store) Page(id string) (Page, error) {
	sh := s.rlock(id)
	defer sh.mu.RUnlock()
	p, ok := sh.pages[id]
	if !ok {
		return Page{}, fmt.Errorf("page %q: %w", id, ErrNotFound)
	}
	return *p, nil
}

// Post returns the post with the given ID.
func (s *Store) Post(id string) (Post, error) {
	sh := s.rlock(id)
	defer sh.mu.RUnlock()
	p, ok := sh.posts[id]
	if !ok {
		return Post{}, fmt.Errorf("post %q: %w", id, ErrNotFound)
	}
	return *p, nil
}

// HasLiked reports whether the account has liked the object.
func (s *Store) HasLiked(accountID, objectID string) bool {
	num, _ := idNum(accountID)
	serial, ok := accountSerial(num)
	if !ok {
		return false
	}
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	h, ok := sh.likes[objectID]
	return ok && h.set.has(serial)
}

// ActivitySince returns the account's outgoing activity at or after t.
// The returned ObjectIDs and TargetIDs share one string (see
// activitySince).
func (s *Store) ActivitySince(accountID string, t time.Time) []Activity {
	return s.activitySince(accountID, wallOf(t))
}

// OwnerOf resolves the owner of a likeable object.
func (s *Store) OwnerOf(objectID string) (string, error) {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	return ownerOfShard(sh, objectID)
}

// Stats summarises store contents.
type Stats struct {
	Accounts, Pages, Posts, Comments, Likes int
}

// Stats returns aggregate counts composed from per-shard snapshots.
func (s *Store) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := s.rlockIdx(i)
		st.Accounts += len(sh.accounts)
		st.Pages += len(sh.pages)
		st.Posts += len(sh.posts)
		st.Comments += len(sh.comments)
		for _, h := range sh.likes {
			st.Likes += h.set.n
		}
		sh.mu.RUnlock()
	}
	return st
}

// FriendCount returns the number of friends of the account.
func (s *Store) FriendCount(accountID string) int {
	sh := s.rlock(accountID)
	defer sh.mu.RUnlock()
	return len(sh.friends[accountID])
}

// AreFriends reports whether an edge exists.
func (s *Store) AreFriends(a, b string) bool {
	sh := s.rlock(a)
	defer sh.mu.RUnlock()
	return sh.friends[a][b]
}

// AddLikeBatch applies the ops in order and returns one error per op,
// aligned by index (nil = applied): AddLikeBatchInto with a fresh error
// slice.
func (s *Store) AddLikeBatch(ops []LikeOp) []error {
	errs := make([]error, len(ops))
	s.AddLikeBatchInto(ops, errs)
	return errs
}
