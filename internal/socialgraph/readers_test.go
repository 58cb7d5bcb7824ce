package socialgraph

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Store methods that only tests call. The differential oracle's
// graphStore interface names most of them, and the batch and stress
// tests apply through AddLikeBatch. The program reads the same state
// through Likes, Comments, Friends, ActivityLog and RetainedEdges, and
// applies batches through AddLikeBatchInto.

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

// PostsByAuthor returns the author's posts in creation order: the posts
// of every stripe whose author it is, in minted-ID order.
func (s *Store) PostsByAuthor(authorID string) []Post {
	var out []Post
	for i := range s.shards {
		sh := s.rlockIdx(i)
		for _, p := range sh.posts {
			if p.AuthorID == authorID {
				out = append(out, *p)
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b Post) int {
		an, _ := idNum(a.ID)
		bn, _ := idNum(b.ID)
		return cmp.Compare(an, bn)
	})
	return out
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

// CommentsPage returns up to limit retained comments on postID whose
// arrival sequence is at least after, in creation order, along with the
// cursor for the next page and whether more remain. limit <= 0 means no
// limit. Cursor semantics match LikesPage.
func (s *Store) CommentsPage(postID string, after, limit int) (page []Comment, next int, more bool) {
	sh := s.rlock(postID)
	defer sh.mu.RUnlock()
	l, ok := sh.commentOrder[postID]
	if !ok {
		return nil, 0, false
	}
	c, i, pos := searchEdges(l, after)
	end := l.total
	if limit > 0 && pos+limit < end {
		end = pos + limit
	}
	for c != nil && pos < end {
		for i < c.n && pos < end {
			if rec, ok := sh.comments[c.buf[i].id]; ok {
				page = append(page, *rec)
			}
			pos++
			i++
		}
		if i == c.n {
			c, i = c.next, 0
		}
	}
	if pos < l.total {
		return page, c.buf[i].seq, true
	}
	return page, 0, false
}
