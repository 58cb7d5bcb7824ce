package socialgraph

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
)

// referenceStore is the seed single-mutex implementation of the social
// graph, kept verbatim as the behavioural oracle for the sharded Store.
// The differential tests drive identical randomized operation sequences
// into both implementations and require identical observable state —
// minted IDs, error sentinels, like counts, crawl order, activity logs,
// pagination — so any semantic drift in the sharded store is caught
// immediately. It is deliberately unexported and must only be used from
// tests.
type referenceStore struct {
	mu       sync.RWMutex
	minter   *ids.Minter
	accounts map[string]*Account
	pages    map[string]*Page
	posts    map[string]*Post
	comments map[string]*Comment
	// likesByObject[objectID][accountID] = like
	likesByObject map[string]map[string]Like
	// likeOrder preserves insertion order of likes per object for crawling,
	// each entry carrying its never-reused arrival sequence (see edgeRef).
	likeOrder map[string][]edgeRef
	// postsByAuthor[authorID] = post IDs in creation order
	postsByAuthor map[string][]string
	// commentsByPost[postID] = comment refs in creation order
	commentsByPost map[string][]edgeRef
	// activity[accountID] = outgoing activity log
	activity map[string][]Activity
	// friends[accountID] = set of friend account IDs (undirected edges,
	// stored symmetrically); allocated lazily by AddFriendship.
	friends map[string]map[string]bool
	// likeSeq / commentSeq hold each object's next arrival sequence.
	likeSeq    map[string]int
	commentSeq map[string]int
	// retention is the analytics window; 0 = infinite (sweeps no-op).
	retention time.Duration
}

// newReferenceStore returns an empty reference store.
func newReferenceStore() *referenceStore {
	return &referenceStore{
		minter:         ids.NewMinter(),
		accounts:       make(map[string]*Account),
		pages:          make(map[string]*Page),
		posts:          make(map[string]*Post),
		comments:       make(map[string]*Comment),
		likesByObject:  make(map[string]map[string]Like),
		likeOrder:      make(map[string][]edgeRef),
		postsByAuthor:  make(map[string][]string),
		commentsByPost: make(map[string][]edgeRef),
		activity:       make(map[string][]Activity),
		likeSeq:        make(map[string]int),
		commentSeq:     make(map[string]int),
	}
}

// CreateAccount registers a new account and returns it.
func (s *referenceStore) CreateAccount(name, country string, at time.Time) Account {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := &Account{
		ID:        s.minter.Next(ids.KindAccount),
		Name:      name,
		Country:   country,
		CreatedAt: at,
	}
	s.accounts[a.ID] = a
	return *a
}

// Account returns the account with the given ID.
func (s *referenceStore) Account(id string) (Account, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.accounts[id]
	if !ok {
		return Account{}, fmt.Errorf("account %q: %w", id, ErrNotFound)
	}
	return *a, nil
}

// AccountCount returns the number of registered accounts.
func (s *referenceStore) AccountCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.accounts)
}

// CreatePage registers a fan page owned by an account.
func (s *referenceStore) CreatePage(ownerID, name string, at time.Time) (Page, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[ownerID]; !ok {
		return Page{}, fmt.Errorf("page owner %q: %w", ownerID, ErrNotFound)
	}
	p := &Page{
		ID:        s.minter.Next(ids.KindPage),
		Name:      name,
		OwnerID:   ownerID,
		CreatedAt: at,
	}
	s.pages[p.ID] = p
	return *p, nil
}

// Page returns the page with the given ID.
func (s *referenceStore) Page(id string) (Page, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[id]
	if !ok {
		return Page{}, fmt.Errorf("page %q: %w", id, ErrNotFound)
	}
	return *p, nil
}

// CreatePost publishes a status update on the author's timeline.
func (s *referenceStore) CreatePost(authorID, message string, meta WriteMeta) (Post, error) {
	if message == "" {
		return Post{}, ErrEmptyMessage
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	actor := authorID
	if _, ok := s.accounts[authorID]; !ok {
		p, ok := s.pages[authorID]
		if !ok {
			return Post{}, fmt.Errorf("author %q: %w", authorID, ErrNotFound)
		}
		actor = p.OwnerID
	}
	post := &Post{
		ID:        s.minter.Next(ids.KindPost),
		AuthorID:  authorID,
		Message:   message,
		CreatedAt: meta.At,
	}
	s.posts[post.ID] = post
	s.postsByAuthor[authorID] = append(s.postsByAuthor[authorID], post.ID)
	s.activity[actor] = append(s.activity[actor], Activity{
		ActorID: actor, Verb: VerbPost, ObjectID: post.ID, TargetID: authorID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	})
	return *post, nil
}

// Post returns the post with the given ID.
func (s *referenceStore) Post(id string) (Post, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.posts[id]
	if !ok {
		return Post{}, fmt.Errorf("post %q: %w", id, ErrNotFound)
	}
	return *p, nil
}

// PostsByAuthor returns the author's posts in creation order.
func (s *referenceStore) PostsByAuthor(authorID string) []Post {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idsList := s.postsByAuthor[authorID]
	out := make([]Post, 0, len(idsList))
	for _, id := range idsList {
		out = append(out, *s.posts[id])
	}
	return out
}

// AddLike records a like by accountID on the object (post or page).
func (s *referenceStore) AddLike(accountID, objectID string, meta WriteMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[accountID]; !ok {
		return fmt.Errorf("liker %q: %w", accountID, ErrNotFound)
	}
	targetID, err := s.ownerOfLocked(objectID)
	if err != nil {
		return err
	}
	likes := s.likesByObject[objectID]
	if likes == nil {
		likes = make(map[string]Like)
		s.likesByObject[objectID] = likes
	}
	if _, dup := likes[accountID]; dup {
		return fmt.Errorf("account %q on object %q: %w", accountID, objectID, ErrAlreadyLiked)
	}
	likes[accountID] = Like{
		AccountID: accountID, ObjectID: objectID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	}
	seq := s.likeSeq[objectID]
	s.likeSeq[objectID] = seq + 1
	s.likeOrder[objectID] = append(s.likeOrder[objectID], edgeRef{seq: seq, id: accountID})
	s.activity[accountID] = append(s.activity[accountID], Activity{
		ActorID: accountID, Verb: VerbLike, ObjectID: objectID, TargetID: targetID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	})
	return nil
}

// RemoveLike deletes a like.
func (s *referenceStore) RemoveLike(accountID, objectID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	likes := s.likesByObject[objectID]
	if _, ok := likes[accountID]; !ok {
		return fmt.Errorf("account %q on object %q: %w", accountID, objectID, ErrNotLiked)
	}
	delete(likes, accountID)
	order := s.likeOrder[objectID]
	for i, ref := range order {
		if ref.id == accountID {
			s.likeOrder[objectID] = append(order[:i:i], order[i+1:]...)
			break
		}
	}
	return nil
}

// Likes returns the likes on an object in arrival order.
func (s *referenceStore) Likes(objectID string) []Like {
	s.mu.RLock()
	defer s.mu.RUnlock()
	order := s.likeOrder[objectID]
	likes := s.likesByObject[objectID]
	out := make([]Like, 0, len(order))
	for _, ref := range order {
		if l, ok := likes[ref.id]; ok {
			out = append(out, l)
		}
	}
	return out
}

// LikeCount returns the number of likes on an object.
func (s *referenceStore) LikeCount(objectID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.likesByObject[objectID])
}

// HasLiked reports whether the account has liked the object.
func (s *referenceStore) HasLiked(accountID, objectID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.likesByObject[objectID][accountID]
	return ok
}

// AddComment records a comment on a post.
func (s *referenceStore) AddComment(accountID, postID, message string, meta WriteMeta) (Comment, error) {
	if message == "" {
		return Comment{}, ErrEmptyMessage
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[accountID]; !ok {
		return Comment{}, fmt.Errorf("commenter %q: %w", accountID, ErrNotFound)
	}
	post, ok := s.posts[postID]
	if !ok {
		return Comment{}, fmt.Errorf("post %q: %w", postID, ErrNotFound)
	}
	c := &Comment{
		ID:        s.minter.Next(ids.KindComment),
		PostID:    postID,
		AccountID: accountID,
		Message:   message,
		AppID:     meta.AppID,
		SourceIP:  meta.SourceIP,
		At:        meta.At,
	}
	s.comments[c.ID] = c
	seq := s.commentSeq[postID]
	s.commentSeq[postID] = seq + 1
	s.commentsByPost[postID] = append(s.commentsByPost[postID], edgeRef{seq: seq, id: c.ID})
	s.activity[accountID] = append(s.activity[accountID], Activity{
		ActorID: accountID, Verb: VerbComment, ObjectID: c.ID, TargetID: post.AuthorID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	})
	return *c, nil
}

// Comments returns the comments on a post in creation order.
func (s *referenceStore) Comments(postID string) []Comment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	refs := s.commentsByPost[postID]
	out := make([]Comment, 0, len(refs))
	for _, ref := range refs {
		out = append(out, *s.comments[ref.id])
	}
	return out
}

// ActivityLog returns the account's outgoing activity in insertion order.
func (s *referenceStore) ActivityLog(accountID string) []Activity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	log := s.activity[accountID]
	out := make([]Activity, len(log))
	copy(out, log)
	return out
}

// ActivitySince returns the account's outgoing activity at or after t.
func (s *referenceStore) ActivitySince(accountID string, t time.Time) []Activity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Activity
	for _, act := range s.activity[accountID] {
		if !act.At.Before(t) {
			out = append(out, act)
		}
	}
	return out
}

// ownerOfLocked resolves the owner (account or page) of a likeable object.
func (s *referenceStore) ownerOfLocked(objectID string) (string, error) {
	if p, ok := s.posts[objectID]; ok {
		return p.AuthorID, nil
	}
	if _, ok := s.pages[objectID]; ok {
		return objectID, nil
	}
	if _, ok := s.accounts[objectID]; ok {
		return objectID, nil
	}
	return "", fmt.Errorf("object %q: %w", objectID, ErrInvalidReference)
}

// OwnerOf resolves the owner of a likeable object.
func (s *referenceStore) OwnerOf(objectID string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ownerOfLocked(objectID)
}

// Stats returns aggregate counts.
func (s *referenceStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Accounts: len(s.accounts),
		Pages:    len(s.pages),
		Posts:    len(s.posts),
		Comments: len(s.comments),
	}
	for _, likes := range s.likesByObject {
		st.Likes += len(likes)
	}
	return st
}

// AccountIDs returns all account IDs in sorted order.
func (s *referenceStore) AccountIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.accounts))
	for id := range s.accounts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddFriendship records an undirected friend edge between two accounts.
func (s *referenceStore) AddFriendship(a, b string) error {
	if a == b {
		return fmt.Errorf("socialgraph: self-friendship for %q: %w", a, ErrInvalidReference)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[a]; !ok {
		return fmt.Errorf("account %q: %w", a, ErrNotFound)
	}
	if _, ok := s.accounts[b]; !ok {
		return fmt.Errorf("account %q: %w", b, ErrNotFound)
	}
	if s.friends == nil {
		s.friends = make(map[string]map[string]bool)
	}
	if s.friends[a][b] {
		return fmt.Errorf("socialgraph: %q and %q already friends: %w", a, b, ErrAlreadyLiked)
	}
	link := func(x, y string) {
		set := s.friends[x]
		if set == nil {
			set = make(map[string]bool)
			s.friends[x] = set
		}
		set[y] = true
	}
	link(a, b)
	link(b, a)
	return nil
}

// Friends returns the account's friend IDs in sorted order.
func (s *referenceStore) Friends(accountID string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := s.friends[accountID]
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// FriendCount returns the number of friends of the account.
func (s *referenceStore) FriendCount(accountID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.friends[accountID])
}

// AreFriends reports whether an edge exists.
func (s *referenceStore) AreFriends(a, b string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.friends[a][b]
}

// CreateAccountBatch registers the seeds in order, all created at at.
func (s *referenceStore) CreateAccountBatch(seeds []AccountSeed, at time.Time) []Account {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Account, len(seeds))
	for i, seed := range seeds {
		a := &Account{
			ID:        s.minter.Next(ids.KindAccount),
			Name:      seed.Name,
			Country:   seed.Country,
			CreatedAt: at,
		}
		s.accounts[a.ID] = a
		out[i] = *a
	}
	return out
}

// SetRetentionWindow configures the analytics window (0 = infinite).
func (s *referenceStore) SetRetentionWindow(w time.Duration) {
	if w < 0 {
		w = 0
	}
	s.mu.Lock()
	s.retention = w
	s.mu.Unlock()
}

// RetentionWindow returns the configured analytics window.
func (s *referenceStore) RetentionWindow() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retention
}

// RetentionSweep evicts edge history older than now minus the window.
func (s *referenceStore) RetentionSweep(now time.Time) SweepResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retention <= 0 {
		return SweepResult{}
	}
	cutoff := now.Add(-s.retention)
	var res SweepResult
	for obj, refs := range s.likeOrder {
		set := s.likesByObject[obj]
		kept := refs[:0]
		for _, ref := range refs {
			if l, ok := set[ref.id]; ok && l.At.Before(cutoff) {
				delete(set, ref.id)
				res.Likes++
				continue
			}
			kept = append(kept, ref)
		}
		if len(kept) == 0 {
			delete(s.likeOrder, obj)
			delete(s.likesByObject, obj)
		} else {
			s.likeOrder[obj] = kept
		}
	}
	for post, refs := range s.commentsByPost {
		kept := refs[:0]
		for _, ref := range refs {
			if c, ok := s.comments[ref.id]; ok && c.At.Before(cutoff) {
				delete(s.comments, ref.id)
				res.Comments++
				continue
			}
			kept = append(kept, ref)
		}
		if len(kept) == 0 {
			delete(s.commentsByPost, post)
		} else {
			s.commentsByPost[post] = kept
		}
	}
	for acct, log := range s.activity {
		kept := log[:0]
		for _, act := range log {
			if act.At.Before(cutoff) {
				res.Activities++
				continue
			}
			kept = append(kept, act)
		}
		if len(kept) == 0 {
			delete(s.activity, acct)
		} else {
			s.activity[acct] = kept
		}
	}
	return res
}

// RetainedEdges returns the currently retained edge-history counts.
func (s *referenceStore) RetainedEdges() EdgeStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st EdgeStats
	for _, likes := range s.likesByObject {
		st.Likes += int64(len(likes))
	}
	st.Comments = int64(len(s.comments))
	for _, log := range s.activity {
		st.Activities += int64(len(log))
	}
	return st
}

// LikesPage returns the sequence-cursored likes page; see Store.LikesPage.
func (s *referenceStore) LikesPage(objectID string, after, limit int) (page []Like, next int, more bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	refs := s.likeOrder[objectID]
	set := s.likesByObject[objectID]
	start := sort.Search(len(refs), func(i int) bool { return refs[i].seq >= after })
	end := len(refs)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	for _, ref := range refs[start:end] {
		if l, ok := set[ref.id]; ok {
			page = append(page, l)
		}
	}
	if end < len(refs) {
		return page, refs[end].seq, true
	}
	return page, 0, false
}

// CommentsPage returns the sequence-cursored comments page; see
// Store.CommentsPage.
func (s *referenceStore) CommentsPage(postID string, after, limit int) (page []Comment, next int, more bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	refs := s.commentsByPost[postID]
	start := sort.Search(len(refs), func(i int) bool { return refs[i].seq >= after })
	end := len(refs)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	for _, ref := range refs[start:end] {
		if c, ok := s.comments[ref.id]; ok {
			page = append(page, *c)
		}
	}
	if end < len(refs) {
		return page, refs[end].seq, true
	}
	return page, 0, false
}
