// Package socialgraph implements the social network substrate the rest of
// the reproduction runs on: accounts, posts, likes, comments, and pages,
// held in a concurrency-safe in-memory store with a full activity log.
//
// The store models the Facebook semantics the paper's measurements depend
// on:
//
//   - a like is idempotent per (account, object) — repeated likes by the
//     same account do not inflate counts, which is why collusion networks
//     must sample *distinct* member tokens per request and why honeypot
//     milking converges on the true membership (Figure 4);
//   - every write is attributed to the application and source IP that
//     performed it, which is what the Section 6 countermeasures key on;
//   - each account has an activity log of its outgoing actions, which the
//     honeypots crawl to observe how collusion networks spend their tokens
//     (Table 4 "outgoing activities", Figure 7).
//
// The store is lock-striped: state is partitioned across power-of-two
// shards keyed by the FNV-1a hash of each object's primary ID, so
// simulated Graph API traffic from many goroutines (the HTTP server, the
// scale-mode load generator's apply pool) scales with cores instead of
// serializing on one mutex. See shard.go for the routing and lock-ordering
// rules, and reference_test.go for the single-lock oracle the differential
// tests check this implementation against.
package socialgraph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ids"
)

// Errors returned by store operations.
var (
	ErrNotFound         = errors.New("socialgraph: object not found")
	ErrAlreadyLiked     = errors.New("socialgraph: already liked")
	ErrNotLiked         = errors.New("socialgraph: not liked")
	ErrEmptyMessage     = errors.New("socialgraph: empty message")
	ErrInvalidReference = errors.New("socialgraph: invalid object reference")
)

// StoreError is the typed error the write paths return: one of the
// sentinels above plus the role of the ID the check concerned. It
// replaces the per-rejection fmt.Errorf("%q: %w") constructions, which
// allocated on every denial — a collusion burst against a mostly-liked
// object is rejection-heavy, and so is every post-intervention scale
// run. The common denial kinds are returned as the preallocated values
// below, so rejecting an op allocates nothing; errors.Is dispatch keeps
// working through Unwrap.
type StoreError struct {
	Role string // which ID failed the check: "liker", "commenter", "object", ...
	ID   string // the offending ID; empty on the preallocated hot-path values
	Err  error  // the sentinel
}

// Error implements error. The preallocated values render lazily and
// without the ID ("liker: socialgraph: object not found"); errors built
// on cold paths keep the quoted-ID form.
func (e *StoreError) Error() string {
	if e.ID == "" {
		return e.Role + ": " + e.Err.Error()
	}
	return fmt.Sprintf("%s %q: %v", e.Role, e.ID, e.Err)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *StoreError) Unwrap() error { return e.Err }

// Preallocated denial values for the hot write paths. One value per
// (role, sentinel) pair that a like, unlike, or comment can reject with;
// returning them is allocation-free (pinned by TestAllocGateDenialPaths).
var (
	errLikerNotFound     = &StoreError{Role: "liker", Err: ErrNotFound}
	errAlreadyLiked      = &StoreError{Role: "like", Err: ErrAlreadyLiked}
	errNotLiked          = &StoreError{Role: "like", Err: ErrNotLiked}
	errObjectInvalid     = &StoreError{Role: "object", Err: ErrInvalidReference}
	errCommenterNotFound = &StoreError{Role: "commenter", Err: ErrNotFound}
	errPostNotFound      = &StoreError{Role: "post", Err: ErrNotFound}
)

// Account is a user account.
type Account struct {
	ID        string
	Name      string
	Country   string
	CreatedAt time.Time
}

// Page is a fan page that can own posts and receive likes.
type Page struct {
	ID        string
	Name      string
	OwnerID   string
	CreatedAt time.Time
}

// Like records one like on an object.
type Like struct {
	AccountID string
	ObjectID  string
	AppID     string // application whose token performed the like ("" = first-party)
	SourceIP  string // IP the Graph API request originated from
	At        time.Time
}

// Comment is a comment on a post.
type Comment struct {
	ID        string
	PostID    string
	AccountID string
	Message   string
	AppID     string
	SourceIP  string
	At        time.Time
}

// Post is a status update on an account's or page's timeline.
type Post struct {
	ID        string
	AuthorID  string // account or page ID
	Message   string
	CreatedAt time.Time
}

// Verb enumerates activity-log actions.
type Verb string

// Activity verbs.
const (
	VerbPost    Verb = "post"
	VerbLike    Verb = "like"
	VerbComment Verb = "comment"
)

// Activity is one entry of an account's outgoing activity log.
type Activity struct {
	ActorID  string
	Verb     Verb
	ObjectID string // post/comment ID acted on or created
	TargetID string // owner (account or page) of the object acted on
	AppID    string
	SourceIP string
	At       time.Time
}

// Store is the in-memory social graph, lock-striped across shards. The
// zero value is not usable; use New. Store is safe for concurrent use,
// and when driven sequentially is observationally identical to the
// single-lock reference implementation (enforced by the differential
// tests).
type Store struct {
	minter     *ids.Minter
	shards     []*shard
	mask       uint32
	contention Contention
	attrs      *attrTable

	// retentionNanos is the analytics window in nanoseconds; 0 (the
	// default) means infinite retention and makes sweeps no-ops.
	retentionNanos atomic.Int64
	// The eviction totals, bumped once per sweep under no lock so that
	// a scrape reads them without touching a stripe.
	sweeps, evictedLikes, evictedComments, evictedActivities atomic.Int64
}

// New returns an empty Store striped across n shards with its
// account-keyed maps presized for accountHint accounts. n is rounded up
// to a power of two and clamped to [1, 1024]; n <= 0 selects the default
// GOMAXPROCS-scaled count. The scale workload passes the target
// population as accountHint so building a multi-million account graph
// does not pay for incremental map rehashing; 0 presizes nothing.
func New(n, accountHint int) *Store {
	if n <= 0 {
		n = defaultShardCount()
	}
	n = nextPowerOfTwo(n)
	perShard := 0
	if accountHint > 0 {
		perShard = accountHint / n
	}
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = newShardSized(perShard)
	}
	return &Store{
		minter:     ids.NewMinter(),
		shards:     shards,
		mask:       uint32(n - 1),
		contention: make(Contention, n),
		attrs:      &attrTable{ids: make(map[string]uint32), strs: []string{""}},
	}
}

// Contention returns the store's per-shard lock-pressure counters. Every
// lock acquisition is recorded along with whether it had to wait, so the
// experiment harness can report whether the stripe count matches the
// offered load.
func (s *Store) Contention() Contention { return s.contention }

// CreateAccount registers a new account and returns it.
func (s *Store) CreateAccount(name, country string, at time.Time) Account {
	a := &accountRec{Account: Account{
		ID:        s.minter.Next(ids.KindAccount),
		Name:      name,
		Country:   country,
		CreatedAt: at,
	}}
	sh := s.lock(a.ID)
	sh.accounts[a.ID] = a
	sh.mu.Unlock()
	return a.Account
}

// Account returns the account with the given ID.
func (s *Store) Account(id string) (Account, error) {
	sh := s.rlock(id)
	defer sh.mu.RUnlock()
	a, ok := sh.accounts[id]
	if !ok {
		return Account{}, fmt.Errorf("account %q: %w", id, ErrNotFound)
	}
	return a.Account, nil
}

// AccountCount returns the number of registered accounts.
func (s *Store) AccountCount() int {
	n := 0
	for i := range s.shards {
		sh := s.rlockIdx(i)
		n += len(sh.accounts)
		sh.mu.RUnlock()
	}
	return n
}

// CreatePage registers a fan page owned by an account.
func (s *Store) CreatePage(ownerID, name string, at time.Time) (Page, error) {
	// Existence is a stable property (accounts are never deleted), so the
	// owner check does not need to be atomic with the page insert.
	ownerShard := s.rlock(ownerID)
	_, ok := ownerShard.accounts[ownerID]
	ownerShard.mu.RUnlock()
	if !ok {
		return Page{}, fmt.Errorf("page owner %q: %w", ownerID, ErrNotFound)
	}
	p := &Page{
		ID:        s.minter.Next(ids.KindPage),
		Name:      name,
		OwnerID:   ownerID,
		CreatedAt: at,
	}
	sh := s.lock(p.ID)
	sh.pages[p.ID] = p
	sh.mu.Unlock()
	return *p, nil
}

// WriteMeta attributes a write to the app and source IP that performed it.
type WriteMeta struct {
	AppID    string
	SourceIP string
	At       time.Time
}

// CreatePost publishes a status update on the author's timeline. The author
// may be an account or a page (pages post via their owner).
//
// The post ID's shard is unknown until the ID is minted, and minting must
// happen only after validation so the ID stream matches the reference
// store; the write is therefore phased — validate, mint, insert the post
// record, then log it in the actor's activity — with the post record
// inserted first so the ID an activity entry names always resolves.
func (s *Store) CreatePost(authorID, message string, meta WriteMeta) (Post, error) {
	if message == "" {
		return Post{}, ErrEmptyMessage
	}
	actor := authorID
	authorShard := s.rlock(authorID)
	if _, ok := authorShard.accounts[authorID]; !ok {
		p, ok := authorShard.pages[authorID]
		if !ok {
			authorShard.mu.RUnlock()
			return Post{}, fmt.Errorf("author %q: %w", authorID, ErrNotFound)
		}
		actor = p.OwnerID
	}
	authorShard.mu.RUnlock()

	post := &Post{
		ID:        s.minter.Next(ids.KindPost),
		AuthorID:  authorID,
		Message:   message,
		CreatedAt: meta.At,
	}
	sh := s.lock(post.ID)
	sh.posts[post.ID] = post
	sh.mu.Unlock()

	entry := s.activityEntry(verbPost, post.ID, authorID, meta)
	sh = s.lock(actor)
	sh.logOf(sh.accounts[actor]).entries.append(&sh.acts, entry)
	sh.mu.Unlock()
	return *post, nil
}

// AddLike records a like by accountID on the object (post or page).
// Likes are idempotent: liking an object twice returns ErrAlreadyLiked.
// It applies a batch run of one through applyLikeRun, the op and its
// error on the stack, so single and batched likes share one apply path.
func (s *Store) AddLike(accountID, objectID string, meta WriteMeta) error {
	run := [1]LikeOp{{AccountID: accountID, ObjectID: objectID, Meta: meta}}
	var errs [1]error
	s.applyLikeRun(run[:], errs[:], s.shardIndex(objectID))
	return errs[0]
}

// likeTarget is the liked object's state a like reads and advances: its
// owner, its history and its next arrival sequence. A batch resolves it
// once per run of likes on one object, so a burst looks its object up
// once instead of once per like.
type likeTarget struct {
	id         string
	num, owner uint64 // the object's and its owner's minted numbers
	err        error  // errObjectInvalid when the object is not likeable
	h          *likeHistory
	seq, seq0  int // next arrival sequence, and its value at resolve
}

// resolve points t at objectID, which lives on sh (write-locked by the
// caller). A missing history stays nil until the first like creates it,
// so a run whose likes are all rejected leaves no empty history behind.
//
//collusionvet:locked
func (t *likeTarget) resolve(sh *shard, objectID string) {
	owner, err := ownerOfShard(sh, objectID)
	seq := sh.likeSeq[objectID]
	*t = likeTarget{id: objectID, err: err, h: sh.likes[objectID], seq: seq, seq0: seq}
	if err == nil {
		t.num, _ = idNum(objectID)
		t.owner, _ = idNum(owner)
	}
}

// flush stores the sequences the likes on t consumed.
//
//collusionvet:locked
func (t *likeTarget) flush(sh *shard) {
	if t.seq != t.seq0 {
		sh.likeSeq[t.id] = t.seq
	}
}

// likeLocked validates and applies one like on the resolved object t.
// The caller must hold the write locks of both shards; applyLikeRun,
// which every like goes through, is its one caller.
//
// The like itself lives only in its order entry; the history's set holds
// the liker's serial for the idempotency check. The success path is
// allocation-free at steady state: the like history and its chunks come
// from the shard free lists, and the activity entry lands in a pooled
// chunk of the liker's activity log (pinned by
// TestAllocGateAddLikeBatchSteadyState). Denials return the preallocated
// StoreError values.
//
//collusionvet:locked
func (s *Store) likeLocked(acctShard, objShard *shard, t *likeTarget, accountID string, meta WriteMeta) error {
	a, ok := acctShard.accounts[accountID]
	if !ok {
		return errLikerNotFound
	}
	if t.err != nil {
		return t.err
	}
	if t.h == nil {
		t.h = objShard.likeHistoryFor(t.id)
	}
	h := t.h
	log := acctShard.logOf(a)
	if !h.set.add(log.serial) {
		return errAlreadyLiked
	}
	at := wallOf(meta.At)
	if h.order.total == 0 {
		h.oldest, h.newest = at, at
	} else if at.before(h.oldest) {
		h.oldest = at
	} else if h.newest.before(at) {
		h.newest = at
	}
	app, ip := s.attrs.intern(meta.AppID), s.attrs.intern(meta.SourceIP)
	h.order.append(&objShard.edges, likeRef{
		seq: t.seq, acct: a, sec: at.sec, nsec: at.nsec, app: app, ip: ip,
	})
	t.seq++
	log.entries.append(&acctShard.acts, activityRef{
		object: t.num, target: t.owner, sec: at.sec, nsec: at.nsec, app: app, ip: ip, verb: verbLike,
	})
	return nil
}

// RemoveLike deletes a like, as Facebook did when purging fake likes.
// Removal shifts entries only within the edge's own chunk — the chunked
// list never copies the tail the way the old slice splice did — and an
// object whose last like is removed retires its whole history to the
// shard free list.
func (s *Store) RemoveLike(accountID, objectID string) error {
	num, _ := idNum(accountID) // a malformed ID reads as 0, which has no serial
	serial, ok := accountSerial(num)
	if !ok {
		return errNotLiked
	}
	sh := s.lock(objectID)
	defer sh.mu.Unlock()
	h, ok := sh.likes[objectID]
	if !ok || !h.set.remove(serial) {
		return errNotLiked
	}
	removeLike(&h.order, &sh.edges, serial)
	if h.set.n == 0 {
		sh.retireLikeHistory(objectID, h)
	}
	return nil
}

// Likes returns the likes on an object in arrival order, sized and
// filled in one pass over the chunked history.
func (s *Store) Likes(objectID string) []Like {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	h, ok := sh.likes[objectID]
	if !ok {
		return nil
	}
	attrs := s.attrs.snapshot()
	out := make([]Like, 0, h.order.total)
	for c := h.order.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			out = append(out, c.buf[i].like(objectID, attrs))
		}
	}
	return out
}

// Likers returns the account IDs that like an object, in arrival order:
// Likes without the attribution, for callers that only need who liked.
func (s *Store) Likers(objectID string) []string {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	h, ok := sh.likes[objectID]
	if !ok {
		return nil
	}
	out := make([]string, 0, h.order.total)
	for c := h.order.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			out = append(out, c.buf[i].acct.ID)
		}
	}
	return out
}

// LikeCount returns the number of likes on an object.
func (s *Store) LikeCount(objectID string) int {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	if h, ok := sh.likes[objectID]; ok {
		return h.set.n
	}
	return 0
}

// AddComment records a comment on a post. Comment records are co-located
// with their post's shard, so crawling a post's comments touches one
// stripe.
func (s *Store) AddComment(accountID, postID, message string, meta WriteMeta) (Comment, error) {
	if message == "" {
		return Comment{}, ErrEmptyMessage
	}
	return s.addCommentPair(accountID, postID, message, meta)
}

// addCommentPair is AddComment's lock scope: commenter and post stripes
// taken in ascending index order, held inline (no unlock closure, no
// heap escape) like applyLikeRun's.
//
//collusionvet:lockorder
func (s *Store) addCommentPair(accountID, postID, message string, meta WriteMeta) (Comment, error) {
	ai := s.shardIndex(accountID)
	pi := s.shardIndex(postID)
	lo, hi := ai, pi
	if lo > hi {
		lo, hi = hi, lo
	}
	s.lockIdx(lo)
	if hi != lo {
		s.lockIdx(hi)
	}
	c, err := s.commentLocked(s.shards[ai], s.shards[pi], accountID, postID, message, meta)
	if hi != lo {
		s.shards[hi].mu.Unlock()
	}
	s.shards[lo].mu.Unlock()
	return c, err
}

// commentLocked validates and applies one comment under both stripe
// locks. The comment record is drawn from the post shard's pool (sweeps
// refill it); the ID is minted only after validation so the ID stream
// matches the reference store.
//
//collusionvet:locked
func (s *Store) commentLocked(acctShard, postShard *shard, accountID, postID, message string, meta WriteMeta) (Comment, error) {
	a, ok := acctShard.accounts[accountID]
	if !ok {
		return Comment{}, errCommenterNotFound
	}
	post, ok := postShard.posts[postID]
	if !ok {
		return Comment{}, errPostNotFound
	}
	c := postShard.newComment()
	c.ID = s.minter.Next(ids.KindComment)
	c.PostID = postID
	c.AccountID = a.ID
	c.Message = message
	c.AppID = meta.AppID
	c.SourceIP = meta.SourceIP
	c.At = meta.At
	postShard.comments[c.ID] = c
	seq := postShard.commentSeq[postID]
	postShard.commentSeq[postID] = seq + 1
	postShard.commentOrderFor(postID).append(&postShard.commentEdges, edgeRef{seq: seq, id: c.ID})
	acctShard.logOf(a).entries.append(&acctShard.acts, s.activityEntry(verbComment, c.ID, post.AuthorID, meta))
	return *c, nil
}

// activityEntry builds the activity entry of a post or a comment. A like
// builds its own from the object it resolved (see likeLocked).
func (s *Store) activityEntry(verb uint8, objectID, targetID string, meta WriteMeta) activityRef {
	object, _ := idNum(objectID)
	target, _ := idNum(targetID)
	at := wallOf(meta.At)
	return activityRef{
		object: object, target: target, sec: at.sec, nsec: at.nsec,
		app: s.attrs.intern(meta.AppID), ip: s.attrs.intern(meta.SourceIP), verb: verb,
	}
}

// Comments returns the comments on a post in creation order.
func (s *Store) Comments(postID string) []Comment {
	sh := s.rlock(postID)
	defer sh.mu.RUnlock()
	l, ok := sh.commentOrder[postID]
	if !ok {
		return nil
	}
	out := make([]Comment, 0, l.total)
	for c := l.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if rec, ok := sh.comments[c.buf[i].id]; ok {
				out = append(out, *rec)
			}
		}
	}
	return out
}

// ActivityLog returns the account's outgoing activity in chronological
// (insertion) order. The returned ObjectIDs and TargetIDs share one
// string (see activitySince).
func (s *Store) ActivityLog(accountID string) []Activity {
	return s.activitySince(accountID, wallTime{sec: math.MinInt64})
}

// activitySince renders the account's activity entries at or after
// since, in insertion order, in two allocations whatever their number:
// the slice, and one string holding every entry's object and target
// number in decimal, which each Activity's ObjectID and TargetID slice.
// A first pass counts and sizes the entries, a second formats the
// numbers, and a third fills the slice.
func (s *Store) activitySince(accountID string, since wallTime) []Activity {
	sh := s.rlock(accountID)
	defer sh.mu.RUnlock()
	a, ok := sh.accounts[accountID]
	if !ok || a.log == nil {
		return nil
	}
	log := &a.log.entries
	n, size := 0, 0
	eachSince(log, since, func(e *activityRef) {
		n++
		size += decimalLen(e.object) + decimalLen(e.target)
	})
	if n == 0 {
		return nil
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	eachSince(log, since, func(e *activityRef) {
		b.Write(strconv.AppendUint(digits[:0], e.object, 10))
		b.Write(strconv.AppendUint(digits[:0], e.target, 10))
	})
	ids := b.String()
	attrs := s.attrs.snapshot()
	out := make([]Activity, 0, n)
	eachSince(log, since, func(e *activityRef) {
		object := ids[:decimalLen(e.object)]
		target := ids[len(object) : len(object)+decimalLen(e.target)]
		ids = ids[len(object)+len(target):]
		out = append(out, e.activity(a.ID, object, target, attrs))
	})
	return out
}

// eachSince calls f on every entry of l at or after since, in order.
func eachSince(l *activityList, since wallTime, f func(*activityRef)) {
	for c := l.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if !c.buf[i].at().before(since) {
				f(&c.buf[i])
			}
		}
	}
}

// decimalLen returns the number of decimal digits of x.
func decimalLen(x uint64) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// ownerOfShard resolves the owner (account or page) of a likeable object.
// All candidate records live in the object's own shard, which the caller
// must hold.
//
//collusionvet:locked
func ownerOfShard(sh *shard, objectID string) (string, error) {
	if p, ok := sh.posts[objectID]; ok {
		return p.AuthorID, nil
	}
	if _, ok := sh.pages[objectID]; ok {
		return objectID, nil
	}
	if _, ok := sh.accounts[objectID]; ok {
		// Liking a profile is modelled as liking the account object itself
		// (the paper observes honeypots liking owners' profile pictures).
		return objectID, nil
	}
	return "", errObjectInvalid
}

// AccountIDs returns all account IDs in sorted order; used by tests and
// deterministic sampling.
func (s *Store) AccountIDs() []string {
	var out []string
	for i := range s.shards {
		sh := s.rlockIdx(i)
		for id := range sh.accounts {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
