package socialgraph

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Shard layout. Every object class is routed to a stripe by the FNV-1a
// hash of its primary key:
//
//   - accounts, activity logs, per-author post lists, and friend
//     adjacency sets live in the shard of the account ID;
//   - pages live in the shard of the page ID;
//   - posts live in the shard of the post ID;
//   - likes (liker set + arrival-ordered like records) live in the
//     shard of the liked object;
//   - comments (records + per-post order) live in the shard of the
//     commented post, so a crawl of a post's comments is one stripe.
//
// Writes that span stripes (a like touches the liker's account shard and
// the object's shard; a friendship touches both endpoints) take every
// involved stripe write-lock in ascending shard-index order, which makes
// the locking deadlock-free by construction. Reads that span all stripes
// (Stats, AccountIDs) compose per-shard snapshots and are not a global
// atomic view — identical to the reference store when driven
// sequentially, and monotonically consistent under concurrency because
// no object is ever deleted.

// Order-list entries carry their absolute arrival sequence on their
// object. Sequence numbers are assigned from an ever-increasing
// per-object counter and never reused, so a pagination cursor anchored to
// a sequence stays a stable position even after a retention sweep evicts
// entries around it or RemoveLike deletes a like outright.

// edgeRef is one entry of a post's comment order: the comment ID and its
// arrival sequence.
type edgeRef struct {
	seq int
	id  string
}

// The two records of a like, its likeRef in the object's history and its
// activityRef in the liker's log, hold no strings: a store ID is kept as
// the number ids.Minter formatted (kind·10¹⁵+n), an app ID or source IP
// as a handle from the store's attrTable, and a time as Unix seconds and
// nanoseconds (a time.Time carries a *Location). A likeRef's one pointer
// is the liker's account record, and an activityRef has none, so the
// collector never scans activity chunks. Entries become strings again
// only when a read API renders them; times read back in UTC.

// likeRef is one entry of an object's like order, and the like's only
// record: the arrival sequence, the liker's account record, and the
// attribution the like carries. The object ID is the history's key, so
// it is not repeated here.
type likeRef struct {
	seq     int
	acct    *accountRec
	sec     int64
	nsec    int32
	app, ip uint32
}

// activityRef is one entry of an account's activity log. The actor is
// the account whose record holds the log, so it is not repeated here.
type activityRef struct {
	object, target uint64
	sec            int64
	nsec           int32
	app, ip        uint32
	verb           uint8 // index into verbs
}

// verbs maps an activityRef's verb index to its Verb.
var verbs = [...]Verb{verbPost: VerbPost, verbLike: VerbLike, verbComment: VerbComment}

const (
	verbPost uint8 = iota
	verbLike
	verbComment
)

// accountRec is the store's record of one account: the Account it hands
// out and, once the account has acted, its activity log.
type accountRec struct {
	Account
	log *activityLog
}

// activityLog is one account's outgoing activity and the account's
// serial, its key in every liker set it is in (see accountSerial). It is
// created the first time the account acts and kept for the account's
// lifetime, and listed in its stripe's logs, so that a never-active
// account (most of a scale-mode world) costs no more than its Account
// and sweeps visit only accounts that have acted.
type activityLog struct {
	serial  uint32
	entries activityList
}

// sequence lets searchEdges seek in either order class.
func (r edgeRef) sequence() int { return r.seq }
func (r likeRef) sequence() int { return r.seq }

// like renders the entry as the Like it records on objectID; attrs is a
// snapshot of the store's attribution strings.
func (r *likeRef) like(objectID string, attrs []string) Like {
	return Like{
		AccountID: r.acct.ID, ObjectID: objectID,
		AppID: attrs[r.app], SourceIP: attrs[r.ip], At: utc(r.sec, r.nsec),
	}
}

// activity renders the entry as the Activity it records for actorID,
// given its object and target numbers in decimal.
func (r *activityRef) activity(actorID, objectID, targetID string, attrs []string) Activity {
	return Activity{
		ActorID: actorID, Verb: verbs[r.verb], ObjectID: objectID, TargetID: targetID,
		AppID: attrs[r.app], SourceIP: attrs[r.ip], At: utc(r.sec, r.nsec),
	}
}

// wallTime is an instant as Unix seconds and nanoseconds. Retention and
// the like-history bounds compare wall times.
type wallTime struct {
	sec  int64
	nsec int32
}

func wallOf(t time.Time) wallTime { return wallTime{t.Unix(), int32(t.Nanosecond())} }

func (w wallTime) before(u wallTime) bool {
	return w.sec < u.sec || w.sec == u.sec && w.nsec < u.nsec
}

func (r *likeRef) at() wallTime     { return wallTime{r.sec, r.nsec} }
func (r *activityRef) at() wallTime { return wallTime{r.sec, r.nsec} }

// utc rebuilds an entry's time.
func utc(sec int64, nsec int32) time.Time { return time.Unix(sec, int64(nsec)).UTC() }

// idNum returns the number a minted ID spells and whether id is that
// number's canonical decimal form (no sign, no leading zero), so that
// numbers and IDs correspond one to one.
func idNum(id string) (uint64, bool) {
	if id == "" || len(id) > 19 || id[0] == '0' {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(id); i++ {
		d := id[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}

// attrTable interns the attribution strings writes carry, app IDs and
// source IPs, as handles shared by every stripe. Handle 0 is "". The
// table only grows: a handle, once issued, names its string for the
// store's lifetime, so a reader may index a snapshot of strs without
// holding mu. No other lock is taken while mu is held, so interning
// under shard locks cannot deadlock.
type attrTable struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// intern returns s's handle, issuing one on first sight.
func (t *attrTable) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	t.mu.RLock()
	h, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.ids[s]; ok {
		return h
	}
	h = uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = h
	return h
}

// snapshot returns the strings by handle. Every handle an entry holds
// was issued before the entry was written, so a snapshot taken under
// the entry's shard lock covers it.
func (t *attrTable) snapshot() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.strs
}

// likeHistory is one object's like state: the idempotency set of liker
// serials and the chunked arrival order that holds the likes themselves,
// kept together so the hot write path pays one map probe instead of two.
// oldest and newest bound the wall time of the retained likes: no
// retained like is older than oldest or newer than newest. A like widens
// them; a RemoveLike leaves them alone, so they may be loose but are
// never wrong, and a retention sweep can skip or retire a whole history
// on them (see evictBefore). Evicting an object's last like retires the
// whole history to the shard's free list with its (cleared) set table,
// so re-liking a swept object allocates neither.
type likeHistory struct {
	set            likerSet
	order          likeList
	oldest, newest wallTime
}

// shard is one lock stripe of the store. Observable semantics match the
// reference store's flat maps exactly; each shard holds only the keys
// that hash to it. Edge history (like order, comment order, and the
// accounts' activity logs) lives in chunked lists drawn from the
// shard-local pools below — see chunk.go for the memory model.
type shard struct {
	mu           sync.RWMutex
	accounts     map[string]*accountRec
	pages        map[string]*Page
	posts        map[string]*Post
	comments     map[string]*Comment
	likes        map[string]*likeHistory
	commentOrder map[string]*edgeList
	friends      map[string]map[string]bool
	// logs lists the activity log of every account on this stripe that
	// has acted (see activityLog).
	logs []*activityLog
	// likeSeq and commentSeq hold each object's next arrival sequence.
	// They outlive the edges themselves (an object whose whole history
	// ages out keeps its counter) so sequences stay monotone forever.
	likeSeq    map[string]int
	commentSeq map[string]int

	// Shard-local free lists, touched only under mu. edges feeds the
	// like-order lists and commentEdges the comment-order lists; retired
	// container headers are pooled alongside so a fully evicted object,
	// post, or account costs nothing to repopulate.
	edges        likePool
	commentEdges edgePool
	acts         activityPool
	freeHist     []*likeHistory
	freeEdgeList []*edgeList
	freeComments []*Comment
}

// newShardSized presizes the maps that grow with the account population;
// hint is the expected number of accounts routed to this shard (0 = no
// presizing). Bulk construction of multi-million-account graphs avoids
// repeated incremental map growth this way.
func newShardSized(hint int) *shard {
	return &shard{
		accounts:     make(map[string]*accountRec, hint),
		pages:        make(map[string]*Page),
		posts:        make(map[string]*Post),
		comments:     make(map[string]*Comment),
		likes:        make(map[string]*likeHistory),
		commentOrder: make(map[string]*edgeList),
		friends:      make(map[string]map[string]bool),
		likeSeq:      make(map[string]int),
		commentSeq:   make(map[string]int),
		edges:        likePool{cap: edgeChunkCap},
		commentEdges: edgePool{cap: edgeChunkCap},
		acts:         activityPool{cap: activityChunkCap},
	}
}

// Pooled-container helpers. Each returns (or retires) a chunked-history
// container through the shard's free lists; all of them touch shard
// state and require the shard's write lock — the same caller-holds-lock
// contract likeLocked documents.

// logOf returns a's activity log, creating it on the account's first
// action. Every account ID is minted, so its serial exists below 2³²
// accounts; past that a liker set could not hold it, and logOf panics.
//
//collusionvet:locked
func (sh *shard) logOf(a *accountRec) *activityLog {
	if a.log == nil {
		num, _ := idNum(a.ID)
		serial, ok := accountSerial(num)
		if !ok {
			panic("socialgraph: account " + a.ID + " has no 32-bit serial")
		}
		a.log = &activityLog{serial: serial}
		sh.logs = append(sh.logs, a.log)
	}
	return a.log
}

// likeHistoryFor returns objectID's like history, reusing a retired one
// (its set arrives cleared) before allocating.
//
//collusionvet:locked
func (sh *shard) likeHistoryFor(objectID string) *likeHistory {
	if h, ok := sh.likes[objectID]; ok {
		return h
	}
	var h *likeHistory
	if n := len(sh.freeHist); n > 0 {
		h = sh.freeHist[n-1]
		sh.freeHist[n-1] = nil
		sh.freeHist = sh.freeHist[:n-1]
	} else {
		h = new(likeHistory)
	}
	sh.likes[objectID] = h
	return h
}

// retireLikeHistory returns an emptied history (no retained likes) to
// the free list, clearing its set so pooled histories never pin evicted
// likes.
//
//collusionvet:locked
func (sh *shard) retireLikeHistory(objectID string, h *likeHistory) {
	h.set.clear()
	h.order.release(&sh.edges)
	sh.freeHist = append(sh.freeHist, h)
	delete(sh.likes, objectID)
}

// commentOrderFor returns postID's comment-order list, pooling headers
// like likeHistoryFor.
//
//collusionvet:locked
func (sh *shard) commentOrderFor(postID string) *edgeList {
	if l, ok := sh.commentOrder[postID]; ok {
		return l
	}
	var l *edgeList
	if n := len(sh.freeEdgeList); n > 0 {
		l = sh.freeEdgeList[n-1]
		sh.freeEdgeList[n-1] = nil
		sh.freeEdgeList = sh.freeEdgeList[:n-1]
	} else {
		l = new(edgeList)
	}
	sh.commentOrder[postID] = l
	return l
}

// newComment returns a zeroed Comment record, reusing one retired by a
// retention sweep when available.
//
//collusionvet:locked
func (sh *shard) newComment() *Comment {
	if n := len(sh.freeComments); n > 0 {
		c := sh.freeComments[n-1]
		sh.freeComments[n-1] = nil
		sh.freeComments = sh.freeComments[:n-1]
		return c
	}
	return new(Comment)
}

// retireComment clears an evicted comment record and pools it. Records
// are only ever handed out of the store by value, so no caller can hold
// a pointer into the pool.
//
//collusionvet:locked
func (sh *shard) retireComment(c *Comment) {
	*c = Comment{}
	sh.freeComments = append(sh.freeComments, c)
}

// FNV-1a, inlined to keep routing allocation-free on the hot path.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv32a(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// maxShards caps the stripe count. The default scales with GOMAXPROCS
// (4 stripes per P keeps the contended fraction low even when every P
// hammers the same few objects) and is clamped to a power of two so
// routing is a mask.
const maxShards = 1024

// defaultShardCount returns the GOMAXPROCS-scaled power-of-two stripe
// count used by New.
func defaultShardCount() int {
	n := nextPowerOfTwo(4 * runtime.GOMAXPROCS(0))
	if n < 8 {
		n = 8
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

func nextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	return p
}

// shardIndex routes an ID to a stripe.
func (s *Store) shardIndex(id string) int {
	return int(fnv32a(id) & s.mask)
}

// ShardIndexOf exposes the stripe an ID routes to, so instrumentation can
// label spans and metrics with the shard a write landed on without
// duplicating the routing hash.
func (s *Store) ShardIndexOf(id string) int {
	return s.shardIndex(id)
}

// shardFor returns the stripe owning id.
func (s *Store) shardFor(id string) *shard {
	return s.shards[s.shardIndex(id)]
}

// Contention counts, per stripe, the lock acquisitions and how many of
// them had to wait because another goroutine held the stripe (the
// try-lock fast path failed). The counters are atomic, so they can be
// read during traffic; such a read is approximate.
type Contention []stripeLocks

// stripeLocks is one stripe's counters, padded to a cache line so that
// neighbouring stripes' counters do not false-share: counting must not
// bring back the contention the striping removes.
type stripeLocks struct {
	acquired, contended atomic.Int64
	_                   [48]byte
}

func (c Contention) record(i int, contended bool) {
	c[i].acquired.Add(1)
	if contended {
		c[i].contended.Add(1)
	}
}

// StripeContention is one stripe's counters in a Snapshot.
type StripeContention struct {
	Shard     int
	Acquired  int64
	Contended int64
}

// Snapshot returns the counters in stripe order.
func (c Contention) Snapshot() []StripeContention {
	out := make([]StripeContention, len(c))
	for i := range c {
		out[i] = StripeContention{Shard: i, Acquired: c[i].acquired.Load(), Contended: c[i].contended.Load()}
	}
	return out
}

// Totals returns the counters summed over stripes.
func (c Contention) Totals() (acquired, contended int64) {
	for i := range c {
		acquired += c[i].acquired.Load()
		contended += c[i].contended.Load()
	}
	return acquired, contended
}

// rlockIdx read-locks stripe i, recording lock pressure.
//
//collusionvet:lockorder
func (s *Store) rlockIdx(i int) *shard {
	sh := s.shards[i]
	if sh.mu.TryRLock() {
		s.contention.record(i, false)
	} else {
		s.contention.record(i, true)
		sh.mu.RLock()
	}
	return sh
}

// lockIdx write-locks stripe i, recording lock pressure.
//
//collusionvet:lockorder
func (s *Store) lockIdx(i int) *shard {
	sh := s.shards[i]
	if sh.mu.TryLock() {
		s.contention.record(i, false)
	} else {
		s.contention.record(i, true)
		sh.mu.Lock()
	}
	return sh
}

// rlock read-locks the stripe owning id.
func (s *Store) rlock(id string) *shard {
	return s.rlockIdx(s.shardIndex(id))
}

// lock write-locks the stripe owning id.
func (s *Store) lock(id string) *shard {
	return s.lockIdx(s.shardIndex(id))
}

// lockOrdered write-locks the stripes owning a and b in ascending
// shard-index order (one lock when they share a stripe) and returns an
// unlock function releasing them in reverse order. Ascending acquisition
// across every multi-stripe write is the store's one lock-ordering rule,
// and it makes cross-shard operations atomic without a global lock.
// Friendship edges take it; likes (applyLikeRun) and comments
// (addCommentPair) follow the same rule inline, because the returned
// closure costs a heap allocation they cannot afford on their hot paths.
//
//collusionvet:lockorder
func (s *Store) lockOrdered(a, b string) func() {
	lo, hi := s.shardIndex(a), s.shardIndex(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	s.lockIdx(lo)
	if hi != lo {
		s.lockIdx(hi)
	}
	return func() {
		if hi != lo {
			s.shards[hi].mu.Unlock()
		}
		s.shards[lo].mu.Unlock()
	}
}
