package socialgraph

// Chunked, pooled edge history. The per-object like order, per-post
// comment order, and per-account activity log were grow-by-append slices;
// under scale-mode load their repeated doubling dominated the store's
// allocation profile (BENCH_9: ~50% of BenchmarkTable4Milking's bytes/op
// came from likeLocked's appends alone). They are now singly-linked lists
// of fixed-size chunks drawn from per-shard free lists:
//
//   - appending an entry touches only the tail chunk and allocates
//     nothing while the shard's free list is non-empty, so a
//     steady-state write under retention (sweeps refill the free lists)
//     is allocation-free;
//   - a retention sweep compacts survivors toward the head in place and
//     returns whole evicted chunks to the shard's pool instead of
//     re-slicing, so eviction is also allocation-free;
//   - memory overhead is bounded per container: at most one partially
//     filled tail chunk, instead of the up-to-2x slack a doubled slice
//     carries.
//
// Ownership: every chunk belongs to exactly one shard's pool and is only
// touched under that shard's write lock (appends, removal, filtering) or
// read lock (iteration). Chunks never migrate between shards, so pool
// access needs no synchronization of its own. Pool helpers and the list
// operations are annotated //collusionvet:locked where they touch shard
// state: the caller holds the stripe lock, exactly like likeLocked.
//
// Entries are cleared (zeroed) when a chunk returns to the pool so
// pooled chunks never pin evicted comment IDs or account records — chunk reuse
// must not resurrect evicted edges (the differential and fuzz harnesses
// drive interleaved writes/sweeps/crawls against the reference store to
// prove it cannot).
//
// Chunk capacities are per entry class. Order entries are 24 bytes for
// a comment (edgeRef: one string header and one int) and 40 for a like
// (likeRef, which is the like's only record; see shard.go), and hot
// objects accumulate thousands of them, so both order classes use
// 64-entry chunks (~1.5 KiB and ~2.5 KiB). Activity entries
// (activityRef) are 40 bytes with no pointer, so their chunks are
// allocated noscan; each log lives in its account's record, and most
// accounts under the uniform-actor scale workload log only a handful of
// actions, so activity chunks hold 16 entries (640 B) — large enough to
// amortise chunk overhead on collusion members that act for months,
// small enough that a barely active account does not pay kilobytes of
// slack. See DESIGN.md §12.

const (
	edgeChunkCap     = 64
	activityChunkCap = 16
)

// chunk is one fixed-capacity segment of a chunkList. buf is allocated
// once at len == cap and indexed [0, n); it never grows.
type chunk[T any] struct {
	next *chunk[T]
	n    int
	buf  []T
}

// chunkPool is a per-shard free list of chunks. It is deliberately not a
// sync.Pool: the shard write lock already serialises access, the GC must
// never drain it (steady-state zero-alloc gates depend on reuse), and
// its high-water mark — the largest eviction burst between refills — is
// exactly the steady-state working set under retention.
type chunkPool[T any] struct {
	free []*chunk[T]
	cap  int // capacity of chunks this pool hands out
}

// get returns a cleared chunk, reusing a pooled one when available.
//
//collusionvet:locked
func (p *chunkPool[T]) get() *chunk[T] {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return c
	}
	return &chunk[T]{buf: make([]T, p.cap)}
}

// put clears a chunk and returns it to the free list. Clearing the whole
// buffer (not just [0, n)) keeps the pool safe against callers that
// compacted entries past n before releasing.
//
//collusionvet:locked
func (p *chunkPool[T]) put(c *chunk[T]) {
	clear(c.buf)
	c.n = 0
	c.next = nil
	p.free = append(p.free, c)
}

// chunkList is an append-ordered sequence of entries stored in chunks.
// Invariant: interior chunks are full except where a removal shortened
// one in place; the tail chunk is the only append target. total is the
// live entry count across all chunks.
type chunkList[T any] struct {
	head, tail *chunk[T]
	total      int
}

// Concrete instantiations. The store uses exactly three entry classes;
// the aliases keep signatures (and the lockorder golden) readable.
type (
	likeList     = chunkList[likeRef]
	edgeList     = chunkList[edgeRef]
	activityList = chunkList[activityRef]
	likePool     = chunkPool[likeRef]
	edgePool     = chunkPool[edgeRef]
	activityPool = chunkPool[activityRef]
)

// append adds v at the end, drawing a new tail chunk from p only when
// the current tail is full. Steady state (pool non-empty) is
// allocation-free.
//
//collusionvet:locked
func (l *chunkList[T]) append(p *chunkPool[T], v T) {
	t := l.tail
	if t == nil || t.n == len(t.buf) {
		c := p.get()
		if t == nil {
			l.head = c
		} else {
			t.next = c
		}
		l.tail = c
		t = c
	}
	t.buf[t.n] = v
	t.n++
	l.total++
}

// release returns every chunk to p and empties the list.
//
//collusionvet:locked
func (l *chunkList[T]) release(p *chunkPool[T]) {
	for c := l.head; c != nil; {
		next := c.next
		p.put(c)
		c = next
	}
	l.head, l.tail, l.total = nil, nil, 0
}

// filter retains the entries for which keep returns true, preserving
// order, compacting survivors toward the head in place, and returning
// the emptied tail chunks to p. It reports how many entries were
// dropped. This is the retention sweep's primitive: no re-slicing, no
// allocation, and evicted entries are zeroed so pooled chunks never pin
// them.
//
//collusionvet:locked
func (l *chunkList[T]) filter(p *chunkPool[T], keep func(*T) bool) (dropped int) {
	if l.head == nil {
		return 0
	}
	wc, wi := l.head, 0 // write cursor: survivors pack into (wc, wi)
	kept := 0
	for c := l.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if !keep(&c.buf[i]) {
				dropped++
				continue
			}
			if wi == len(wc.buf) {
				wc.n = wi
				wc = wc.next
				wi = 0
			}
			if wc != c || wi != i {
				wc.buf[wi] = c.buf[i]
			}
			wi++
			kept++
		}
	}
	l.total = kept
	if kept == 0 {
		l.release(p)
		return dropped
	}
	// wc holds the last survivor; everything after it goes back to the
	// pool, and the stale slots past the new fill point are zeroed.
	drop := wc.next
	clear(wc.buf[wi:])
	wc.n = wi
	wc.next = nil
	l.tail = wc
	for c := drop; c != nil; {
		next := c.next
		p.put(c)
		c = next
	}
	// Compaction refilled every chunk before the tail completely.
	for c := l.head; c != wc; c = c.next {
		c.n = len(c.buf)
	}
	return dropped
}

// removeLike deletes the like entry whose liker's serial is serial,
// shifting only within that entry's own chunk — the tail of the list is
// never copied (the old slice representation re-appended everything
// after the removal point). An emptied chunk is unlinked and pooled.
//
//collusionvet:locked
func removeLike(l *likeList, p *likePool, serial uint32) bool {
	var prev *chunk[likeRef]
	for c := l.head; c != nil; prev, c = c, c.next {
		for i := 0; i < c.n; i++ {
			if c.buf[i].acct.log.serial != serial {
				continue
			}
			copy(c.buf[i:c.n-1], c.buf[i+1:c.n])
			c.buf[c.n-1] = likeRef{}
			c.n--
			l.total--
			if c.n == 0 {
				if prev == nil {
					l.head = c.next
				} else {
					prev.next = c.next
				}
				if l.tail == c {
					l.tail = prev
				}
				p.put(c)
			}
			return true
		}
	}
	return false
}

// searchEdges returns the position of the first order entry with
// sequence >= after: the chunk, the index within it, and the absolute
// position from the head. Sequences are strictly ascending across a list
// (they are assigned from the object's monotone counter and removal
// preserves order), so whole chunks whose last entry is below the cursor
// are skipped without touching their entries, then the target chunk is
// scanned. Returns (nil, 0, total) when every entry is below after.
func searchEdges[T interface{ sequence() int }](l *chunkList[T], after int) (c *chunk[T], idx, pos int) {
	for c = l.head; c != nil; c = c.next {
		if c.n > 0 && c.buf[c.n-1].sequence() >= after {
			for i := 0; i < c.n; i++ {
				if c.buf[i].sequence() >= after {
					return c, i, pos + i
				}
			}
		}
		pos += c.n
	}
	return nil, 0, pos
}
