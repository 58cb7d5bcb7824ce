package socialgraph

import "time"

// Edge-history retention. Multi-year open-loop runs accumulate likes,
// comments, and activity-log entries without bound; the defenses only
// ever analyse a bounded trailing window (SynchroTrap's similarity
// window, the rate limiters' day/week buckets, the honeypots' campaign
// horizon), so edge history older than a configurable analytics window
// may be aged out. Eviction is strictly scoped to edge history: accounts,
// pages, and posts are never deleted, so the existence-is-stable argument
// that lets cross-shard writes validate without global atomicity (see
// DESIGN.md §6) is preserved. Sweeps lock one stripe at a time — the
// store is never globally frozen.

// SetRetentionWindow configures the analytics window. Edge history whose
// timestamp falls more than w before the sweep instant is evicted by
// RetentionSweep. w <= 0 restores the default infinite retention.
func (s *Store) SetRetentionWindow(w time.Duration) {
	if w < 0 {
		w = 0
	}
	s.retentionNanos.Store(int64(w))
}

// RetentionWindow returns the configured analytics window (0 = infinite).
func (s *Store) RetentionWindow() time.Duration {
	return time.Duration(s.retentionNanos.Load())
}

// SweepResult reports how many edges one RetentionSweep evicted.
type SweepResult struct {
	Likes      int64
	Comments   int64
	Activities int64
}

// RetentionTotals are the store's eviction counters: the sweeps that ran
// and the edges they evicted, per class.
type RetentionTotals struct {
	Sweeps     int64
	Likes      int64
	Comments   int64
	Activities int64
}

// Retention returns the eviction totals so far. The platform exports
// them via /metrics at scrape time.
func (s *Store) Retention() RetentionTotals {
	return RetentionTotals{
		Sweeps:     s.sweeps.Load(),
		Likes:      s.evictedLikes.Load(),
		Comments:   s.evictedComments.Load(),
		Activities: s.evictedActivities.Load(),
	}
}

// RetentionSweep evicts all edge history older than now minus the
// configured window and returns what was evicted. With an infinite
// window (the default) it is a no-op and records nothing. Shards are
// swept one at a time under their own write lock, so concurrent traffic
// proceeds on every other stripe.
func (s *Store) RetentionSweep(now time.Time) SweepResult {
	w := s.RetentionWindow()
	if w <= 0 {
		return SweepResult{}
	}
	cutoff := now.Add(-w)
	var res SweepResult
	for i := range s.shards {
		sh := s.lockIdx(i)
		likes, comments, activities := sh.evictBefore(cutoff)
		sh.mu.Unlock()
		res.Likes += likes
		res.Comments += comments
		res.Activities += activities
	}
	s.sweeps.Add(1)
	s.evictedLikes.Add(res.Likes)
	s.evictedComments.Add(res.Comments)
	s.evictedActivities.Add(res.Activities)
	return res
}

// evictBefore drops this stripe's likes, comments, and activity entries
// whose wall time is strictly before cutoff's. Timestamps within an
// object's history are not necessarily monotone (organic workloads
// scatter At within a day), so eviction filters by value rather than
// trimming a prefix. A like history is first judged on its bounds: one
// whose oldest like is inside the window is skipped, and one whose
// newest like is outside it is retired whole without visiting its
// entries; only a history that straddles the cutoff is filtered entry by
// entry, and its bounds are then recomputed exactly from the survivors.
// Survivors compact in place
// and whole evicted chunks return to the shard pools (see
// chunkList.filter) — the sweep itself allocates nothing, and it is what
// refills the free lists that keep steady-state writes allocation-free.
// The caller must hold the shard's write lock.
//
//collusionvet:locked
func (sh *shard) evictBefore(cutoff time.Time) (likes, comments, activities int64) {
	cut := wallOf(cutoff)
	for obj, h := range sh.likes {
		if !h.oldest.before(cut) {
			continue
		}
		if h.newest.before(cut) {
			likes += int64(h.order.total)
			sh.retireLikeHistory(obj, h)
			continue
		}
		var oldest, newest wallTime
		kept := false
		likes += int64(h.order.filter(&sh.edges, func(r *likeRef) bool {
			at := r.at()
			if at.before(cut) {
				h.set.remove(r.acct.log.serial)
				return false
			}
			if !kept || at.before(oldest) {
				oldest = at
			}
			if !kept || newest.before(at) {
				newest = at
			}
			kept = true
			return true
		}))
		h.oldest, h.newest = oldest, newest
		if h.order.total == 0 {
			sh.retireLikeHistory(obj, h)
		}
	}
	for post, l := range sh.commentOrder {
		comments += int64(l.filter(&sh.commentEdges, func(ref *edgeRef) bool {
			if c, ok := sh.comments[ref.id]; ok && c.At.Before(cutoff) {
				delete(sh.comments, ref.id)
				sh.retireComment(c)
				return false
			}
			return true
		}))
		if l.total == 0 {
			// filter already released the chunks; pool the header too.
			sh.freeEdgeList = append(sh.freeEdgeList, l)
			delete(sh.commentOrder, post)
		}
	}
	for _, log := range sh.logs {
		if log.entries.total == 0 {
			continue
		}
		activities += int64(log.entries.filter(&sh.acts, func(e *activityRef) bool {
			return !e.at().before(cut)
		}))
	}
	return likes, comments, activities
}

// EdgeStats counts the retained edge history, composed from per-shard
// snapshots. The difference between cumulative writes and these gauges
// is what retention has reclaimed — the memory-plateau signal.
type EdgeStats struct {
	Likes      int64
	Comments   int64
	Activities int64
}

// RetainedEdges returns the currently retained edge-history counts.
func (s *Store) RetainedEdges() EdgeStats {
	var st EdgeStats
	for i := range s.shards {
		sh := s.rlockIdx(i)
		for _, h := range sh.likes {
			st.Likes += int64(h.set.n)
		}
		st.Comments += int64(len(sh.comments))
		for _, log := range sh.logs {
			st.Activities += int64(log.entries.total)
		}
		sh.mu.RUnlock()
	}
	return st
}

// LikesPage returns up to limit retained likes on objectID whose arrival
// sequence is at least after, in arrival order, along with the cursor for
// the next page and whether more likes remain. limit <= 0 means no limit.
// Sequences are assigned at like time and never reused (see edgeRef), so
// a cursor taken before a retention sweep or a like purge still denotes
// the same position afterwards: evicted likes silently drop out of the
// page, later likes keep their places.
func (s *Store) LikesPage(objectID string, after, limit int) (page []Like, next int, more bool) {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	h, ok := sh.likes[objectID]
	if !ok {
		return nil, 0, false
	}
	// searchEdges skips whole chunks below the cursor (sequences are
	// strictly ascending across the list), then the page walks entries by
	// absolute position — the same position-window semantics the flat
	// slice had.
	attrs := s.attrs.snapshot()
	c, i, pos := searchEdges(&h.order, after)
	end := h.order.total
	if limit > 0 && pos+limit < end {
		end = pos + limit
	}
	for c != nil && pos < end {
		for i < c.n && pos < end {
			page = append(page, c.buf[i].like(objectID, attrs))
			pos++
			i++
		}
		if i == c.n {
			c, i = c.next, 0
		}
	}
	if pos < h.order.total {
		// c/i rest on the first entry past the page (chunks are never
		// empty, so a chunk-boundary stop landed on a real entry).
		return page, c.buf[i].seq, true
	}
	return page, 0, false
}
