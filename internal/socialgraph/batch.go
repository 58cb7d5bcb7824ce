package socialgraph

import "slices"

// Batched like apply. A collusion-network burst is hundreds of likes on
// one object, which under sequential AddLike costs one lock scope per
// action. AddLikeBatchInto amortises that: ops are split into maximal
// consecutive runs whose objects share a stripe, and each run is applied
// under a single multi-stripe lock scope (the object stripe plus every
// liker's account stripe, acquired in ascending index order exactly like
// lockOrdered). Because runs are consecutive, the total apply order is
// the ops' order, so per-op errors and final state — including
// intra-batch duplicates — match N sequential AddLike calls exactly.
// AddLike itself is a run of one.

// LikeOp is one like in a batch: AccountID likes ObjectID, attributed to
// Meta. Meta is per-op because each action in a delivery burst carries
// its own source IP, and attribution is what the countermeasures key on.
type LikeOp struct {
	AccountID string
	ObjectID  string
	Meta      WriteMeta
}

// AddLikeBatchInto applies the ops in order and writes one error per op
// into errs, aligned by index (nil = applied); len(errs) must be >=
// len(ops), and entries [0, len(ops)) are overwritten. Semantics are
// identical to calling AddLike(op.AccountID, op.ObjectID, op.Meta) for
// each op in sequence. The caller owns errs, so callers that pool their
// batch scratch (graphapi.LikeBatch, the loadgen) keep the whole apply
// allocation-free.
func (s *Store) AddLikeBatchInto(ops []LikeOp, errs []error) {
	for start := 0; start < len(ops); {
		objIdx := s.shardIndex(ops[start].ObjectID)
		end := start + 1
		for end < len(ops) && s.shardIndex(ops[end].ObjectID) == objIdx {
			end++
		}
		s.applyLikeRun(ops[start:end], errs[start:end], objIdx)
		start = end
	}
}

// applyLikeRun applies one run of likes whose objects live on stripe
// objIdx under a single lock scope: the object stripe plus every liker's
// account stripe, deduplicated and acquired in ascending index order.
// The scope is held inline, not through an unlock closure, whose heap
// escape would cost an allocation per run. The stripe set lives in a
// stack buffer for every batch the API layer emits (cap 50) and for
// AddLike's run of one. The object is resolved once per stretch of ops
// that name it (see likeTarget).
//
//collusionvet:lockorder
func (s *Store) applyLikeRun(run []LikeOp, errs []error, objIdx int) {
	var buf [64]int
	idxs := buf[:0]
	if len(run)+1 > len(buf) {
		idxs = make([]int, 0, len(run)+1)
	}
	idxs = append(idxs, objIdx)
	for i := range run {
		idxs = append(idxs, s.shardIndex(run[i].AccountID))
	}
	slices.Sort(idxs)
	// Compact duplicates in place so each stripe locks exactly once.
	n := 1
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[n-1] {
			idxs[n] = idxs[i]
			n++
		}
	}
	idxs = idxs[:n]
	for _, i := range idxs {
		s.lockIdx(i)
	}
	objShard := s.shards[objIdx]
	var t likeTarget
	for i := range run {
		op := &run[i]
		if i == 0 || op.ObjectID != t.id {
			t.flush(objShard)
			t.resolve(objShard, op.ObjectID)
		}
		errs[i] = s.likeLocked(s.shards[s.shardIndex(op.AccountID)], objShard, &t, op.AccountID, op.Meta)
	}
	t.flush(objShard)
	for i := len(idxs) - 1; i >= 0; i-- {
		s.shards[idxs[i]].mu.Unlock()
	}
}
