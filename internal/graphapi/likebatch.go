package graphapi

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/socialgraph"
)

// Batched like endpoint. A collusion-network burst is N likes on one
// object by N distinct tokens; LikeBatch runs that burst through the same
// pipeline as N Like calls but with a single store apply.
//
// The invariant that may not move: every countermeasure sees the batch
// exactly as it would see N sequential calls. Each op is authenticated on
// its own token and the policy chain is evaluated once per op with that
// op's token, IP, and ASN, so rate limiters and SynchroTrap accumulate
// identical per-token/per-IP counts (Figure 5 dynamics are built on
// those counts). Only the store write is coalesced — one AddLikeBatch
// under per-shard lock scopes instead of N two-stripe scopes.

// batchMemo caches the reads of authenticate whose result is identical
// for every op sharing an app or a source IP: the registry lookup (a
// lock, a map probe, and a defensive App clone per call) and the
// IP→AS resolution (an address parse per call). A burst reuses a
// handful of apps and IPs across dozens of ops, so the hit rate is
// near-total. Safe because a batch observing one consistent app/AS view
// is an admissible interleaving of the N equivalent sequential calls —
// and no per-token or per-IP defense count flows through these reads.
//
// apps is a slice scanned linearly: a batch sees one or two apps, and a
// memoApp is too large for a map to store inline, so a map would box one
// value per batch.
type batchMemo struct {
	apps []memoApp
	asns map[string]memoASN
}

type memoApp struct {
	id  string
	app apps.App
	err error
}

type memoASN struct {
	asn netsim.ASN
	ok  bool
}

// batchScratch is LikeBatch's reusable working set: the apply queue, its
// index map, the store's write-error slice, and the memo maps. Pooled so
// a sustained burst stream (the scale loadgen drives thousands of
// batches per simulated day) reuses one allocation per worker instead of
// five per call. errs is NOT pooled — it is returned to the caller.
type batchScratch struct {
	apply     []socialgraph.LikeOp
	applyIdx  []int
	writeErrs []error
	memo      batchMemo
}

// scratchPool recycles batchScratch values. A sync.Pool (unlike the
// store's shard-local free lists) is the right shape here: batches
// arrive on arbitrary goroutines, and the GC occasionally reclaiming an
// idle scratch only costs a re-allocation — LikeBatch's gate budgets for
// the returned errs slice, not for scratch reuse being perfect.
var scratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		memo: batchMemo{apps: make([]memoApp, 0, 2), asns: make(map[string]memoASN, 8)},
	}
}}

// get returns scratch with empty slices (capacity retained) and cleared
// memo maps, sized for n ops.
func getScratch(n int) *batchScratch {
	s := scratchPool.Get().(*batchScratch)
	if cap(s.apply) < n {
		s.apply = make([]socialgraph.LikeOp, 0, n)
		s.applyIdx = make([]int, 0, n)
		s.writeErrs = make([]error, n)
	}
	s.apply = s.apply[:0]
	s.applyIdx = s.applyIdx[:0]
	return s
}

// put clears the scratch's pointer-bearing state (tokens, app records,
// write errors must not outlive the batch in a pool) and recycles it.
func putScratch(s *batchScratch) {
	clear(s.apply[:cap(s.apply)])
	clear(s.applyIdx[:cap(s.applyIdx)])
	clear(s.writeErrs[:cap(s.writeErrs)])
	clear(s.memo.apps)
	s.memo.apps = s.memo.apps[:0]
	clear(s.memo.asns)
	scratchPool.Put(s)
}

// app returns the registry's record of app id, read once per batch. The
// record is the memo's own copy: it is valid, and must not be written,
// until the batch ends.
func (m *batchMemo) app(r *apps.Registry, id string) (*apps.App, error) {
	for i := range m.apps {
		if m.apps[i].id == id {
			return &m.apps[i].app, m.apps[i].err
		}
	}
	m.apps = append(m.apps, memoApp{id: id})
	e := &m.apps[len(m.apps)-1]
	e.err = r.GetInto(id, &e.app)
	return &e.app, e.err
}

func (m *batchMemo) asn(internet *netsim.Internet, ip string) (netsim.ASN, bool) {
	if e, ok := m.asns[ip]; ok {
		return e.asn, e.ok
	}
	var e memoASN
	if as, ok := internet.LookupASString(ip); ok {
		e = memoASN{asn: as.Number, ok: true}
	}
	m.asns[ip] = e
	return e.asn, e.ok
}

// BatchLikeOp is one like in a batch: the member token that performs
// it, its app-secret proof (empty unless the app requires one), and the
// source IP the action originates from.
type BatchLikeOp struct {
	Token          string
	AppSecretProof string
	IP             string
}

// LikeBatch publishes one like on objectID per op and returns one error
// per op, aligned by index (nil = delivered). Per-op request counters and
// latency histograms are recorded exactly as N Like calls would record
// them; tracing differs only in shape (one sampled graphapi.like_batch
// root, child spans sampled for the first op only).
func (a *API) LikeBatch(ctx context.Context, objectID string, ops []BatchLikeOp) []error {
	errs := make([]error, len(ops))
	if len(ops) == 0 {
		return errs
	}
	start := a.clock.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := a.obs.T().StartSpanAt(ctx, "graphapi.like_batch", start)
	if span != nil {
		span.SetAttr("provider", a.provName)
		span.SetAttr("object", objectID)
		span.SetAttr("ops", strconv.Itoa(len(ops)))
	}
	unsampled := obs.UnsampledContext(ctx)
	as := a.allocs.Begin(ctx, "graphapi.like_batch")

	// Phase 1: authenticate and policy-check every op in order. Ops that
	// clear the chain queue for the store apply; the rest already carry
	// their error. All working slices and the memo come from the scratch
	// pool.
	scratch := getScratch(len(ops))
	defer putScratch(scratch)
	apply := scratch.apply
	applyIdx := scratch.applyIdx
	memo := &scratch.memo
	for i, op := range ops {
		opCtx := ctx
		if i > 0 {
			opCtx = unsampled
		}
		cc := CallContext{AccessToken: op.Token, AppSecretProof: op.AppSecretProof, SourceIP: op.IP}
		req, err := a.authenticateMemo(opCtx, cc, VerbLike, a.scopePublish, start, memo)
		if err != nil {
			errs[i] = err
			continue
		}
		req.ObjectID = objectID
		if d := a.evaluate(opCtx, &req); !d.Allow {
			errs[i] = a.denialError(d)
			continue
		}
		apply = append(apply, socialgraph.LikeOp{
			AccountID: req.AccountID,
			ObjectID:  objectID,
			Meta:      socialgraph.WriteMeta{AppID: req.AppID, SourceIP: op.IP, At: req.At},
		})
		applyIdx = append(applyIdx, i)
	}

	// Phase 2: one batch apply for everything the chain allowed.
	if len(apply) > 0 {
		_, aspan := a.obs.T().StartSpanAt(ctx, "shard.apply", start)
		if aspan != nil {
			aspan.SetAttr("shard", strconv.Itoa(a.graph.ShardIndexOf(objectID)))
			aspan.SetAttr("ops", strconv.Itoa(len(apply)))
		}
		bs := a.allocs.Begin(ctx, "shard.apply")
		writeErrs := scratch.writeErrs[:len(apply)]
		a.graph.AddLikeBatchInto(apply, writeErrs)
		bs.End(len(apply))
		aspan.EndAt(start)
		for j, we := range writeErrs {
			errs[applyIdx[j]] = a.likeWriteError(we, objectID)
		}
	}

	as.End(len(ops))
	end := a.clock.Now()
	if span != nil {
		span.SetAttr("code", "0")
		span.EndAt(end)
	}
	if a.obs != nil {
		// Record the exact per-op series N sequential Like calls would:
		// one counter increment and one latency sample per op, keyed by
		// that op's error code.
		secs := end.Sub(start).Seconds()
		inst := a.opInst[opLike]
		for _, err := range errs {
			if err == nil {
				inst.ok.Inc()
				inst.latency.Observe(secs)
				continue
			}
			a.reqCount.Inc(a.provName, opNames[opLike], a.codeLabel(err))
			// The latency family has no code label; the bound series
			// covers failed ops too (rate-limit denials make this hot).
			inst.latency.Observe(secs)
		}
	}
	return errs
}
