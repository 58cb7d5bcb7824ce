package repro

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// Heap gates: live bytes, after a forced GC, per unit the program keeps.
// The paper's ecosystem runs at 1.15M members and millions of retained
// likes, where per-member and per-like overheads decide whether a study
// fits in memory. Like the allocation gates these are tripwires with
// headroom over the measured figure, not targets: an index that costs a
// map per member or per like, or a record nothing reads, fails them.

// liveHeap returns the heap bytes still reachable after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestHeapGateStudyPerMember bounds the live heap of a whole study, all
// 22 networks at population divisor 20, per collusion-network member:
// the member's account, token grant, pool entry and network bookkeeping.
func TestHeapGateStudyPerMember(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	const gate = 800 // bytes per member
	before := liveHeap()
	study, err := core.NewStudy(workload.Options{Scale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	members := 0
	for _, ni := range study.Scenario.Networks {
		members += len(ni.Members)
	}
	runtime.KeepAlive(study)
	perMember := float64(after-before) / float64(members)
	t.Logf("study at divisor 20: %d members, %.1f MiB live, %.0f B/member", members, float64(after-before)/(1<<20), perMember)
	if perMember > gate {
		t.Errorf("study at divisor 20 holds %.0f B live per member, gate %d", perMember, gate)
	}
}

// TestHeapGateRetainedLike bounds what the store's live heap grows by
// per retained like when 600 posts are each liked by 350 of 12,000
// existing accounts: a like's order entry, its activity entry and its
// slot in the object's liker set, with the posts and the likers'
// activity logs amortised over them.
func TestHeapGateRetainedLike(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	const (
		gate     = 125 // bytes per retained like
		accounts = 12000
		posts    = 600
		likers   = 350
	)
	graph := socialgraph.New(16, 0)
	now := benchEpoch
	ids := make([]string, accounts)
	for i := range ids {
		ids[i] = graph.CreateAccount("", "IN", now).ID
	}
	before := liveHeap()
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < posts; p++ {
		now = now.Add(time.Minute)
		post, err := graph.CreatePost(ids[rng.Intn(accounts)], "p", socialgraph.WriteMeta{At: now})
		if err != nil {
			t.Fatal(err)
		}
		meta := socialgraph.WriteMeta{AppID: "app", SourceIP: "192.0.2.1", At: now}
		for _, i := range rng.Perm(accounts)[:likers] {
			if err := graph.AddLike(ids[i], post.ID, meta); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := liveHeap()
	retained := graph.RetainedEdges().Likes
	runtime.KeepAlive(graph)
	if retained != posts*likers {
		t.Fatalf("retained %d likes, want %d", retained, posts*likers)
	}
	perLike := float64(after-before) / float64(retained)
	t.Logf("%d retained likes: %.1f MiB live, %.1f B/like", retained, float64(after-before)/(1<<20), perLike)
	if perLike > gate {
		t.Errorf("store holds %.1f B live per retained like, gate %d", perLike, gate)
	}
}
