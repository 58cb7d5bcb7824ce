package socialgraph

// Race-coverage stress tests: many goroutines hammer every operation
// class of the sharded store at once. Run under `go test -race`; the CI
// workflow enforces it. Assertions are deliberately about invariants that
// hold under any interleaving (idempotent like counts, symmetric
// friendship edges, conserved totals), not about specific orders.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStressMixedOpsParallel(t *testing.T) {
	workers := 8
	perWorker := 300
	if testing.Short() {
		perWorker = 100
	}
	s := New(8, 0) // fewer stripes than workers to force contention
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

	// Shared targets: every worker likes/comments on the same posts and
	// pages so cross-shard write paths collide constantly.
	owner := s.CreateAccount("owner", "IN", epoch)
	page, err := s.CreatePage(owner.ID, "page", epoch)
	if err != nil {
		t.Fatal(err)
	}
	posts := make([]string, 4)
	for i := range posts {
		p, err := s.CreatePost(owner.ID, fmt.Sprintf("p%d", i), WriteMeta{At: epoch})
		if err != nil {
			t.Fatal(err)
		}
		posts[i] = p.ID
	}
	actors := make([]string, workers)
	for i := range actors {
		actors[i] = s.CreateAccount(fmt.Sprintf("w%d", i), "IN", epoch).ID
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := actors[w]
			for i := 0; i < perWorker; i++ {
				at := epoch.Add(time.Duration(i) * time.Second)
				meta := WriteMeta{AppID: "app", SourceIP: "203.0.113.1", At: at}
				switch i % 7 {
				case 0:
					s.CreateAccount(fmt.Sprintf("w%d-extra%d", w, i), "IN", at)
				case 1:
					post := posts[i%len(posts)]
					if err := s.AddLike(me, post, meta); err != nil && !errors.Is(err, ErrAlreadyLiked) {
						t.Errorf("AddLike: %v", err)
					}
				case 2:
					_ = s.RemoveLike(me, posts[i%len(posts)])
				case 3:
					if _, err := s.AddComment(me, posts[i%len(posts)], "c", meta); err != nil {
						t.Errorf("AddComment: %v", err)
					}
				case 4:
					if _, err := s.CreatePost(me, "mine", meta); err != nil {
						t.Errorf("CreatePost: %v", err)
					}
				case 5:
					if err := s.AddLike(me, page.ID, meta); err != nil && !errors.Is(err, ErrAlreadyLiked) {
						t.Errorf("AddLike(page): %v", err)
					}
					_ = s.RemoveLike(me, page.ID)
				default:
					s.Likes(posts[i%len(posts)])
					s.ActivityLog(me)
					s.Stats()
					s.PostsByAuthor(owner.ID)
				}
			}
		}(w)
	}
	wg.Wait()

	// Conservation: every comment made it; like sets contain only actors.
	st := s.Stats()
	wantComments := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if i%7 == 3 {
				wantComments++
			}
		}
	}
	if st.Comments != wantComments {
		t.Fatalf("Stats.Comments = %d, want %d", st.Comments, wantComments)
	}
	for _, post := range posts {
		if n := s.LikeCount(post); n > workers {
			t.Fatalf("LikeCount(%s) = %d > %d workers despite idempotence", post, n, workers)
		}
		for _, l := range s.Likes(post) {
			if _, err := s.Account(l.AccountID); err != nil {
				t.Fatalf("like by unknown account %s", l.AccountID)
			}
		}
	}
	acq, _ := s.Contention().Totals()
	if acq == 0 {
		t.Fatal("contention tracker recorded no lock acquisitions")
	}
}

func TestStressFriendshipSymmetry(t *testing.T) {
	const n = 40
	s := New(4, 0)
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	accts := make([]string, n)
	for i := range accts {
		accts[i] = s.CreateAccount(fmt.Sprintf("f%d", i), "IN", epoch).ID
	}
	var wg sync.WaitGroup
	// Every unordered pair is attempted from both directions concurrently;
	// the ordered dual-shard locking must keep edges symmetric and reject
	// exactly the duplicates.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			wg.Add(1)
			go func(a, b string) {
				defer wg.Done()
				if err := s.AddFriendship(a, b); err != nil && !errors.Is(err, ErrAlreadyLiked) {
					t.Errorf("AddFriendship: %v", err)
				}
			}(accts[i], accts[j])
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got := s.FriendCount(accts[i]); got != n-1 {
			t.Fatalf("FriendCount(%s) = %d, want %d", accts[i], got, n-1)
		}
		for j := 0; j < n; j++ {
			if i != j && !s.AreFriends(accts[i], accts[j]) {
				t.Fatalf("edge %d-%d missing", i, j)
			}
		}
	}
}

// TestAttrTableInternRace applies like batches on several stripes at
// once, and crawls each writer's object and likers between batches.
// Each writer's object and likers live on a pair of stripes of its own,
// so the writers' lock scopes never overlap and only the attribution
// table, the one store structure every stripe shares, orders their
// interning. Every writer interns the same app IDs and a source IP of
// its own per like, so first sightings and lookups overlap throughout,
// and every like must read back with the attribution it was written
// with. Run under -race.
func TestAttrTableInternRace(t *testing.T) {
	const (
		writers = 4
		likers  = 40
		batch   = 10
	)
	s := New(2*writers, 0)
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	owner := s.CreateAccount("owner", "IN", epoch)
	posts := make([]string, writers)
	for filled := 0; filled < writers; {
		p, err := s.CreatePost(owner.ID, "p", WriteMeta{At: epoch})
		if err != nil {
			t.Fatal(err)
		}
		if w := s.ShardIndexOf(p.ID) / 2; posts[w] == "" {
			posts[w] = p.ID
			filled++
		}
	}
	accts := make([][]string, writers)
	for filled := 0; filled < writers; {
		id := s.CreateAccount("l", "IN", epoch).ID
		w := s.ShardIndexOf(id) / 2
		if len(accts[w]) == likers {
			continue
		}
		if accts[w] = append(accts[w], id); len(accts[w]) == likers {
			filled++
		}
	}
	meta := func(w, i int) WriteMeta {
		return WriteMeta{
			AppID:    fmt.Sprintf("app-%d", (w+i)%5),
			SourceIP: fmt.Sprintf("10.%d.%d.1", w, i),
			At:       epoch.Add(time.Duration(i) * time.Second),
		}
	}

	var wg sync.WaitGroup
	for w := range posts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([]LikeOp, 0, batch)
			for i := 0; i < likers; i += batch {
				ops = ops[:0]
				for j := i; j < i+batch; j++ {
					ops = append(ops, LikeOp{AccountID: accts[w][j], ObjectID: posts[w], Meta: meta(w, j)})
				}
				for j, err := range s.AddLikeBatch(ops) {
					if err != nil {
						t.Errorf("writer %d op %d: %v", w, i+j, err)
					}
				}
				s.Likes(posts[w])
				s.ActivityLog(accts[w][i])
			}
		}()
	}
	wg.Wait()

	for w, post := range posts {
		likes := s.Likes(post)
		if len(likes) != likers {
			t.Fatalf("Likes(post %d) has %d likes, want %d", w, len(likes), likers)
		}
		for i, l := range likes {
			m := meta(w, i)
			if l.AccountID != accts[w][i] || l.AppID != m.AppID || l.SourceIP != m.SourceIP || !l.At.Equal(m.At) {
				t.Fatalf("Likes(post %d)[%d] = %+v, want %s with %+v", w, i, l, accts[w][i], m)
			}
			log := s.ActivityLog(accts[w][i])
			if len(log) != 1 || log[0].ObjectID != post || log[0].AppID != m.AppID || log[0].SourceIP != m.SourceIP || !log[0].At.Equal(m.At) {
				t.Fatalf("ActivityLog(writer %d liker %d) = %+v, want its like of %s with %+v", w, i, log, post, m)
			}
		}
	}
}

// TestRetentionSweepRacesWriters runs a sweeper goroutine against 8
// writers whose likes and comments carry advancing timestamps. Writers
// pause at their midpoint until a sweep has evicted a like, so sweeps
// overlap writes on every schedule. Every applied edge must end up
// either evicted by one sweep or retained.
func TestRetentionSweepRacesWriters(t *testing.T) {
	const (
		writers = 8
		step    = 20 * time.Millisecond // timestamp advance per write
	)
	perWriter := 2000
	if testing.Short() {
		perWriter = 800
	}
	w := newRetWorld(t, 8, writers, perWriter)
	w.s.SetRetentionWindow(5 * time.Second)
	epoch := retEpoch()

	mid := len(w.posts) / 2
	var written atomic.Int64 // writes finished, over all writers
	released := make(chan struct{})
	stop := make(chan struct{})
	swept := make(chan SweepResult)
	go func() {
		release := released
		var sum SweepResult
		for {
			select {
			case <-stop:
				swept <- sum
				return
			default:
			}
			// Sweep at the writers' mean progress. Once every writer is
			// parked at mid, mid*step lies past the window, so the sweep
			// must evict; release the writers either way.
			n := written.Load()
			res := w.s.RetentionSweep(epoch.Add(time.Duration(n/writers) * step))
			if release != nil && (res.Likes > 0 || n == writers*int64(mid)) {
				if res.Likes == 0 {
					t.Error("no sweep evicted a like while every writer was parked")
				}
				close(release)
				release = nil
			}
			sum.Likes += res.Likes
			sum.Comments += res.Comments
			runtime.Gosched()
		}
	}()

	var likes, comments atomic.Int64
	var wg sync.WaitGroup
	for _, me := range w.accounts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, post := range w.posts {
				if i == mid {
					<-released
				}
				meta := WriteMeta{At: epoch.Add(time.Duration(i) * step)}
				if i%4 == 3 {
					if _, err := w.s.AddComment(me, post, "c", meta); err != nil {
						t.Error(err)
					} else {
						comments.Add(1)
					}
				} else if err := w.s.AddLike(me, post, meta); err != nil {
					t.Error(err)
				} else {
					likes.Add(1)
				}
				written.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	sum := <-swept

	retained := w.s.RetainedEdges()
	if sum.Likes+retained.Likes != likes.Load() {
		t.Fatalf("likes: %d evicted + %d retained != %d applied", sum.Likes, retained.Likes, likes.Load())
	}
	if sum.Comments+retained.Comments != comments.Load() {
		t.Fatalf("comments: %d evicted + %d retained != %d applied", sum.Comments, retained.Comments, comments.Load())
	}
	if tot := w.s.Retention(); tot.Likes != sum.Likes || tot.Comments != sum.Comments {
		t.Fatalf("Retention() = %+v, the sweeps returned %+v", tot, sum)
	}
}
