package socialgraph

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

func meta(app, ip string, at time.Time) WriteMeta {
	return WriteMeta{AppID: app, SourceIP: ip, At: at}
}

func TestCreateAndGetAccount(t *testing.T) {
	s := New(0, 0)
	a := s.CreateAccount("alice", "IN", t0)
	got, err := s.Account(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "alice" || got.Country != "IN" || !got.CreatedAt.Equal(t0) {
		t.Fatalf("Account = %+v", got)
	}
	if _, err := s.Account("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing account error = %v, want ErrNotFound", err)
	}
}

func TestCreatePostAndFetch(t *testing.T) {
	s := New(0, 0)
	a := s.CreateAccount("alice", "IN", t0)
	p, err := s.CreatePost(a.ID, "hello world", meta("", "", t0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Post(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Message != "hello world" || got.AuthorID != a.ID {
		t.Fatalf("Post = %+v", got)
	}
	posts := s.PostsByAuthor(a.ID)
	if len(posts) != 1 || posts[0].ID != p.ID {
		t.Fatalf("PostsByAuthor = %+v", posts)
	}
}

func TestCreatePostValidation(t *testing.T) {
	s := New(0, 0)
	a := s.CreateAccount("alice", "IN", t0)
	if _, err := s.CreatePost(a.ID, "", meta("", "", t0)); !errors.Is(err, ErrEmptyMessage) {
		t.Fatalf("empty message error = %v", err)
	}
	if _, err := s.CreatePost("ghost", "hi", meta("", "", t0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown author error = %v", err)
	}
}

func TestLikeIdempotence(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	bob := s.CreateAccount("bob", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	if err := s.AddLike(bob.ID, p.ID, meta("app1", "1.2.3.4", t0)); err != nil {
		t.Fatal(err)
	}
	err := s.AddLike(bob.ID, p.ID, meta("app1", "1.2.3.4", t0.Add(time.Minute)))
	if !errors.Is(err, ErrAlreadyLiked) {
		t.Fatalf("second like error = %v, want ErrAlreadyLiked", err)
	}
	if got := s.LikeCount(p.ID); got != 1 {
		t.Fatalf("LikeCount = %d, want 1", got)
	}
	if !s.HasLiked(bob.ID, p.ID) {
		t.Fatal("HasLiked = false")
	}
}

func TestLikeAttribution(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	bob := s.CreateAccount("bob", "EG", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	at := t0.Add(5 * time.Minute)
	if err := s.AddLike(bob.ID, p.ID, meta("htc-sense", "203.0.113.9", at)); err != nil {
		t.Fatal(err)
	}
	likes := s.Likes(p.ID)
	if len(likes) != 1 {
		t.Fatalf("len(Likes) = %d", len(likes))
	}
	l := likes[0]
	if l.AppID != "htc-sense" || l.SourceIP != "203.0.113.9" || !l.At.Equal(at) {
		t.Fatalf("Like = %+v", l)
	}
}

func TestRemoveLike(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	bob := s.CreateAccount("bob", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	if err := s.RemoveLike(bob.ID, p.ID); !errors.Is(err, ErrNotLiked) {
		t.Fatalf("remove before like error = %v", err)
	}
	_ = s.AddLike(bob.ID, p.ID, meta("", "", t0))
	if err := s.RemoveLike(bob.ID, p.ID); err != nil {
		t.Fatal(err)
	}
	if s.LikeCount(p.ID) != 0 {
		t.Fatal("like not removed")
	}
	// After removal the account can like again (Facebook purge semantics).
	if err := s.AddLike(bob.ID, p.ID, meta("", "", t0)); err != nil {
		t.Fatalf("re-like after purge: %v", err)
	}
}

func TestComments(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	bob := s.CreateAccount("bob", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	c1, err := s.AddComment(bob.ID, p.ID, "AW E S O M E", meta("app", "ip", t0))
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := s.AddComment(bob.ID, p.ID, "gr8", meta("app", "ip", t0.Add(time.Second)))
	got := s.Comments(p.ID)
	if len(got) != 2 || got[0].ID != c1.ID || got[1].ID != c2.ID {
		t.Fatalf("Comments = %+v", got)
	}
	if _, err := s.AddComment(bob.ID, "nope", "x", meta("", "", t0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("comment on missing post error = %v", err)
	}
	if _, err := s.AddComment(bob.ID, p.ID, "", meta("", "", t0)); !errors.Is(err, ErrEmptyMessage) {
		t.Fatalf("empty comment error = %v", err)
	}
}

func TestActivityLog(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	bob := s.CreateAccount("bob", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	_ = s.AddLike(bob.ID, p.ID, meta("app", "ip", t0.Add(time.Hour)))
	_, _ = s.AddComment(bob.ID, p.ID, "nice", meta("app", "ip", t0.Add(2*time.Hour)))
	log := s.ActivityLog(bob.ID)
	if len(log) != 2 {
		t.Fatalf("len(ActivityLog) = %d, want 2", len(log))
	}
	if log[0].Verb != VerbLike || log[0].TargetID != alice.ID {
		t.Fatalf("log[0] = %+v", log[0])
	}
	if log[1].Verb != VerbComment || log[1].TargetID != alice.ID {
		t.Fatalf("log[1] = %+v", log[1])
	}
	since := s.ActivitySince(bob.ID, t0.Add(90*time.Minute))
	if len(since) != 1 || since[0].Verb != VerbComment {
		t.Fatalf("ActivitySince = %+v", since)
	}
}

func TestPagesAndProfileLikes(t *testing.T) {
	s := New(0, 0)
	owner := s.CreateAccount("owner", "IN", t0)
	fan := s.CreateAccount("fan", "IN", t0)
	page, err := s.CreatePage(owner.ID, "MG Likers Official", t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreatePage("ghost", "x", t0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("page with missing owner error = %v", err)
	}
	// Page can be liked directly.
	if err := s.AddLike(fan.ID, page.ID, meta("", "", t0)); err != nil {
		t.Fatal(err)
	}
	// Pages can author posts; the activity is attributed to the owner.
	pp, err := s.CreatePost(page.ID, "page post", meta("", "", t0))
	if err != nil {
		t.Fatal(err)
	}
	if pp.AuthorID != page.ID {
		t.Fatalf("page post author = %q", pp.AuthorID)
	}
	// Profile (account object) can be liked, owner resolves to itself.
	if err := s.AddLike(fan.ID, owner.ID, meta("", "", t0)); err != nil {
		t.Fatal(err)
	}
	ownerOf, err := s.OwnerOf(page.ID)
	if err != nil || ownerOf != page.ID {
		t.Fatalf("OwnerOf(page) = %q, %v", ownerOf, err)
	}
	if err := s.AddLike(fan.ID, "bogus", meta("", "", t0)); !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("like on bogus object error = %v", err)
	}
	got, err := s.Page(page.ID)
	if err != nil || got.Name != "MG Likers Official" {
		t.Fatalf("Page = %+v, %v", got, err)
	}
}

func TestStats(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	bob := s.CreateAccount("bob", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	_ = s.AddLike(bob.ID, p.ID, meta("", "", t0))
	_, _ = s.AddComment(bob.ID, p.ID, "hi", meta("", "", t0))
	st := s.Stats()
	want := Stats{Accounts: 2, Posts: 1, Comments: 1, Likes: 1}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	if s.AccountCount() != 2 {
		t.Fatalf("AccountCount = %d", s.AccountCount())
	}
}

func TestLikesArrivalOrder(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	var want []string
	for i := 0; i < 50; i++ {
		a := s.CreateAccount(fmt.Sprintf("u%d", i), "IN", t0)
		_ = s.AddLike(a.ID, p.ID, meta("", "", t0.Add(time.Duration(i)*time.Second)))
		want = append(want, a.ID)
	}
	likes := s.Likes(p.ID)
	if len(likes) != len(want) {
		t.Fatalf("len(Likes) = %d, want %d", len(likes), len(want))
	}
	for i := range want {
		if likes[i].AccountID != want[i] {
			t.Fatalf("likes[%d] = %q, want %q", i, likes[i].AccountID, want[i])
		}
	}
}

func TestConcurrentLikes(t *testing.T) {
	s := New(0, 0)
	alice := s.CreateAccount("alice", "IN", t0)
	p, _ := s.CreatePost(alice.ID, "post", meta("", "", t0))
	const n = 200
	accounts := make([]string, n)
	for i := range accounts {
		accounts[i] = s.CreateAccount(fmt.Sprintf("u%d", i), "IN", t0).ID
	}
	var wg sync.WaitGroup
	for _, id := range accounts {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := s.AddLike(id, p.ID, meta("", "", t0)); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if got := s.LikeCount(p.ID); got != n {
		t.Fatalf("LikeCount = %d, want %d", got, n)
	}
}

// Property: like count always equals the number of distinct likers, no
// matter the interleaving of duplicate likes.
func TestQuickLikeCountEqualsDistinctLikers(t *testing.T) {
	f := func(likerPicks []uint8) bool {
		s := New(0, 0)
		author := s.CreateAccount("author", "IN", t0)
		p, _ := s.CreatePost(author.ID, "post", meta("", "", t0))
		pool := make([]string, 16)
		for i := range pool {
			pool[i] = s.CreateAccount(fmt.Sprintf("u%d", i), "IN", t0).ID
		}
		distinct := make(map[string]bool)
		for _, pick := range likerPicks {
			id := pool[int(pick)%len(pool)]
			err := s.AddLike(id, p.ID, meta("", "", t0))
			if distinct[id] {
				if !errors.Is(err, ErrAlreadyLiked) {
					return false
				}
			} else if err != nil {
				return false
			}
			distinct[id] = true
		}
		return s.LikeCount(p.ID) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every activity-log entry's target matches the owner of the
// object acted on.
func TestQuickActivityTargetsConsistent(t *testing.T) {
	f := func(actions []bool) bool {
		s := New(0, 0)
		author := s.CreateAccount("author", "IN", t0)
		actor := s.CreateAccount("actor", "IN", t0)
		p, _ := s.CreatePost(author.ID, "post", meta("", "", t0))
		liked := false
		for _, doLike := range actions {
			if doLike && !liked {
				if err := s.AddLike(actor.ID, p.ID, meta("", "", t0)); err != nil {
					return false
				}
				liked = true
			} else {
				if _, err := s.AddComment(actor.ID, p.ID, "c", meta("", "", t0)); err != nil {
					return false
				}
			}
		}
		for _, act := range s.ActivityLog(actor.ID) {
			if act.TargetID != author.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
