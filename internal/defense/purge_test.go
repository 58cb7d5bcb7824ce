package defense

import (
	"fmt"
	"testing"

	"repro/internal/socialgraph"
)

func TestPurgeLikesRemovesOnlyTargets(t *testing.T) {
	s := socialgraph.New(0, 0)
	author := s.CreateAccount("author", "IN", t0)
	bot1 := s.CreateAccount("bot1", "IN", t0)
	bot2 := s.CreateAccount("bot2", "IN", t0)
	legit := s.CreateAccount("legit", "IN", t0)
	var posts []socialgraph.Post
	for i := 0; i < 3; i++ {
		p, err := s.CreatePost(author.ID, fmt.Sprintf("post %d", i), socialgraph.WriteMeta{At: t0})
		if err != nil {
			t.Fatal(err)
		}
		posts = append(posts, p)
		for _, liker := range []string{bot1.ID, bot2.ID, legit.ID} {
			if err := s.AddLike(liker, p.ID, socialgraph.WriteMeta{At: t0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	removed := PurgeLikesReport(s, []string{bot1.ID, bot2.ID}).LikesRemoved
	if removed != 6 {
		t.Fatalf("removed = %d, want 6", removed)
	}
	for _, p := range posts {
		likes := s.Likes(p.ID)
		if len(likes) != 1 || likes[0].AccountID != legit.ID {
			t.Fatalf("post %s likes after purge: %+v", p.ID, likes)
		}
	}
	// Idempotent: a second purge removes nothing.
	if again := PurgeLikesReport(s, []string{bot1.ID, bot2.ID}).LikesRemoved; again != 0 {
		t.Fatalf("second purge removed %d", again)
	}
	// Forensic record survives.
	if len(s.ActivityLog(bot1.ID)) != 3 {
		t.Fatalf("activity log truncated: %d", len(s.ActivityLog(bot1.ID)))
	}
}

func TestPurgeLikesReport(t *testing.T) {
	s := socialgraph.New(0, 0)
	author := s.CreateAccount("author", "IN", t0)
	bot := s.CreateAccount("bot", "IN", t0)
	p1, _ := s.CreatePost(author.ID, "a", socialgraph.WriteMeta{At: t0})
	p2, _ := s.CreatePost(author.ID, "b", socialgraph.WriteMeta{At: t0})
	_ = s.AddLike(bot.ID, p1.ID, socialgraph.WriteMeta{At: t0})
	_ = s.AddLike(bot.ID, p2.ID, socialgraph.WriteMeta{At: t0})
	r := PurgeLikesReport(s, []string{bot.ID, "ghost-account"})
	if r.AccountsProcessed != 2 || r.LikesRemoved != 2 || r.ObjectsTouched != 2 {
		t.Fatalf("report = %+v", r)
	}
}

func TestPurgeEmptyInput(t *testing.T) {
	s := socialgraph.New(0, 0)
	if got := PurgeLikesReport(s, nil).LikesRemoved; got != 0 {
		t.Fatalf("purge of nothing removed %d", got)
	}
}
