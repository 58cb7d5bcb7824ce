package socialgraph

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestLikerSetMatchesMap drives seeded random add/remove/clear sequences
// over small key ranges, so that probe runs wrap past the table's end and
// deletions land inside them, and checks every key's membership and the
// count against a map after every operation.
func TestLikerSetMatchesMap(t *testing.T) {
	var wrapRemovals int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := uint32(4 + rng.Intn(60))
		var set likerSet
		want := make(map[uint32]bool)
		for op := 0; op < 3000; op++ {
			k := 1 + uint32(rng.Intn(int(keys)))
			switch r := rng.Intn(100); {
			case r < 55:
				if got := set.add(k); got == want[k] {
					t.Fatalf("seed %d op %d: add(%d) = %v with present = %v", seed, op, k, got, want[k])
				}
				want[k] = true
			case r < 99:
				if want[k] && inWrappingRun(&set, k) {
					wrapRemovals++
				}
				if got := set.remove(k); got != want[k] {
					t.Fatalf("seed %d op %d: remove(%d) = %v with present = %v", seed, op, k, got, want[k])
				}
				delete(want, k)
			default:
				size := len(set.slots)
				set.clear()
				clear(want)
				if len(set.slots) != size {
					t.Fatalf("seed %d op %d: clear resized the table %d -> %d", seed, op, size, len(set.slots))
				}
			}
			if set.n != len(want) {
				t.Fatalf("seed %d op %d: n = %d, want %d", seed, op, set.n, len(want))
			}
			if 4*set.n > 3*len(set.slots) {
				t.Fatalf("seed %d op %d: %d of %d slots used, more than 3/4", seed, op, set.n, len(set.slots))
			}
			for key := uint32(0); key <= keys+1; key++ {
				if set.has(key) != want[key] {
					t.Fatalf("seed %d op %d: has(%d) = %v, want %v", seed, op, key, set.has(key), want[key])
				}
			}
		}
	}
	t.Logf("%d removals inside probe runs that wrap the table end", wrapRemovals)
	if wrapRemovals == 0 {
		t.Fatal("no removal landed in a probe run that wraps the table end")
	}
}

// inWrappingRun reports whether k sits in a probe run that wraps the
// table's end: a block of occupied slots through the last slot and the
// first. The table is at most 3/4 full, so both walks stop at an empty
// slot.
func inWrappingRun(s *likerSet, k uint32) bool {
	last := len(s.slots) - 1
	if last < 0 || s.slots[last] == 0 || s.slots[0] == 0 {
		return false
	}
	for i := last; s.slots[i] != 0; i-- {
		if s.slots[i] == k {
			return true
		}
	}
	for i := 0; s.slots[i] != 0; i++ {
		if s.slots[i] == k {
			return true
		}
	}
	return false
}

// TestLikeQueriesRejectNonAccountIDs likes a post and a page whose minted
// numbers end in the liker's serial, then presents those object IDs, and
// account numbers with no 32-bit serial, as likers. None may read as
// liked or remove the real like.
func TestLikeQueriesRejectNonAccountIDs(t *testing.T) {
	s := New(4, 0)
	at := time.Unix(1_446_336_000, 0)
	liker := s.CreateAccount("liker", "IN", at)
	post, err := s.CreatePost(liker.ID, "p", WriteMeta{At: at})
	if err != nil {
		t.Fatal(err)
	}
	page, err := s.CreatePage(liker.ID, "g", at)
	if err != nil {
		t.Fatal(err)
	}
	if liker.ID != "1000000000000001" || post.ID != "2000000000000001" || page.ID != "5000000000000001" {
		t.Fatalf("minted %s, %s, %s; want serial 1 of kinds 1, 2 and 5", liker.ID, post.ID, page.ID)
	}
	impostors := []string{
		post.ID, page.ID,
		"1000000000000000", // serial 0 is never minted
		"1000004294967297", // serial 2³²+1, whose low 32 bits are 1
	}
	for _, obj := range []string{post.ID, page.ID} {
		if err := s.AddLike(liker.ID, obj, WriteMeta{At: at}); err != nil {
			t.Fatal(err)
		}
		for _, id := range impostors {
			if s.HasLiked(id, obj) {
				t.Errorf("HasLiked(%s, %s) = true", id, obj)
			}
			if err := s.RemoveLike(id, obj); !errors.Is(err, ErrNotLiked) {
				t.Errorf("RemoveLike(%s, %s) = %v, want ErrNotLiked", id, obj, err)
			}
		}
		if !s.HasLiked(liker.ID, obj) || s.LikeCount(obj) != 1 || len(s.Likers(obj)) != 1 {
			t.Errorf("%s: the real like was disturbed: liked %v, count %d", obj, s.HasLiked(liker.ID, obj), s.LikeCount(obj))
		}
	}
}
