package socialgraph

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddFriendshipSymmetric(t *testing.T) {
	s := New(0, 0)
	a := s.CreateAccount("a", "IN", t0)
	b := s.CreateAccount("b", "IN", t0)
	if err := s.AddFriendship(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if !s.AreFriends(a.ID, b.ID) || !s.AreFriends(b.ID, a.ID) {
		t.Fatal("friendship not symmetric")
	}
	if got := s.Friends(a.ID); len(got) != 1 || got[0] != b.ID {
		t.Fatalf("Friends(a) = %v", got)
	}
	if s.FriendCount(b.ID) != 1 {
		t.Fatalf("FriendCount(b) = %d", s.FriendCount(b.ID))
	}
}

func TestAddFriendshipValidation(t *testing.T) {
	s := New(0, 0)
	a := s.CreateAccount("a", "IN", t0)
	b := s.CreateAccount("b", "IN", t0)
	if err := s.AddFriendship(a.ID, a.ID); !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("self edge err = %v", err)
	}
	if err := s.AddFriendship(a.ID, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing account err = %v", err)
	}
	if err := s.AddFriendship("ghost", b.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing account err = %v", err)
	}
	if err := s.AddFriendship(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFriendship(b.ID, a.ID); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestFriendsOfStranger(t *testing.T) {
	s := New(0, 0)
	if got := s.Friends("nobody"); len(got) != 0 {
		t.Fatalf("Friends(nobody) = %v", got)
	}
	if s.AreFriends("x", "y") {
		t.Fatal("AreFriends on empty store")
	}
}

// Property: after any sequence of edge insertions, every adjacency is
// symmetric and degree sums are even.
func TestQuickFriendshipSymmetry(t *testing.T) {
	f := func(pairs []uint8) bool {
		s := New(0, 0)
		ids := make([]string, 12)
		for i := range ids {
			ids[i] = s.CreateAccount(fmt.Sprintf("u%d", i), "IN", t0).ID
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a := ids[int(pairs[i])%len(ids)]
			b := ids[int(pairs[i+1])%len(ids)]
			_ = s.AddFriendship(a, b) // dup/self errors are fine
		}
		degreeSum := 0
		for _, id := range ids {
			for _, fr := range s.Friends(id) {
				if !s.AreFriends(fr, id) {
					return false
				}
			}
			degreeSum += s.FriendCount(id)
		}
		return degreeSum%2 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
