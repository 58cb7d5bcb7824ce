package socialgraph

import (
	"fmt"
	"sort"
)

// Friendship support. The paper's Section 8 highlights that leaked
// tokens with the user_friends permission expose members' social graphs,
// enabling personal-information harvesting and malware propagation along
// friend edges; the extension experiments reproduce those attacks, so the
// substrate models undirected friendships.
//
// Edges are stored symmetrically, one direction per endpoint's shard.
// AddFriendship write-locks both endpoint shards in ascending index order
// (the store-wide lock-ordering rule), so the two directions appear
// atomically and the duplicate check cannot race with a concurrent add of
// the reverse edge.

// AddFriendship records an undirected friend edge between two accounts.
// Adding an existing edge or a self-edge is an error.
func (s *Store) AddFriendship(a, b string) error {
	if a == b {
		return fmt.Errorf("socialgraph: self-friendship for %q: %w", a, ErrInvalidReference)
	}
	unlock := s.lockOrdered(a, b)
	defer unlock()
	shA := s.shardFor(a)
	shB := s.shardFor(b)
	if _, ok := shA.accounts[a]; !ok {
		return fmt.Errorf("account %q: %w", a, ErrNotFound)
	}
	if _, ok := shB.accounts[b]; !ok {
		return fmt.Errorf("account %q: %w", b, ErrNotFound)
	}
	if shA.friends[a][b] {
		return fmt.Errorf("socialgraph: %q and %q already friends: %w", a, b, ErrAlreadyLiked)
	}
	link := func(sh *shard, x, y string) {
		set := sh.friends[x]
		if set == nil {
			set = make(map[string]bool)
			sh.friends[x] = set
		}
		set[y] = true
	}
	link(shA, a, b)
	link(shB, b, a)
	return nil
}

// Friends returns the account's friend IDs in sorted order.
func (s *Store) Friends(accountID string) []string {
	sh := s.rlock(accountID)
	defer sh.mu.RUnlock()
	set := sh.friends[accountID]
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
