package socialgraph

import (
	"time"

	"repro/internal/ids"
)

// Bulk account construction. The scale workload registers millions of
// accounts before any traffic flows; per-account CreateAccount pays one
// lock scope and one contention sample per insert. CreateAccountBatch
// mints the whole batch up front (the ID stream is identical to N
// sequential CreateAccount calls) and then groups inserts by stripe so
// each shard is locked once per batch.

// AccountSeed describes one account in a batch create.
type AccountSeed struct {
	Name    string
	Country string
}

// CreateAccountBatch registers len(seeds) accounts created at the same
// instant and returns them in seed order. Semantics are identical to
// calling CreateAccount(seed.Name, seed.Country, at) for each seed in
// sequence; only the locking is amortised.
func (s *Store) CreateAccountBatch(seeds []AccountSeed, at time.Time) []Account {
	out := make([]Account, len(seeds))
	byShard := make(map[int][]*Account)
	for i, seed := range seeds {
		out[i] = Account{
			ID:        s.minter.Next(ids.KindAccount),
			Name:      seed.Name,
			Country:   seed.Country,
			CreatedAt: at,
		}
		idx := s.shardIndex(out[i].ID)
		byShard[idx] = append(byShard[idx], &out[i])
	}
	for idx, accts := range byShard {
		sh := s.lockIdx(idx)
		for _, a := range accts {
			sh.accounts[a.ID] = &accountRec{Account: *a}
		}
		sh.mu.Unlock()
	}
	return out
}
