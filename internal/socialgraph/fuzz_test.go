package socialgraph

// FuzzShardRouting feeds arbitrary ID strings through the shard router:
// routing must be deterministic, always in range for every legal shard
// count, never panic, and an object inserted under an arbitrary ID must
// round-trip through the public lookup path (proving the insert-side and
// lookup-side routing agree byte-for-byte, including IDs with embedded
// NULs and invalid UTF-8).

import (
	"testing"
	"time"
)

func FuzzShardRouting(f *testing.F) {
	f.Add("")
	f.Add("a")
	f.Add("1000000000000001") // minted-account-shaped
	f.Add("2000000000000987") // minted-post-shaped
	f.Add("5000000000000003") // minted-page-shaped
	f.Add("héllo wörld ❤")
	f.Add("\x00\x01\xff")
	f.Add("bogus-object")
	f.Fuzz(func(t *testing.T, id string) {
		for _, shards := range []int{1, 4, 64} {
			s := New(shards, 0)
			i := s.shardIndex(id)
			if i < 0 || i >= s.ShardCount() {
				t.Fatalf("shardIndex(%q) = %d with %d shards", id, i, s.ShardCount())
			}
			if j := s.shardIndex(id); j != i {
				t.Fatalf("shardIndex(%q) unstable: %d then %d", id, i, j)
			}
			// Round-trip: plant an account record under the arbitrary ID
			// directly in the routed shard, then look it up through the
			// public read path.
			sh := s.shardFor(id)
			//collusionvet:allow lockorder -- test plants a record under the store's API
			sh.mu.Lock()
			sh.accounts[id] = &accountRec{Account: Account{ID: id, Name: "fuzz", CreatedAt: time.Unix(0, 0)}}
			sh.mu.Unlock()
			got, err := s.Account(id)
			if err != nil {
				t.Fatalf("Account(%q) after insert: %v", id, err)
			}
			if got.ID != id {
				t.Fatalf("Account(%q).ID = %q", id, got.ID)
			}
			// The planted ID must also be reachable through the all-shard
			// composition paths.
			if s.AccountCount() != 1 {
				t.Fatalf("AccountCount = %d after one insert", s.AccountCount())
			}
			if ids := s.AccountIDs(); len(ids) != 1 || ids[0] != id {
				t.Fatalf("AccountIDs = %q", ids)
			}
			// And like-routing on the same ID must resolve it as a profile
			// object (owner = itself), whatever the bytes.
			owner, err := s.OwnerOf(id)
			if err != nil || owner != id {
				t.Fatalf("OwnerOf(%q) = %q, %v", id, owner, err)
			}
		}
	})
}
