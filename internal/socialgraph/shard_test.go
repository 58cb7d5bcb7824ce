package socialgraph

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestShardCountDefaults(t *testing.T) {
	s := New(0, 0)
	n := s.ShardCount()
	if n&(n-1) != 0 || n < 1 {
		t.Fatalf("default ShardCount = %d, want a power of two", n)
	}
	want := defaultShardCount()
	if n != want {
		t.Fatalf("ShardCount = %d, want %d for GOMAXPROCS=%d", n, want, runtime.GOMAXPROCS(0))
	}
}

func TestNewWithShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1},
		{2, 2},
		{3, 4},
		{5, 8},
		{100, 128},
		{maxShards, maxShards},
		{maxShards + 1, maxShards},
	} {
		if got := New(tc.in, 0).ShardCount(); got != tc.want {
			t.Fatalf("New(%d, 0).ShardCount() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := New(0, 0).ShardCount(); got != defaultShardCount() {
		t.Fatalf("New(0, 0) = %d shards, want default %d", got, defaultShardCount())
	}
}

func TestShardRoutingDeterministicAndInRange(t *testing.T) {
	s := New(16, 0)
	samples := []string{"", "a", "1000000000000001", "2000000000000042", "héllo-wörld", "\x00\xff", "acct"}
	for _, id := range samples {
		i := s.shardIndex(id)
		if i < 0 || i >= s.ShardCount() {
			t.Fatalf("shardIndex(%q) = %d out of range", id, i)
		}
		if j := s.shardIndex(id); j != i {
			t.Fatalf("shardIndex(%q) not deterministic: %d then %d", id, i, j)
		}
	}
}

func TestShardSpreadOverMintedIDs(t *testing.T) {
	// Minted IDs are sequential decimals; FNV-1a must still spread them so
	// striping actually relieves contention. Allow generous skew but
	// reject degenerate clumping (all traffic on a handful of stripes).
	s := New(16, 0)
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	counts := make([]int, s.ShardCount())
	const n = 4096
	for i := 0; i < n; i++ {
		a := s.CreateAccount(fmt.Sprintf("u%d", i), "IN", epoch)
		counts[s.shardIndex(a.ID)]++
	}
	nonEmpty := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
		}
		if c > n/2 {
			t.Fatalf("one shard holds %d of %d accounts", c, n)
		}
	}
	if nonEmpty < s.ShardCount()/2 {
		t.Fatalf("only %d of %d shards used", nonEmpty, s.ShardCount())
	}
}

func TestContentionCountersSequential(t *testing.T) {
	s := New(4, 0)
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	a := s.CreateAccount("a", "IN", epoch)
	p, err := s.CreatePost(a.ID, "post", WriteMeta{At: epoch})
	if err != nil {
		t.Fatal(err)
	}
	b := s.CreateAccount("b", "IN", epoch)
	if err := s.AddLike(b.ID, p.ID, WriteMeta{At: epoch}); err != nil {
		t.Fatal(err)
	}
	acquired, contended := s.Contention().Totals()
	if acquired == 0 {
		t.Fatal("no acquisitions recorded")
	}
	if contended != 0 {
		t.Fatalf("sequential use recorded %d contended acquisitions", contended)
	}
	snap := s.Contention().Snapshot()
	if len(snap) != s.ShardCount() {
		t.Fatalf("Snapshot length = %d, want %d", len(snap), s.ShardCount())
	}
}

// TestContentionCountersConcurrent: counters recorded from many
// goroutines at once lose no increment, and each lands on its stripe.
func TestContentionCountersConcurrent(t *testing.T) {
	const shards, workers, per = 8, 16, 1000
	c := make(Contention, shards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.record((w+i)%shards, i%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	acq, cont := c.Totals()
	if acq != workers*per || cont != workers*per/2 {
		t.Fatalf("Totals = %d acquired, %d contended; want %d, %d", acq, cont, workers*per, workers*per/2)
	}
	for _, pt := range c.Snapshot() {
		if pt.Acquired != workers*per/shards {
			t.Fatalf("stripe %d acquired %d, want %d", pt.Shard, pt.Acquired, workers*per/shards)
		}
	}
}

func TestLockOrderedCollapsesDuplicates(t *testing.T) {
	s := New(2, 0)
	// Same ID twice must lock its shard exactly once (and unlock cleanly).
	unlock := s.lockOrdered("x", "x")
	unlock()
	// Cross-shard pair in both argument orders must not deadlock when
	// interleaved; sequential smoke here, the stress tests cover races.
	unlock = s.lockOrdered("a", "b")
	unlock()
	unlock = s.lockOrdered("b", "a")
	unlock()
}
