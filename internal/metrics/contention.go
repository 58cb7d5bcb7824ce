package metrics

import "sync/atomic"

// paddedInt64 is an atomic counter padded to its own cache line so that
// adjacent per-shard counters do not false-share under heavy parallel
// traffic (the whole point of striping is to keep cores off each other's
// lines; the observability layer must not reintroduce the contention it
// measures).
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// ShardContention tracks lock pressure on a striped data structure: per
// shard, how many lock acquisitions occurred and how many of them had to
// wait because another goroutine held the stripe (the TryLock fast path
// failed). All methods are safe for concurrent use and wait-free.
type ShardContention struct {
	acquired  []paddedInt64
	contended []paddedInt64
}

// NewShardContention returns a tracker for the given number of shards.
func NewShardContention(shards int) *ShardContention {
	if shards <= 0 {
		panic("metrics: non-positive shard count")
	}
	return &ShardContention{
		acquired:  make([]paddedInt64, shards),
		contended: make([]paddedInt64, shards),
	}
}

// Record notes one lock acquisition on the given shard; contended reports
// whether the acquisition had to wait.
func (c *ShardContention) Record(shard int, contended bool) {
	c.acquired[shard].v.Add(1)
	if contended {
		c.contended[shard].v.Add(1)
	}
}

// ShardContentionPoint is the counter snapshot for one shard.
type ShardContentionPoint struct {
	Shard     int
	Acquired  int64
	Contended int64
}

// Snapshot returns per-shard counters in shard order. Counters are read
// individually, so a snapshot taken during traffic is approximate.
func (c *ShardContention) Snapshot() []ShardContentionPoint {
	out := make([]ShardContentionPoint, len(c.acquired))
	for i := range c.acquired {
		out[i] = ShardContentionPoint{
			Shard:     i,
			Acquired:  c.acquired[i].v.Load(),
			Contended: c.contended[i].v.Load(),
		}
	}
	return out
}

// Totals returns the acquisition and contention counts summed over shards.
func (c *ShardContention) Totals() (acquired, contended int64) {
	for i := range c.acquired {
		acquired += c.acquired[i].v.Load()
		contended += c.contended[i].v.Load()
	}
	return acquired, contended
}
