package metrics

import (
	"sync"
	"testing"
)

func TestShardContentionRecordAndSnapshot(t *testing.T) {
	c := NewShardContention(4)
	if n := len(c.Snapshot()); n != 4 {
		t.Fatalf("Snapshot covers %d shards, want 4", n)
	}
	c.Record(0, false)
	c.Record(0, true)
	c.Record(3, false)
	snap := c.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len(Snapshot) = %d", len(snap))
	}
	if snap[0].Acquired != 2 || snap[0].Contended != 1 {
		t.Fatalf("shard 0 = %+v", snap[0])
	}
	if snap[3].Acquired != 1 || snap[3].Contended != 0 {
		t.Fatalf("shard 3 = %+v", snap[3])
	}
	acq, cont := c.Totals()
	if acq != 3 || cont != 1 {
		t.Fatalf("Totals = %d, %d", acq, cont)
	}
}

func TestShardContentionZero(t *testing.T) {
	c := NewShardContention(2)
	if acq, cont := c.Totals(); acq != 0 || cont != 0 {
		t.Fatalf("empty Totals = %d, %d", acq, cont)
	}
}

func TestShardContentionConcurrent(t *testing.T) {
	const shards, workers, per = 8, 16, 1000
	c := NewShardContention(shards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Record((w+i)%shards, i%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	acq, cont := c.Totals()
	if acq != workers*per {
		t.Fatalf("acquired = %d, want %d", acq, workers*per)
	}
	if cont != workers*per/2 {
		t.Fatalf("contended = %d, want %d", cont, workers*per/2)
	}
}

func TestShardContentionInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero shards")
		}
	}()
	NewShardContention(0)
}
