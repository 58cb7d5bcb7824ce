package defense

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graphapi"
	"repro/internal/simclock"
)

// TestTokenRateLimiterSetLimitDuringEvaluate swaps the limit while
// several goroutines evaluate likes. Run under -race it checks that
// Evaluate reads the limit and its reason without a lock; every denial
// must carry the reason of a limit that was set.
func TestTokenRateLimiterSetLimitDuringEvaluate(t *testing.T) {
	const writers, likes = 4, 500
	l := NewTokenRateLimiter(simclock.NewSimulated(t0), 1, 24*time.Hour)
	reasons := map[string]bool{newTokenLimit(1).reason: true, newTokenLimit(3).reason: true}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := graphapi.Request{Verb: graphapi.VerbLike, Token: fmt.Sprintf("tok-%d", w)}
			for i := 0; i < likes; i++ {
				if d := l.Evaluate(req); !d.Allow && !reasons[d.Reason] {
					t.Errorf("denial reason %q names no limit that was set", d.Reason)
					return
				}
			}
		}()
	}
	for i := 0; i < likes; i++ {
		l.SetLimit(1 + 2*(i%2))
	}
	wg.Wait()
}
