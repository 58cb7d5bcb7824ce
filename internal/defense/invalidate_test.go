package defense

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// fakeRevoker records invalidations.
type fakeRevoker struct {
	mu      sync.Mutex
	revoked map[string]string
}

func newFakeRevoker() *fakeRevoker {
	return &fakeRevoker{revoked: make(map[string]string)}
}

func (f *fakeRevoker) Invalidate(token, reason string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.revoked[token]; ok {
		return false
	}
	f.revoked[token] = reason
	return true
}

func tokens(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tok-%d", i)
	}
	return out
}

func TestInvalidatorSubmitDedupes(t *testing.T) {
	v := NewInvalidator(newFakeRevoker().Invalidate, "honeypot")
	if n := v.Submit(tokens(10)); n != 10 {
		t.Fatalf("Submit = %d, want 10", n)
	}
	if n := v.Submit(tokens(10)); n != 0 {
		t.Fatalf("duplicate Submit = %d, want 0", n)
	}
	if n := v.Submit([]string{"", "tok-5", "fresh"}); n != 1 {
		t.Fatalf("mixed Submit = %d, want 1", n)
	}
	if n := v.InvalidateAll(); n != 11 {
		t.Fatalf("InvalidateAll = %d, want the 11 queued", n)
	}
}

// TestInvalidatorRevokeFunc drives the Invalidator with a bare func keyed
// by account ID, the shape core's countermeasures pass.
func TestInvalidatorRevokeFunc(t *testing.T) {
	revoked := map[string]string{}
	inv := NewInvalidator(func(id, reason string) bool {
		if _, ok := revoked[id]; ok {
			return false
		}
		revoked[id] = reason
		return true
	}, "milked")
	inv.Submit([]string{"acct-1", "acct-2"})
	if n := inv.InvalidateAll(); n != 2 {
		t.Fatalf("InvalidateAll = %d", n)
	}
	if revoked["acct-1"] != "milked" {
		t.Fatalf("revoked = %v", revoked)
	}
}

func TestInvalidateAll(t *testing.T) {
	r := newFakeRevoker()
	v := NewInvalidator(r.Invalidate, "sweep")
	v.Submit(tokens(20))
	if n := v.InvalidateAll(); n != 20 {
		t.Fatalf("InvalidateAll = %d, want 20", n)
	}
	if len(r.revoked) != 20 {
		t.Fatalf("revoked = %d tokens, want 20", len(r.revoked))
	}
	if r.revoked["tok-3"] != "sweep" {
		t.Fatalf("reason = %q", r.revoked["tok-3"])
	}
	if n := v.InvalidateAll(); n != 0 {
		t.Fatalf("second InvalidateAll = %d", n)
	}
}

func TestInvalidateFractionHalf(t *testing.T) {
	r := newFakeRevoker()
	v := NewInvalidator(r.Invalidate, "half")
	v.Submit(tokens(100))
	rng := rand.New(rand.NewSource(7))
	if n := v.InvalidateFraction(0.5, rng); n != 50 {
		t.Fatalf("InvalidateFraction(0.5) = %d, want 50", n)
	}
	// The rest remain revocable.
	if n := v.InvalidateAll(); n != 50 {
		t.Fatalf("InvalidateAll of remainder = %d, want 50", n)
	}
}

func TestInvalidateFractionEdges(t *testing.T) {
	r := newFakeRevoker()
	v := NewInvalidator(r.Invalidate, "x")
	rng := rand.New(rand.NewSource(1))
	if n := v.InvalidateFraction(0.5, rng); n != 0 {
		t.Fatalf("fraction of empty backlog = %d", n)
	}
	v.Submit(tokens(3))
	if n := v.InvalidateFraction(0, rng); n != 0 {
		t.Fatalf("zero fraction = %d", n)
	}
	// Tiny fraction still revokes at least one token.
	if n := v.InvalidateFraction(0.0001, rng); n != 1 {
		t.Fatalf("tiny fraction = %d, want 1", n)
	}
	// Over-1 fraction clamps to all.
	if n := v.InvalidateFraction(2.0, rng); n != 2 {
		t.Fatalf("clamped fraction = %d, want 2", n)
	}
}

// Property: after any sequence of submits and fractional invalidations,
// the tokens revoked so far plus those a final InvalidateAll revokes
// equal the number of distinct submitted tokens.
func TestQuickInvalidatorConservation(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		r := newFakeRevoker()
		v := NewInvalidator(r.Invalidate, "q")
		rng := rand.New(rand.NewSource(seed))
		distinct := make(map[string]bool)
		next, revoked := 0, 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // submit a batch
				batch := make([]string, op%7)
				for i := range batch {
					batch[i] = fmt.Sprintf("t%d", next)
					distinct[batch[i]] = true
					next++
				}
				v.Submit(batch)
			case 1:
				revoked += v.InvalidateFraction(float64(op%10)/10.0, rng)
			case 2:
				revoked += v.InvalidateAll()
			}
		}
		return revoked+v.InvalidateAll() == len(distinct) && len(r.revoked) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
