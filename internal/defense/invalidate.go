package defense

import (
	"math/rand"
	"sort"
	"sync"
)

// Invalidator implements the honeypot-fed token invalidation of Sec. 6.2.
// Honeypots submit the tokens they milk; the operator then invalidates
// them — first 50% of the backlog, then all of it, then fractions of the
// daily inflow — matching the escalation schedule of Figure 5.
type Invalidator struct {
	revoke func(key, reason string) bool
	reason string

	mu sync.Mutex
	// pending holds milked tokens not yet invalidated, with duplicates
	// removed. Deduplication is against the *pending* backlog only: a key
	// swept earlier may be resubmitted, because when the Invalidator is
	// keyed by account IDs a returning member mints a fresh token that
	// deserves a fresh sweep (Sec. 6.2's daily invalidation of newly
	// observed tokens).
	pending []string
	seen    map[string]bool
}

// NewInvalidator returns an Invalidator that revokes each swept key
// through revoke, which reports whether it revoked anything. A key is a
// raw token (oauthsim.Server.Invalidate) or, in the platform-side view
// where a milked account's tokens are revoked in bulk, an account ID
// (oauthsim.Server.InvalidateAccount). reason is recorded on every
// revocation.
func NewInvalidator(revoke func(key, reason string) bool, reason string) *Invalidator {
	return &Invalidator{
		revoke: revoke,
		reason: reason,
		seen:   make(map[string]bool),
	}
}

// Submit queues milked tokens. Tokens already seen (submitted or revoked)
// are ignored. It returns the number of newly queued tokens.
func (v *Invalidator) Submit(tokens []string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, t := range tokens {
		if t == "" || v.seen[t] {
			continue
		}
		v.seen[t] = true
		v.pending = append(v.pending, t)
		n++
	}
	return n
}

// InvalidateFraction revokes the given fraction (0..1] of the pending
// backlog, sampled uniformly without replacement, and returns how many
// tokens were revoked. The paper first invalidated a random 50% to avoid
// tipping off the collusion networks.
func (v *Invalidator) InvalidateFraction(fraction float64, rng *rand.Rand) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if fraction <= 0 || len(v.pending) == 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	k := int(float64(len(v.pending)) * fraction)
	if fraction == 1 {
		k = len(v.pending)
	}
	if k == 0 {
		k = 1
	}
	// Sort first: the seeded draw then depends on the backlog's set, not
	// its submission order. EXPERIMENTS.md's Figure 5 day-23+ numbers
	// were drawn from a sorted backlog; dropping the sort moves them.
	sort.Strings(v.pending)
	rng.Shuffle(len(v.pending), func(i, j int) {
		v.pending[i], v.pending[j] = v.pending[j], v.pending[i]
	})
	chosen := v.pending[:k]
	rest := append([]string(nil), v.pending[k:]...)
	n := 0
	for _, t := range chosen {
		delete(v.seen, t)
		if v.revoke(t, v.reason) {
			n++
		}
	}
	v.pending = rest
	return n
}

// InvalidateAll revokes the entire backlog and returns how many tokens
// were revoked.
func (v *Invalidator) InvalidateAll() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, t := range v.pending {
		delete(v.seen, t)
		if v.revoke(t, v.reason) {
			n++
		}
	}
	v.pending = v.pending[:0]
	return n
}
