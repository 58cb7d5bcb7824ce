package defense

import (
	"math/rand"
	"sort"
	"sync"
)

// TokenRevoker is the slice of the authorization server the Invalidator
// needs; *oauthsim.Server satisfies it.
type TokenRevoker interface {
	Invalidate(token, reason string) bool
}

// Invalidator implements the honeypot-fed token invalidation of Sec. 6.2.
// Honeypots submit the tokens they milk; the operator then invalidates
// them — first 50% of the backlog, then all of it, then fractions of the
// daily inflow — matching the escalation schedule of Figure 5.
type Invalidator struct {
	revoker TokenRevoker
	reason  string

	mu sync.Mutex
	// pending holds milked tokens not yet invalidated, with duplicates
	// removed. Deduplication is against the *pending* backlog only: a key
	// swept earlier may be resubmitted, because when the Invalidator is
	// keyed by account IDs a returning member mints a fresh token that
	// deserves a fresh sweep (Sec. 6.2's daily invalidation of newly
	// observed tokens).
	pending []string
	seen    map[string]bool
	revoked int
}

// NewInvalidator returns an Invalidator feeding the given revoker. reason
// is recorded on every invalidated token.
func NewInvalidator(revoker TokenRevoker, reason string) *Invalidator {
	return &Invalidator{
		revoker: revoker,
		reason:  reason,
		seen:    make(map[string]bool),
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
	// Sort first: the backlog arrives in the order concurrent delivery
	// chunks landed in the store, so only a sorted start makes the seeded
	// draw reproducible.
	sort.Strings(v.pending)
	rng.Shuffle(len(v.pending), func(i, j int) {
		v.pending[i], v.pending[j] = v.pending[j], v.pending[i]
	})
	chosen := v.pending[:k]
	rest := append([]string(nil), v.pending[k:]...)
	n := 0
	for _, t := range chosen {
		delete(v.seen, t)
		if v.revoker.Invalidate(t, v.reason) {
			n++
		}
	}
	v.pending = rest
	v.revoked += n
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
		if v.revoker.Invalidate(t, v.reason) {
			n++
		}
	}
	v.pending = v.pending[:0]
	v.revoked += n
	return n
}

// PendingCount reports the backlog size.
func (v *Invalidator) PendingCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

// RevokedCount reports how many tokens this Invalidator has revoked.
func (v *Invalidator) RevokedCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.revoked
}
