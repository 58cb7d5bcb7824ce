package collusion

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// tokenEntry is one member's pooled access token.
type tokenEntry struct {
	accountID string
	token     string
	addedAt   time.Time
	// usage holds recent usage timestamps for the hourly spread cap;
	// pruned lazily.
	usage []time.Time
}

// TokenPool is the collusion network's database of member access tokens.
// One live token is kept per member account; resubmission replaces the
// stored token (members refresh short-term tokens every 1–2 hours). The
// pool supports the sampling disciplines the delivery engine needs:
// uniform random over all members, or a most-recently-added "hot set".
type TokenPool struct {
	mu      sync.Mutex
	entries map[string]*tokenEntry // by accountID
	order   []*tokenEntry          // insertion order (oldest first)
	// perm is Sample's permutation buffer, reused across draws.
	perm []int
}

// NewTokenPool returns an empty pool.
func NewTokenPool() *TokenPool {
	return &TokenPool{entries: make(map[string]*tokenEntry)}
}

// Put stores or refreshes a member's token.
func (p *TokenPool) Put(accountID, token string, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[accountID]; ok {
		e.token = token
		e.addedAt = now
		return
	}
	e := &tokenEntry{accountID: accountID, token: token, addedAt: now}
	p.entries[accountID] = e
	p.order = append(p.order, e)
}

// Remove drops a member's token (dead token discovered on use). It
// reports whether the member was present.
func (p *TokenPool) Remove(accountID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[accountID]
	if !ok {
		return false
	}
	delete(p.entries, accountID)
	// In place, order kept: every access to order holds p.mu and Members
	// copies the IDs out, so nothing aliases the backing array.
	i := slices.Index(p.order, e)
	p.order = slices.Delete(p.order, i, i+1)
	return true
}

// Size returns the number of pooled members.
func (p *TokenPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Sampled is one drawn token.
type Sampled struct {
	AccountID string
	Token     string
}

// Sample draws up to n distinct member tokens, appending them to dst[:0]
// and returning the result; a dst with room for n makes the draw
// allocation-free. Members in exclude are skipped, as are members already
// used maxHourly times in the trailing hour (their usage is recorded on
// draw). When hotSet > 0 the draw prefers the hotSet most recently added
// members (the cheap discipline that token rate limits punish); otherwise
// it is uniform over the pool.
func (p *TokenPool) Sample(dst []Sampled, rng *rand.Rand, n int, exclude map[string]bool, maxHourly int, hotSet int, now time.Time) []Sampled {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := p.order
	if hotSet > 0 && len(candidates) > hotSet {
		candidates = candidates[len(candidates)-hotSet:]
	}
	// Walk a random permutation of the candidate index space until n
	// usable tokens are found. The permutation is drawn into the pool's
	// buffer with exactly rand.Perm's calls, so the rng stream — and every
	// pick — is what rng.Perm(len(candidates)) would give.
	idx := slices.Grow(p.perm[:0], len(candidates))[:len(candidates)]
	for i := range idx {
		j := rng.Intn(i + 1)
		idx[i] = idx[j]
		idx[j] = i
	}
	p.perm = idx
	out := dst[:0]
	cutoff := now.Add(-time.Hour)
	for _, i := range idx {
		if len(out) == n {
			break
		}
		e := candidates[i]
		if exclude[e.accountID] {
			continue
		}
		// Prune usage older than an hour.
		live := e.usage[:0]
		for _, u := range e.usage {
			if u.After(cutoff) {
				live = append(live, u)
			}
		}
		e.usage = live
		if maxHourly > 0 && len(e.usage) >= maxHourly {
			continue
		}
		e.usage = append(e.usage, now)
		out = append(out, Sampled{AccountID: e.accountID, Token: e.token})
	}
	return out
}

// Members returns all pooled member account IDs in insertion order.
func (p *TokenPool) Members() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.order))
	for i, e := range p.order {
		out[i] = e.accountID
	}
	return out
}

// Contains reports whether the member has a pooled token.
func (p *TokenPool) Contains(accountID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[accountID]
	return ok
}

// Token returns the pooled token for a member, if any.
func (p *TokenPool) Token(accountID string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[accountID]
	if !ok {
		return "", false
	}
	return e.token, true
}
