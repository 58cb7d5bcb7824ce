// Package defense implements the countermeasure stack of Section 6 as
// policies on the Graph API request path plus supporting services:
//
//   - TokenRateLimiter (Sec. 6.1): caps write actions per access token per
//     window; the paper reduced Facebook's limit by more than an order of
//     magnitude and found collusion networks simply stayed under it.
//   - Invalidator (Sec. 6.2): invalidates access tokens identified by
//     honeypot milking, in configurable fractions and cadences.
//   - SynchroTrap (Sec. 6.3): temporal clustering of synchronized account
//     activity; ineffective here, as in the paper, because collusion
//     networks spread activity across accounts and time.
//   - IPRateLimiter and ASBlocker (Sec. 6.4): per-IP daily/weekly caps on
//     Graph API like requests and AS-level blocks for susceptible apps.
//
// All policies are clock-injected and safe for concurrent use.
package defense

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graphapi"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// slidingWindow counts events per key within a trailing window of eight
// buckets, each 1/8 of the window, so the count is a close approximation
// of a true sliding window in constant memory per key.
type slidingWindow struct {
	mu     sync.Mutex
	clock  simclock.Clock
	bucket time.Duration
	counts map[string]*ring
}

// ring is one key's last eight buckets: slot b&7 holds bucket b's count.
// A slot counts only while its bucket is newer than cur-8, so expired
// slots need no pruning and are overwritten in place. The clocks never
// run backwards, so no slot holds a bucket ahead of cur.
type ring struct {
	bucket [8]int64
	count  [8]int
}

func newSlidingWindow(clock simclock.Clock, window time.Duration) *slidingWindow {
	if window <= 0 {
		panic("defense: non-positive window")
	}
	return &slidingWindow{
		clock:  clock,
		bucket: window / 8,
		counts: map[string]*ring{},
	}
}

// allow admits one event for key iff the in-window total is below limit,
// recording it only on admission. Denied attempts do not consume quota —
// a throttled token regains capacity as its window slides, rather than
// being starved forever by its own retries.
func (s *slidingWindow) allow(key string, limit int) bool {
	cur := s.clock.Now().UnixNano() / int64(s.bucket)
	oldest := cur - 8
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.counts[key]
	if r == nil {
		r = &ring{}
		s.counts[key] = r
	}
	total := 0
	for i, b := range r.bucket {
		if b > oldest {
			total += r.count[i]
		}
	}
	if total >= limit {
		return false
	}
	slot := cur & 7
	if r.bucket[slot] != cur {
		r.bucket[slot], r.count[slot] = cur, 0
	}
	r.count[slot]++
	return true
}

// TokenRateLimiter caps write actions per access token in a trailing
// window. Name: "token-rate-limit".
type TokenRateLimiter struct {
	// limit is the current cap with its denial reason. SetLimit swaps in
	// a new pair, so Evaluate reads both with one atomic load and takes
	// no lock besides the window's.
	limit  atomic.Pointer[tokenLimit]
	window *slidingWindow
}

// tokenLimit is one token cap and its preformatted denial reason.
// Reasons are built only when the limit changes (construction and
// SetLimit), so the denial path — which a throttled collusion network
// hits on nearly every request — formats nothing per call.
type tokenLimit struct {
	max    int
	reason string
}

func newTokenLimit(limit int) *tokenLimit {
	return &tokenLimit{max: limit, reason: fmt.Sprintf("token exceeded %d writes per window", limit)}
}

// NewTokenRateLimiter returns a limiter allowing limit writes per token per
// window.
func NewTokenRateLimiter(clock simclock.Clock, limit int, window time.Duration) *TokenRateLimiter {
	l := &TokenRateLimiter{window: newSlidingWindow(clock, window)}
	l.limit.Store(newTokenLimit(limit))
	return l
}

// Name implements graphapi.Policy.
func (l *TokenRateLimiter) Name() string { return "token-rate-limit" }

// SetLimit adjusts the cap; the paper's day-12 intervention reduced it by
// more than an order of magnitude.
func (l *TokenRateLimiter) SetLimit(limit int) {
	l.limit.Store(newTokenLimit(limit))
}

// Evaluate implements graphapi.Policy.
func (l *TokenRateLimiter) Evaluate(req graphapi.Request) graphapi.Decision {
	if req.Verb == graphapi.VerbRead {
		return graphapi.Allowed()
	}
	lim := l.limit.Load()
	if !l.window.allow(req.Token, lim.max) {
		return graphapi.Denied(l.Name(), lim.reason)
	}
	return graphapi.Allowed()
}

// IPRateLimiter caps Graph API like requests per source IP per day and per
// week (Sec. 6.4). It only applies to likes performed through access
// tokens, so ordinary browser traffic is unaffected. Name: "ip-rate-limit".
type IPRateLimiter struct {
	// The limits are set once by the constructor and only read after.
	dailyLimit  int
	weeklyLimit int
	// Preformatted denial reasons. They name the limit but not the IP:
	// the denied request already carries its source IP (and the denial
	// counters are keyed by policy), so repeating it in the reason bought
	// nothing except a Sprintf per denial on the hottest defense path.
	dailyReason  string
	weeklyReason string
	daily        *slidingWindow
	weekly       *slidingWindow
}

// NewIPRateLimiter returns a limiter with the given daily and weekly caps.
func NewIPRateLimiter(clock simclock.Clock, dailyLimit, weeklyLimit int) *IPRateLimiter {
	return &IPRateLimiter{
		dailyLimit:   dailyLimit,
		weeklyLimit:  weeklyLimit,
		dailyReason:  fmt.Sprintf("IP exceeded %d likes/day", dailyLimit),
		weeklyReason: fmt.Sprintf("IP exceeded %d likes/week", weeklyLimit),
		daily:        newSlidingWindow(clock, 24*time.Hour),
		weekly:       newSlidingWindow(clock, 7*24*time.Hour),
	}
}

// Name implements graphapi.Policy.
func (l *IPRateLimiter) Name() string { return "ip-rate-limit" }

// Evaluate implements graphapi.Policy.
func (l *IPRateLimiter) Evaluate(req graphapi.Request) graphapi.Decision {
	if req.Verb != graphapi.VerbLike || req.SourceIP == "" {
		return graphapi.Allowed()
	}
	if !l.daily.allow(req.SourceIP, l.dailyLimit) {
		return graphapi.Denied(l.Name(), l.dailyReason)
	}
	if !l.weekly.allow(req.SourceIP, l.weeklyLimit) {
		// The daily admission above is not rolled back: the like was
		// denied overall, but Facebook-style layered limits charge the
		// innermost accepted layer; the discrepancy is one event.
		return graphapi.Denied(l.Name(), l.weeklyReason)
	}
	return graphapi.Allowed()
}

// ASBlocker denies write requests originating from blocked autonomous
// systems, scoped to a set of susceptible application IDs to limit
// collateral damage (the paper blocked two bulletproof-hosting ASes for
// the Table 1 apps only). Name: "as-block".
type ASBlocker struct {
	mu      sync.RWMutex
	blocked map[netsim.ASN]bool
	apps    map[string]bool // app IDs in scope; empty = all apps
}

// NewASBlocker returns a blocker with no ASes blocked.
func NewASBlocker() *ASBlocker {
	return &ASBlocker{
		blocked: make(map[netsim.ASN]bool),
		apps:    make(map[string]bool),
	}
}

// Name implements graphapi.Policy.
func (b *ASBlocker) Name() string { return "as-block" }

// Block adds an AS to the blocklist.
func (b *ASBlocker) Block(asn netsim.ASN) {
	b.mu.Lock()
	b.blocked[asn] = true
	b.mu.Unlock()
}

// ScopeToApps restricts the block to requests made through the given
// applications.
func (b *ASBlocker) ScopeToApps(appIDs ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range appIDs {
		b.apps[id] = true
	}
}

// Evaluate implements graphapi.Policy.
func (b *ASBlocker) Evaluate(req graphapi.Request) graphapi.Decision {
	if req.Verb == graphapi.VerbRead || req.ASN == 0 {
		return graphapi.Allowed()
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if !b.blocked[req.ASN] {
		return graphapi.Allowed()
	}
	if len(b.apps) > 0 && !b.apps[req.AppID] {
		return graphapi.Allowed()
	}
	return graphapi.Denied(b.Name(), fmt.Sprintf("AS%d blocked for app %s", req.ASN, req.AppID))
}
