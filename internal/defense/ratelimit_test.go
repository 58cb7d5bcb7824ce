package defense

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/graphapi"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

var t0 = time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC)

func likeReq(token, ip string, asn netsim.ASN, appID string) graphapi.Request {
	return graphapi.Request{
		Verb:      graphapi.VerbLike,
		ObjectID:  "post-1",
		Token:     token,
		AccountID: "acct-" + token,
		AppID:     appID,
		SourceIP:  ip,
		ASN:       asn,
	}
}

func TestTokenRateLimiterAllowsUnderLimit(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewTokenRateLimiter(clock, 5, time.Hour)
	for i := 0; i < 5; i++ {
		if d := l.Evaluate(likeReq("tok1", "", 0, "app")); !d.Allow {
			t.Fatalf("request %d denied: %+v", i, d)
		}
	}
	d := l.Evaluate(likeReq("tok1", "", 0, "app"))
	if d.Allow {
		t.Fatal("6th request allowed")
	}
	if d.Policy != "token-rate-limit" {
		t.Fatalf("policy = %q", d.Policy)
	}
}

func TestTokenRateLimiterPerToken(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewTokenRateLimiter(clock, 1, time.Hour)
	if d := l.Evaluate(likeReq("a", "", 0, "app")); !d.Allow {
		t.Fatal("first token denied")
	}
	if d := l.Evaluate(likeReq("b", "", 0, "app")); !d.Allow {
		t.Fatal("second token affected by first token's count")
	}
}

func TestTokenRateLimiterWindowSlides(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewTokenRateLimiter(clock, 2, time.Hour)
	_ = l.Evaluate(likeReq("tok", "", 0, "app"))
	_ = l.Evaluate(likeReq("tok", "", 0, "app"))
	if d := l.Evaluate(likeReq("tok", "", 0, "app")); d.Allow {
		t.Fatal("over-limit request allowed")
	}
	clock.Advance(2 * time.Hour)
	if d := l.Evaluate(likeReq("tok", "", 0, "app")); !d.Allow {
		t.Fatalf("request after window denied: %+v", d)
	}
}

func TestTokenRateLimiterIgnoresReads(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewTokenRateLimiter(clock, 0, time.Hour)
	req := likeReq("tok", "", 0, "app")
	req.Verb = graphapi.VerbRead
	if d := l.Evaluate(req); !d.Allow {
		t.Fatal("read denied by write limiter")
	}
}

func TestTokenRateLimiterSetLimit(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewTokenRateLimiter(clock, 100, time.Hour)
	// The paper's day-12 intervention: reduce by more than an order of
	// magnitude.
	l.SetLimit(8)
	for i := 0; i < 8; i++ {
		if d := l.Evaluate(likeReq("tok", "", 0, "app")); !d.Allow {
			t.Fatalf("request %d within the reduced limit denied", i)
		}
	}
	if d := l.Evaluate(likeReq("tok", "", 0, "app")); d.Allow {
		t.Fatal("request beyond reduced limit allowed")
	}
}

func TestIPRateLimiterDailyCap(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewIPRateLimiter(clock, 3, 100)
	for i := 0; i < 3; i++ {
		if d := l.Evaluate(likeReq(fmt.Sprintf("t%d", i), "203.0.113.5", 0, "app")); !d.Allow {
			t.Fatalf("like %d denied", i)
		}
	}
	d := l.Evaluate(likeReq("t9", "203.0.113.5", 0, "app"))
	if d.Allow {
		t.Fatal("4th like from same IP allowed")
	}
	if !strings.Contains(d.Reason, "likes/day") {
		t.Fatalf("reason = %q", d.Reason)
	}
	// A different IP is unaffected.
	if d := l.Evaluate(likeReq("t10", "203.0.113.6", 0, "app")); !d.Allow {
		t.Fatal("different IP denied")
	}
}

func TestIPRateLimiterWeeklyCap(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewIPRateLimiter(clock, 10, 15)
	ip := "198.51.100.9"
	likes := 0
	for day := 0; day < 3; day++ {
		for i := 0; i < 10; i++ {
			if d := l.Evaluate(likeReq(fmt.Sprintf("d%di%d", day, i), ip, 0, "app")); d.Allow {
				likes++
			}
		}
		clock.Advance(25 * time.Hour)
	}
	// Daily cap admits 10/day but the weekly cap of 15 must bind.
	if likes > 15 {
		t.Fatalf("weekly cap leaked: %d likes", likes)
	}
	if likes < 10 {
		t.Fatalf("daily allowance under-delivered: %d likes", likes)
	}
}

func TestIPRateLimiterSkipsNonLikesAndEmptyIP(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	l := NewIPRateLimiter(clock, 0, 0)
	req := likeReq("t", "", 0, "app")
	if d := l.Evaluate(req); !d.Allow {
		t.Fatal("empty IP denied")
	}
	req = likeReq("t", "1.2.3.4", 0, "app")
	req.Verb = graphapi.VerbComment
	if d := l.Evaluate(req); !d.Allow {
		t.Fatal("comment hit like-only IP limiter")
	}
}

func TestASBlocker(t *testing.T) {
	b := NewASBlocker()
	req := likeReq("t", "203.0.113.1", 64500, "htc-sense")
	if d := b.Evaluate(req); !d.Allow {
		t.Fatal("unblocked AS denied")
	}
	b.Block(64500)
	if d := b.Evaluate(req); d.Allow {
		t.Fatal("blocked AS allowed")
	}
	// Scoping to another app exempts this one.
	b.ScopeToApps("other-app")
	if d := b.Evaluate(req); !d.Allow {
		t.Fatal("out-of-scope app denied")
	}
	b.ScopeToApps("htc-sense")
	if d := b.Evaluate(req); d.Allow {
		t.Fatal("in-scope app allowed")
	}
}

func TestASBlockerSkipsReadsAndUnknownAS(t *testing.T) {
	b := NewASBlocker()
	b.Block(64500)
	req := likeReq("t", "203.0.113.1", 64500, "app")
	req.Verb = graphapi.VerbRead
	if d := b.Evaluate(req); !d.Allow {
		t.Fatal("read denied by AS blocker")
	}
	req = likeReq("t", "10.0.0.1", 0, "app")
	if d := b.Evaluate(req); !d.Allow {
		t.Fatal("unknown-AS request denied")
	}
}

func TestSlidingWindowTotal(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	w := newSlidingWindow(clock, time.Hour)
	// Counting within the window: four events fill a limit of four.
	for i := 0; i < 4; i++ {
		if !w.allow("k", 4) {
			t.Fatalf("event %d denied under the limit", i+1)
		}
	}
	if w.allow("k", 4) {
		t.Fatal("fifth in-window event admitted at limit 4")
	}
	// Key isolation: a full key leaves every other key's count at zero.
	if !w.allow("other", 1) {
		t.Fatal("unknown key denied")
	}
	// Expiry: once the window slides past the four events, the key
	// admits a full limit again.
	clock.Advance(2 * time.Hour)
	for i := 0; i < 4; i++ {
		if !w.allow("k", 4) {
			t.Fatalf("event %d denied after the window slid", i+1)
		}
	}
	if w.allow("k", 4) {
		t.Fatal("fifth event admitted after the window slid")
	}
}

func TestSlidingWindowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	newSlidingWindow(simclock.NewSimulated(t0), 0)
}
