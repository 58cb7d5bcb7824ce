package collusion

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
)

func adWallHarness(t *testing.T) *harness {
	t.Helper()
	return newHarness(t, Config{
		LikesPerRequest: 8,
		AdWallHops:      3,
		AdsPerVisit:     2,
	}, 30)
}

func TestAdWallGatesRequests(t *testing.T) {
	h := adWallHarness(t)
	m := h.members[0]
	post := h.post(t, m)
	if _, err := h.network.RequestLikes(m.ID, post.ID, ""); !errors.Is(err, ErrAdWallRequired) {
		t.Fatalf("ungated request err = %v", err)
	}
	if err := h.network.CompleteAdWall(m.ID); err != nil {
		t.Fatal(err)
	}
	delivered, err := h.network.RequestLikes(m.ID, post.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 8 {
		t.Fatalf("delivered = %d", delivered)
	}
	// The chain served 3 hops × 2 impressions.
	if got := h.network.Stats().AdImpressions; got != 6 {
		t.Fatalf("AdImpressions = %d, want 6", got)
	}
	// One pass buys one request.
	post2 := h.post(t, m)
	if _, err := h.network.RequestLikes(m.ID, post2.ID, ""); !errors.Is(err, ErrAdWallRequired) {
		t.Fatalf("second request without new chain err = %v", err)
	}
}

func TestAdWallNoopWhenDisabled(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 5}, 10)
	if err := h.network.CompleteAdWall(h.members[0].ID); err != nil {
		t.Fatal(err)
	}
	if got := h.network.Stats().AdImpressions; got != 0 {
		t.Fatalf("no-wall impressions = %d", got)
	}
}

func TestAdWallPlusCaptchaAutomation(t *testing.T) {
	// The full friction stack — ad wall AND captcha — must not burn the
	// ad-wall pass on a captcha failure.
	h := newHarness(t, Config{
		LikesPerRequest: 5,
		AdWallHops:      2,
		AdsPerVisit:     1,
		CaptchaRequired: true,
	}, 20)
	m := h.members[0]
	post := h.post(t, m)
	if err := h.network.CompleteAdWall(m.ID); err != nil {
		t.Fatal(err)
	}
	// Pass held, but no captcha answer yet: the request fails without
	// consuming the pass.
	if _, err := h.network.RequestLikes(m.ID, post.ID, ""); !errors.Is(err, ErrCaptchaRequired) {
		t.Fatalf("err = %v", err)
	}
	challenge := h.network.Challenge(m.ID)
	var a, b int
	mustSscanf(t, challenge, &a, &b)
	delivered, err := h.network.RequestLikes(m.ID, post.ID, itoa(a+b))
	if err != nil {
		t.Fatalf("gated request after solving both: %v", err)
	}
	if delivered != 5 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func mustSscanf(t *testing.T, challenge string, a, b *int) {
	t.Helper()
	if _, err := fmt.Sscanf(challenge, "%d+%d=", a, b); err != nil {
		t.Fatalf("challenge %q: %v", challenge, err)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
