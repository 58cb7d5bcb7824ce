package collusion

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/socialgraph"
)

// flakyClient wraps a platform client, failing every failEach-th like op
// with a transport-level error (not a Graph API error) without forwarding
// it — the kind of flakiness a delivery engine sees against a real
// network. Batched ops count one by one, so per-call and batched delivery
// see the same fault rate.
type flakyClient struct {
	platform.Client
	mu       sync.Mutex
	failEach int
	calls    int
}

var errTransport = errors.New("transport: connection reset by peer")

// fail counts one like op and reports whether it fails.
func (f *flakyClient) fail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return f.failEach > 0 && f.calls%f.failEach == 0
}

func (f *flakyClient) LikeCtx(ctx context.Context, token, objectID, ip string) error {
	if f.fail() {
		return errTransport
	}
	return f.Client.LikeCtx(ctx, token, objectID, ip)
}

func (f *flakyClient) LikeBatch(ctx context.Context, objectID string, ops []platform.BatchLike) []error {
	errs := make([]error, len(ops))
	var pass []platform.BatchLike
	var at []int
	for i, op := range ops {
		if f.fail() {
			errs[i] = errTransport
			continue
		}
		pass = append(pass, op)
		at = append(at, i)
	}
	for j, err := range f.Client.LikeBatch(ctx, objectID, pass) {
		errs[at[j]] = err
	}
	return errs
}

// deliveryModes runs a transport-fault test over both delivery paths.
var deliveryModes = []struct {
	name      string
	batchSize int
}{
	{"batched", 0}, // the default: ≤50-op LikeBatch calls
	{"per-call", -1},
}

func TestDeliveryToleratesTransportFaults(t *testing.T) {
	for _, mode := range deliveryModes {
		t.Run(mode.name, func(t *testing.T) {
			h := newHarness(t, Config{LikesPerRequest: 40}, 120)
			flaky := &flakyClient{Client: h.client, failEach: 5}
			n := NewNetwork(Config{
				Name:              "flaky-liker.net",
				AppID:             h.app.ID,
				AppRedirectURI:    h.app.RedirectURI,
				LikesPerRequest:   40,
				DeliveryBatchSize: mode.batchSize,
			}, h.clock, flaky)
			// Re-pool the members into the new network.
			for _, m := range h.members {
				tok, err := h.client.AuthorizeImplicit(h.app.ID, h.app.RedirectURI, m.ID,
					[]string{"public_profile", "publish_actions"})
				if err != nil {
					t.Fatal(err)
				}
				if err := n.SubmitToken(m.ID, tok); err != nil {
					t.Fatal(err)
				}
			}
			requester := h.members[0]
			post := h.post(t, requester)
			delivered, err := n.RequestLikes(requester.ID, post.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			// 20% of calls fail in transport; the retry budget recovers the
			// quota anyway.
			if delivered != 40 {
				t.Fatalf("delivered = %d under 20%% transport faults", delivered)
			}
			if got := len(h.p.Graph.Likes(post.ID)); got != 40 {
				t.Fatalf("store holds %d likes, want 40", got)
			}
			// Transport errors carry no Graph API code: the members must NOT be
			// dropped from the pool (only dead tokens are).
			if n.MembershipSize() != 120 {
				t.Fatalf("membership = %d; transport faults evicted members", n.MembershipSize())
			}
			st := n.Stats()
			if st.FailuresByCode[0] == 0 {
				t.Fatal("transport failures not recorded under code 0")
			}
			if st.TokensDropped != 0 {
				t.Fatalf("TokensDropped = %d", st.TokensDropped)
			}
		})
	}
}

func TestDeliveryAllTransportDown(t *testing.T) {
	for _, mode := range deliveryModes {
		t.Run(mode.name, func(t *testing.T) {
			h := newHarness(t, Config{LikesPerRequest: 10}, 30)
			flaky := &flakyClient{Client: h.client, failEach: 1} // everything fails
			n := NewNetwork(Config{
				Name:              "down-liker.net",
				AppID:             h.app.ID,
				AppRedirectURI:    h.app.RedirectURI,
				LikesPerRequest:   10,
				DeliveryBatchSize: mode.batchSize,
			}, h.clock, flaky)
			for _, m := range h.members[:15] {
				tok, err := h.client.AuthorizeImplicit(h.app.ID, h.app.RedirectURI, m.ID,
					[]string{"public_profile", "publish_actions"})
				if err != nil {
					t.Fatal(err)
				}
				if err := n.SubmitToken(m.ID, tok); err != nil {
					t.Fatal(err)
				}
			}
			requester := h.members[0]
			post := h.post(t, requester)
			delivered, err := n.RequestLikes(requester.ID, post.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			if delivered != 0 {
				t.Fatalf("delivered = %d with transport fully down", delivered)
			}
			if got := len(h.p.Graph.Likes(post.ID)); got != 0 {
				t.Fatalf("store holds %d likes with transport fully down", got)
			}
			if n.MembershipSize() != 15 {
				t.Fatalf("membership = %d", n.MembershipSize())
			}
		})
	}
}

func TestConcurrentRequests(t *testing.T) {
	h := newHarness(t, Config{LikesPerRequest: 20}, 200)
	// Many members request likes concurrently; the engine must stay
	// consistent (no double-spent samples, coherent stats).
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := h.members[i]
			post, err := h.p.Graph.CreatePost(m.ID, "concurrent post",
				socialgraph.WriteMeta{At: h.clock.Now()})
			if err != nil {
				errs <- err
				return
			}
			if _, err := h.network.RequestLikes(m.ID, post.ID, ""); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := h.network.Stats()
	if st.LikeRequests != 20 {
		t.Fatalf("LikeRequests = %d", st.LikeRequests)
	}
	if st.LikesDelivered == 0 {
		t.Fatal("nothing delivered under concurrency")
	}
	if st.LikesDelivered > st.LikesAttempted {
		t.Fatalf("delivered %d > attempted %d", st.LikesDelivered, st.LikesAttempted)
	}
}
