package collusion

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/graphapi"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/simclock"
)

// Errors returned by the member-facing operations.
var (
	ErrOutage          = errors.New("collusion: site is down")
	ErrBanned          = errors.New("collusion: account banned for suspicious request behaviour")
	ErrNotMember       = errors.New("collusion: no token on file; submit your access token first")
	ErrDailyLimit      = errors.New("collusion: daily request limit reached")
	ErrCaptchaRequired = errors.New("collusion: CAPTCHA answer required")
	ErrCaptchaWrong    = errors.New("collusion: CAPTCHA answer wrong")
	ErrAdWallRequired  = errors.New("collusion: complete the ad redirect chain before requesting")
	ErrBadToken        = errors.New("collusion: submitted access token did not verify")
	ErrNoComments      = errors.New("collusion: this network does not provide auto-comments")
)

// Stats aggregates the engine's activity for the measurement harness.
// The Cross* fields count activity against linked companion platforms
// (see LinkPlatform); everything else is primary-platform activity, so
// single-platform runs are byte-identical with or without the fields.
type Stats struct {
	Visits            int64
	AdImpressions     int64
	TokensCollected   int64
	TokensDropped     int64
	LikeRequests      int64
	CommentRequests   int64
	LikesAttempted    int64
	LikesDelivered    int64
	CommentsDelivered int64
	FailuresByCode    map[int]int64
	Adapted           bool

	CrossTokensCollected int64
	CrossTokensDropped   int64
	CrossLikeRequests    int64
	CrossLikesAttempted  int64
	CrossLikesDelivered  int64
}

// target identifies the platform surface one delivery burst fires at: the
// transport, the token pool sampled, and whether the burst counts as
// cross-platform activity. The primary platform and every linked
// companion platform are both expressed as targets, so the delivery
// engine — sampling, attempt budget, batching, outcome bookkeeping — is
// written once and runs identically against either.
type target struct {
	name   string // platform name; "" for the primary platform
	client platform.Client
	pool   *TokenPool
	cross  bool
}

// Network is one collusion network instance: token pool plus delivery
// engine plus site rules. It is safe for concurrent use.
type Network struct {
	cfg    Config
	clock  simclock.Clock
	client platform.Client
	epoch  time.Time

	// Telemetry, wired by SetObserver; all instruments are nil-safe
	// no-ops until then. Counters are pre-bound to this network's name so
	// the per-like path skips the label lookup.
	obs            *obs.Observer
	likesDelivered *obs.BoundCounter // collusion_likes_delivered_total{network}
	likesAttempted *obs.BoundCounter // collusion_likes_attempted_total{network}
	commentsSent   *obs.BoundCounter // collusion_comments_delivered_total{network}
	tokensDropped  *obs.BoundCounter // collusion_tokens_dropped_total{network}

	mu            sync.Mutex
	rng           *rand.Rand
	pool          *TokenPool
	reqDay        map[string]int64 // member -> day index of reqCount
	reqCount      map[string]int
	captcha       map[string]captchaChallenge
	rateLimitDays map[int64]bool
	adapted       bool
	stats         Stats
	// Honeypot detector state: per-member per-day request counts and the
	// set of suspicious days observed; banned members are locked out.
	hpDay     map[string]int64
	hpCount   map[string]int
	hpStrikes map[string]int
	banned    map[string]bool
	// adWallPass holds one-request allowances earned by completing the
	// ad redirect chain.
	adWallPass map[string]bool
	// cross holds the linked companion platforms, keyed by platform name
	// (see LinkPlatform in cross.go).
	cross map[string]*crossBinding
}

// primary returns the target for the network's home platform.
func (n *Network) primary() target {
	return target{client: n.client, pool: n.pool}
}

type captchaChallenge struct {
	a, b int
}

// NewNetwork builds a collusion network backed by the given platform
// client. The construction instant becomes day 0 for outage scheduling.
func NewNetwork(cfg Config, clock simclock.Clock, client platform.Client) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:           cfg,
		clock:         clock,
		client:        client,
		epoch:         clock.Now(),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		pool:          NewTokenPool(),
		reqDay:        make(map[string]int64),
		reqCount:      make(map[string]int),
		captcha:       make(map[string]captchaChallenge),
		rateLimitDays: make(map[int64]bool),
		stats:         Stats{FailuresByCode: make(map[int]int64)},
		hpDay:         make(map[string]int64),
		hpCount:       make(map[string]int),
		hpStrikes:     make(map[string]int),
		banned:        make(map[string]bool),
		adWallPass:    make(map[string]bool),
	}
}

// CompleteAdWall walks the member through the ad redirect chain: every
// hop serves AdsPerVisit impressions, and completing the chain earns an
// allowance for exactly one like/comment request.
func (n *Network) CompleteAdWall(accountID string) error {
	if n.down(n.clock.Now()) {
		return ErrOutage
	}
	if n.Banned(accountID) {
		return ErrBanned
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.AdWallHops <= 0 {
		return nil // no wall configured: a no-op courtesy
	}
	n.stats.AdImpressions += int64(n.cfg.AdWallHops * n.cfg.AdsPerVisit)
	n.adWallPass[accountID] = true
	return nil
}

// SetObserver wires telemetry: per-network delivery counters (the
// likes-by-network series behind Figures 4 and 5) and a span per delivery
// burst, with each like joining the burst's trace through the context
// the client's writes take.
func (n *Network) SetObserver(o *obs.Observer) {
	n.obs = o
	n.likesDelivered = o.M().Counter("collusion_likes_delivered_total",
		"Likes successfully delivered, by collusion network.", "network").With(n.cfg.Name)
	n.likesAttempted = o.M().Counter("collusion_likes_attempted_total",
		"Like attempts fired at the Graph API, by collusion network.", "network").With(n.cfg.Name)
	n.commentsSent = o.M().Counter("collusion_comments_delivered_total",
		"Comments successfully delivered, by collusion network.", "network").With(n.cfg.Name)
	n.tokensDropped = o.M().Counter("collusion_tokens_dropped_total",
		"Dead tokens purged from the pool after delivery failures, by collusion network.", "network").With(n.cfg.Name)
}

// Name returns the network's domain name.
func (n *Network) Name() string { return n.cfg.Name }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Pool exposes the token pool (the measurement harness samples its size).
func (n *Network) Pool() *TokenPool { return n.pool }

// day returns the simulation day index of t.
func (n *Network) day(t time.Time) int64 {
	return int64(t.Sub(n.epoch) / (24 * time.Hour))
}

// down reports whether the site is in a scheduled outage at t.
func (n *Network) down(t time.Time) bool {
	d := n.day(t)
	for _, od := range n.cfg.OutageDays {
		if int64(od) == d {
			return true
		}
	}
	return false
}

// InstallURL returns the dialog URL members are redirected to when they
// click the "install application" button (step 1 of Figure 3).
func (n *Network) InstallURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("/dialog/oauth?client_id=%s&redirect_uri=%s&response_type=token", n.cfg.AppID, n.cfg.AppRedirectURI)
}

// SwitchApp repoints the network at a different susceptible application —
// the operator move the paper warns about: "collusion networks can (and
// do sometimes) switch between existing legitimate applications" when
// one is disrupted. The install link changes immediately; tokens already
// pooled keep working until they die, and returning members resubmit
// tokens for the new app.
func (n *Network) SwitchApp(appID, redirectURI string) {
	n.mu.Lock()
	n.cfg.AppID = appID
	n.cfg.AppRedirectURI = redirectURI
	n.mu.Unlock()
}

// Visit records a member landing on the site, serving ads unless the
// visitor runs an ad blocker (Sec. 5.1).
func (n *Network) Visit(adblock bool) error {
	if n.down(n.clock.Now()) {
		return ErrOutage
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Visits++
	if !adblock {
		n.stats.AdImpressions += int64(n.cfg.AdsPerVisit)
	}
	return nil
}

// SubmitToken is step 3 of Figure 3: a member pastes the access token
// copied from the address bar. The network verifies it with a /me call
// before pooling it.
func (n *Network) SubmitToken(accountID, token string) error {
	now := n.clock.Now()
	if n.down(now) {
		return ErrOutage
	}
	n.mu.Lock()
	if n.banned[accountID] {
		n.mu.Unlock()
		return ErrBanned
	}
	n.mu.Unlock()
	profile, err := n.client.Me(token, n.pickIP())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if profile.ID != accountID {
		return fmt.Errorf("%w: token belongs to %s", ErrBadToken, profile.ID)
	}
	n.pool.Put(accountID, token)
	n.mu.Lock()
	n.stats.TokensCollected++
	n.mu.Unlock()
	return nil
}

// Challenge issues a CAPTCHA for the member's next request and returns
// its question.
func (n *Network) Challenge(accountID string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := captchaChallenge{a: n.rng.Intn(10), b: n.rng.Intn(10)}
	n.captcha[accountID] = c
	return fmt.Sprintf("%d+%d=", c.a, c.b)
}

// checkSiteRules enforces membership, outages, the network's honeypot
// detector, the ad wall, CAPTCHA and per-day limits. Callers must not
// hold n.mu.
func (n *Network) checkSiteRules(accountID, captchaAnswer string) error {
	now := n.clock.Now()
	if n.down(now) {
		return ErrOutage
	}
	if n.Banned(accountID) {
		return ErrBanned
	}
	if !n.pool.Contains(accountID) {
		return ErrNotMember
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.HoneypotMaxDaily > 0 {
		d := n.day(now)
		if n.hpDay[accountID] != d {
			n.hpDay[accountID] = d
			n.hpCount[accountID] = 0
		}
		n.hpCount[accountID]++
		if n.hpCount[accountID] == n.cfg.HoneypotMaxDaily+1 {
			// Exactly once per suspicious day.
			n.hpStrikes[accountID]++
			if n.hpStrikes[accountID] >= n.cfg.HoneypotBanDays {
				n.banned[accountID] = true
				delete(n.hpStrikes, accountID)
				// Drop the banned member's token too (the pool has its
				// own lock; no ordering issue with n.mu).
				n.pool.Remove(accountID)
				return ErrBanned
			}
		}
	}
	// Validate every gate before consuming any, so a member (or the
	// honeypot automation) never burns an ad-wall pass on a request that
	// fails the CAPTCHA, or vice versa.
	if n.cfg.AdWallHops > 0 && !n.adWallPass[accountID] {
		return ErrAdWallRequired
	}
	if n.cfg.CaptchaRequired {
		c, ok := n.captcha[accountID]
		if !ok || captchaAnswer == "" {
			return ErrCaptchaRequired
		}
		if captchaAnswer != fmt.Sprintf("%d", c.a+c.b) {
			return ErrCaptchaWrong
		}
	}
	delete(n.adWallPass, accountID) // one request per chain walk
	delete(n.captcha, accountID)
	if n.cfg.DailyRequestLimit > 0 {
		d := n.day(now)
		if n.reqDay[accountID] != d {
			n.reqDay[accountID] = d
			n.reqCount[accountID] = 0
		}
		if n.reqCount[accountID] >= n.cfg.DailyRequestLimit {
			return ErrDailyLimit
		}
		n.reqCount[accountID]++
	}
	return nil
}

// RequestLikes is the core service: the member asks for likes on a post
// of theirs. It returns the number of likes actually delivered.
func (n *Network) RequestLikes(accountID, postID, captchaAnswer string) (int, error) {
	if err := n.checkSiteRules(accountID, captchaAnswer); err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.stats.LikeRequests++
	n.mu.Unlock()
	return n.deliver(nil, n.primary(), n.cfg.LikesPerRequest, accountID, postID, nil), nil
}

// RequestComments asks for auto-comments on a post. Comments are drawn
// from the network's finite dictionary (Table 6).
func (n *Network) RequestComments(accountID, postID, captchaAnswer string) (int, error) {
	if n.cfg.CommentsPerRequest <= 0 || len(n.cfg.CommentDictionary) == 0 {
		return 0, ErrNoComments
	}
	if err := n.checkSiteRules(accountID, captchaAnswer); err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.stats.CommentRequests++
	n.mu.Unlock()
	delivered := n.deliver(nil, n.primary(), n.cfg.CommentsPerRequest, accountID, postID, func(ctx context.Context, s Sampled, ip string) error {
		n.mu.Lock()
		msg := n.cfg.CommentDictionary[n.rng.Intn(len(n.cfg.CommentDictionary))]
		n.mu.Unlock()
		_, err := n.client.CommentCtx(ctx, s.Token, postID, msg, ip)
		return err
	})
	return delivered, nil
}

// deliver samples tokens from the target's pool and fires one action per
// token at objectID on the target's platform — a like, or, when comment is
// non-nil, the comment it posts — handling failures: dead tokens are
// dropped from that pool, rate limiting is recorded and may trigger
// sampling adaptation. Failed draws are replaced with fresh samples
// within a bounded attempt budget (2× the quota), which is what softens
// the impact of partial token invalidation: the engine burns through dead
// tokens to keep its per-request quota, shrinking its pool in the process
// (the gradual-dip-then-recover dynamics of Figure 5).
//
// Unless the config disables batching, a like burst is fired as
// ≤DeliveryBatchSize batches, in sample order, instead of one call per
// action. Sampling, the attempt budget, and all per-action
// bookkeeping are identical in both modes — batching changes only how
// the actions travel.
func (n *Network) deliver(ctx context.Context, t target, quota int, requester, objectID string, comment func(context.Context, Sampled, string) error) int {
	now := n.clock.Now()
	ctx, span := n.obs.T().StartSpanAt(ctx, "collusion.deliver", now)
	if span != nil {
		span.SetAttr("network", n.cfg.Name)
		span.SetAttr("requester", requester)
		span.SetAttr("quota", strconv.Itoa(quota))
		if t.cross {
			span.SetAttr("platform", t.name)
		}
	}
	n.mu.Lock()
	hotSet := n.cfg.HotSetSize
	if n.adapted {
		hotSet = 0
	}
	n.mu.Unlock()

	sc := deliveryScratchPool.Get().(*deliveryScratch)
	defer sc.release()
	sc.exclude[requester] = true
	// Trace the first action of the burst end to end (so every round
	// yields one oauth → graphapi → shard chain under this span) and
	// suppress span creation for the rest: a burst is hundreds of
	// identical calls, and tracing each one would dominate the round.
	sampledCtx, restCtx := ctx, obs.UnsampledContext(ctx)
	isComment := comment != nil
	batched := !isComment && n.cfg.DeliveryBatchSize > 0
	delivered, attempts := 0, 0
	// A 1.5× attempt budget: the engine replaces some failures but does
	// not scour the pool indefinitely, so a half-invalidated pool shows a
	// visible (~25%) dip before dead tokens purge — Figure 5's day-23
	// shape.
	budget := quota + quota/2
	for delivered < quota && attempts < budget {
		// The rng draw happens under n.mu like every other n.rng use —
		// concurrent member requests share one deterministic stream (the
		// pool has its own lock; same n.mu → pool.mu order as the ban
		// path above).
		n.mu.Lock()
		sc.sampled = t.pool.Sample(sc.sampled, n.rng, quota-delivered, sc.exclude, n.cfg.MaxPerTokenHourly, hotSet, now)
		n.mu.Unlock()
		sampled := sc.sampled
		if len(sampled) == 0 {
			break
		}
		if batched {
			delivered += n.fireBatched(sampledCtx, restCtx, sc, t, objectID, &attempts, now)
			continue
		}
		for _, s := range sampled {
			sc.exclude[s.AccountID] = true
			attempts++
			ip := n.pickIP()
			actCtx := restCtx
			if attempts == 1 {
				actCtx = sampledCtx
			}
			var err error
			if isComment {
				err = comment(actCtx, s, ip)
			} else {
				err = t.client.LikeCtx(actCtx, s.Token, objectID, ip)
			}
			delivered += n.applyOutcome(t, s, err, isComment, now, sc)
		}
	}
	// Scrape counters update once per burst, not once per action: two
	// atomic adds per burst instead of two per like, on a burst of up to
	// hundreds of likes. Totals stay exact.
	if isComment {
		n.commentsSent.Add(int64(delivered))
	} else {
		n.likesAttempted.Add(int64(attempts))
		n.likesDelivered.Add(int64(delivered))
	}
	if span != nil {
		sc.emitFailures(span)
		span.SetAttr("delivered", strconv.Itoa(delivered))
		span.EndAt(n.clock.Now())
	}
	return delivered
}

// deliveryScratch is one burst's working set: the exclusion set, the
// sampled slice, the batch ops, IPs and errors, and the failure tallies
// the burst's span reports. Scratches are pooled, so a burst allocates
// none of these; release clears every field before the scratch goes back,
// so a pooled value never pins a token.
type deliveryScratch struct {
	exclude map[string]bool
	sampled []Sampled
	ops     []platform.BatchLike
	ips     []string
	errs    []error

	failures    []codeCount // per platform error code, first-seen order
	drops       int         // dead tokens dropped from the pool
	rateLimited int         // rate-limit denials
}

// codeCount is the number of a burst's failures that carried one code.
type codeCount struct{ code, n int }

var deliveryScratchPool = sync.Pool{New: func() any {
	return &deliveryScratch{exclude: make(map[string]bool)}
}}

// release clears the scratch and returns it to the pool.
func (sc *deliveryScratch) release() {
	clear(sc.exclude)
	clear(sc.sampled[:cap(sc.sampled)])
	clear(sc.ops[:cap(sc.ops)])
	clear(sc.ips[:cap(sc.ips)])
	clear(sc.errs[:cap(sc.errs)])
	sc.sampled, sc.ops, sc.ips, sc.errs = sc.sampled[:0], sc.ops[:0], sc.ips[:0], sc.errs[:0]
	sc.failures = sc.failures[:0]
	sc.drops, sc.rateLimited = 0, 0
	deliveryScratchPool.Put(sc)
}

// noteFailure counts one failed action under its platform error code.
func (sc *deliveryScratch) noteFailure(code int) {
	for i := range sc.failures {
		if sc.failures[i].code == code {
			sc.failures[i].n++
			return
		}
	}
	sc.failures = append(sc.failures, codeCount{code: code, n: 1})
}

// emitFailures records the burst's failures on its span: one event per
// distinct error code (failures code=613 n=42), then one per outcome
// (drop-token n=3, rate-limited n=40). A countermeasures burst can fail
// hundreds of likes, so the events are per kind, not per like.
func (sc *deliveryScratch) emitFailures(span *obs.Span) {
	for _, f := range sc.failures {
		span.Event("failures", "code", strconv.Itoa(f.code), "n", strconv.Itoa(f.n))
	}
	if sc.drops > 0 {
		span.Event("drop-token", "n", strconv.Itoa(sc.drops))
	}
	if sc.rateLimited > 0 {
		span.Event("rate-limited", "n", strconv.Itoa(sc.rateLimited))
	}
}

// applyOutcome applies one action's bookkeeping — attempt/delivery stats,
// failure-code dispatch, dead-token drops, rate-limit notes — and returns
// 1 when the action was delivered. Both delivery modes funnel every
// action through here, in sample order, so batching cannot drift from the
// sequential path's Figure 5 dynamics.
//
// Failure dispatch is by provider-neutral kind, not numeric code: the
// engine reacts identically to a dead token whether the platform says
// 190 or 4010. FailuresByCode still records the platform's own code —
// the operator-visible vocabulary the paper tabulates.
func (n *Network) applyOutcome(t target, s Sampled, err error, comment bool, now time.Time, sc *deliveryScratch) int {
	n.mu.Lock()
	if !comment {
		if t.cross {
			n.stats.CrossLikesAttempted++
		} else {
			n.stats.LikesAttempted++
		}
	}
	if err == nil {
		switch {
		case comment:
			n.stats.CommentsDelivered++
		case t.cross:
			n.stats.CrossLikesDelivered++
		default:
			n.stats.LikesDelivered++
		}
		n.mu.Unlock()
		return 1
	}
	code := graphapi.ErrCode(err)
	n.stats.FailuresByCode[code]++
	n.mu.Unlock()
	sc.noteFailure(code)
	switch graphapi.ErrKindOf(err) {
	case provider.KindInvalidToken:
		// Dead token: drop the member until they resubmit.
		if t.pool.Remove(s.AccountID) {
			n.mu.Lock()
			if t.cross {
				n.stats.CrossTokensDropped++
			} else {
				n.stats.TokensDropped++
			}
			n.mu.Unlock()
			n.tokensDropped.Inc()
			sc.drops++
		}
	case provider.KindRateLimited:
		n.noteRateLimited(now)
		sc.rateLimited++
	}
	return 0
}

// fireBatched delivers the burst's current sample (sc.sampled) as
// ≤DeliveryBatchSize chunks, fired one after another in sample order,
// then replays every per-action outcome through applyOutcome in sample
// order. The platform therefore evaluates the likes in exactly the
// per-call order, so a saturated limiter admits the same likes in both
// modes. The IPs for the whole slice are drawn up front under one n.mu
// scope, consuming the rng stream exactly as per-action pickIP calls
// would. Ops, IPs and errors live in the burst's scratch.
func (n *Network) fireBatched(sampledCtx, restCtx context.Context, sc *deliveryScratch, t target, objectID string, attempts *int, now time.Time) int {
	ctx := restCtx
	if *attempts == 0 {
		// Trace the first chunk of the burst end to end, like the
		// sequential path traces its first action.
		ctx = sampledCtx
	}
	sampled := sc.sampled
	sc.ips = n.pickIPs(sc.ips[:0], len(sampled))
	ops := sc.ops[:0]
	for i, s := range sampled {
		sc.exclude[s.AccountID] = true
		ops = append(ops, platform.BatchLike{Token: s.Token, IP: sc.ips[i]})
	}
	sc.ops = ops
	*attempts += len(sampled)

	errs := slices.Grow(sc.errs[:0], len(ops))[:len(ops)]
	sc.errs = errs
	for start := 0; start < len(ops); start += n.cfg.DeliveryBatchSize {
		end := min(start+n.cfg.DeliveryBatchSize, len(ops))
		copy(errs[start:end], t.client.LikeBatch(ctx, objectID, ops[start:end]))
		ctx = restCtx
	}

	delivered := 0
	for i, s := range sampled {
		delivered += n.applyOutcome(t, s, errs[i], false, now, sc)
	}
	return delivered
}

// noteRateLimited records a rate-limit observation and flips the engine
// to uniform sampling once the operator has seen enough distinct days of
// throttling (the ~one week adaptation of Sec. 6.1).
func (n *Network) noteRateLimited(now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rateLimitDays[n.day(now)] = true
	if !n.adapted && n.cfg.HotSetSize > 0 && len(n.rateLimitDays) >= n.cfg.AdaptationLagDays {
		n.adapted = true
		n.stats.Adapted = true
	}
}

// pickIP draws a source address from the network's pool.
func (n *Network) pickIP() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.IPs[n.rng.Intn(len(n.cfg.IPs))]
}

// pickIPs appends k source addresses to dst, drawn under one lock scope,
// consuming the same deterministic rng stream as k successive pickIP
// calls.
func (n *Network) pickIPs(dst []string, k int) []string {
	n.mu.Lock()
	for range k {
		dst = append(dst, n.cfg.IPs[n.rng.Intn(len(n.cfg.IPs))])
	}
	n.mu.Unlock()
	return dst
}

// Stats returns a snapshot of the engine's counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.FailuresByCode = make(map[int]int64, len(n.stats.FailuresByCode))
	for k, v := range n.stats.FailuresByCode {
		out.FailuresByCode[k] = v
	}
	out.Adapted = n.adapted
	return out
}

// MembershipSize returns the current token pool size.
func (n *Network) MembershipSize() int { return n.pool.Size() }

// Banned reports whether the network's honeypot detector has banned the
// account.
func (n *Network) Banned(accountID string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.banned[accountID]
}
