// Package graphapi implements the platform's Graph API: the HTTP surface
// through which third-party applications act on behalf of users, and the
// request path every countermeasure of Section 6 hooks into.
//
// Each write request carries the full attribution tuple the paper's
// defenses key on — access token, account, application, source IP, and
// autonomous system — and is evaluated against an ordered chain of Policy
// values before it reaches the social graph. The package exposes both a
// net/http server (used by examples, the scanner, and integration tests)
// and a direct in-process API with identical semantics (used by the
// large-scale experiments).
package graphapi

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/oauthsim"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/redact"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// Verb labels the operation a request performs.
type Verb string

// Request verbs.
const (
	VerbLike    Verb = "like"
	VerbComment Verb = "comment"
	VerbPost    Verb = "post"
	VerbRead    Verb = "read"
)

// Request is the normalized form of one Graph API call, as seen by the
// policy chain: the verb and its object, and the attribution tuple the
// defenses key on. The chain and each policy receive it by value, so it
// carries the token's account and app IDs rather than their records
// (144 bytes).
type Request struct {
	Verb      Verb
	ObjectID  string
	Message   string // comment/post body
	Token     string // the presented bearer token
	AccountID string // the token's account
	AppID     string // the token's application
	SourceIP  string
	ASN       netsim.ASN // 0 when the source IP maps to no registered AS
	At        time.Time
}

// Decision is a policy verdict.
type Decision struct {
	Allow  bool
	Policy string // name of the policy that denied (empty on allow)
	Reason string
}

// Allowed is the unanimous-allow decision.
func Allowed() Decision { return Decision{Allow: true} }

// Denied constructs a denial attributed to a policy.
func Denied(policy, reason string) Decision {
	return Decision{Allow: false, Policy: policy, Reason: reason}
}

// Policy inspects a request and may deny it. Policies must be safe for
// concurrent use. Evaluate is called for write verbs only.
type Policy interface {
	Name() string
	Evaluate(Request) Decision
}

// Chain is an ordered set of policies that grows while requests are
// served. The paper deployed countermeasures incrementally over the
// Figure 5 timeline; Chain.Append models exactly that.
type Chain struct {
	// policies is a copy-on-write snapshot: Append publishes a new slice,
	// so Evaluate reads the list with one atomic load and no lock.
	policies atomic.Pointer[[]Policy]

	mu      sync.Mutex // guards Append and denials
	denials map[string]int64
}

// NewChain returns an empty chain (allows everything).
func NewChain() *Chain {
	return &Chain{denials: make(map[string]int64)}
}

// snapshot returns the current policy list; callers must not mutate it.
func (c *Chain) snapshot() []Policy {
	if p := c.policies.Load(); p != nil {
		return *p
	}
	return nil
}

// Append adds a policy at the end of the chain.
func (c *Chain) Append(p Policy) {
	c.mu.Lock()
	next := append(append([]Policy(nil), c.snapshot()...), p)
	c.policies.Store(&next)
	c.mu.Unlock()
}

// Evaluate runs the request through every policy in order, stopping at the
// first denial.
func (c *Chain) Evaluate(req Request) Decision {
	for _, p := range c.snapshot() {
		if d := p.Evaluate(req); !d.Allow {
			c.mu.Lock()
			c.denials[d.Policy]++
			c.mu.Unlock()
			return d
		}
	}
	return Allowed()
}

// Denials returns a copy of the per-policy denial counters.
func (c *Chain) Denials() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.denials))
	for k, v := range c.denials {
		out[k] = v
	}
	return out
}

// Names lists the active policies in evaluation order.
func (c *Chain) Names() []string {
	policies := c.snapshot()
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name()
	}
	return out
}

// Error codes of the DEFAULT provider's numeric space, named because
// Facebook client code dispatches on them; here only tests do. Non-default
// providers map the same canonical kinds (provider.ErrKind) into their own
// numeric spaces, and the program dispatches on ErrKindOf, not ErrCode.
const (
	CodeInvalidToken = 190 // OAuthException: token missing/expired/invalidated
	CodeSecretProof  = 104 // appsecret_proof failure
	CodePermission   = 200 // missing permission scope
	CodeRateLimited  = 613 // application/token request limit reached
	CodeBlocked      = 368 // policy block (temporarily blocked for abuse)
	CodeNotFound     = 803 // unknown object
	CodeDuplicate    = 520 // duplicate action (already liked)
	CodeInvalidParam = 100 // invalid parameter
	CodeAppSuspended = 191 // application disabled
)

// APIError is the structured error returned by Graph API operations.
// Code and Type are in the issuing provider's vocabulary; Kind is the
// provider-neutral classification.
type APIError struct {
	Code    int
	Type    string
	Message string
	Kind    provider.ErrKind
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("graphapi: (#%d) %s: %s", e.Code, e.Type, e.Message)
}

// ErrCode extracts the provider-specific API error code from err, or 0.
func ErrCode(err error) int {
	if ae, ok := err.(*APIError); ok {
		return ae.Code
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return 0
}

// ErrKindOf extracts the canonical error kind from err, or KindNone.
// Cross-provider code (the collusion delivery engine) dispatches on this
// so one engine understands every platform's error space.
func ErrKindOf(err error) provider.ErrKind {
	// Direct assertion first: API errors are returned unwrapped, and
	// errors.As heap-allocates its target — this runs once per failed op
	// on the delivery path.
	if ae, ok := err.(*APIError); ok {
		return ae.Kind
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Kind
	}
	return provider.KindNone
}

// err builds an APIError in the API's provider vocabulary: the canonical
// kind is mapped to the provider's numeric code, and typ (the canonical
// type label) is passed through ErrorType so providers with their own
// vocabulary can rename it. The default provider maps both identically,
// which keeps its wire behavior bit-for-bit what it always was.
func (a *API) err(k provider.ErrKind, typ, format string, args ...any) error {
	return a.errMsg(k, typ, fmt.Sprintf(format, args...))
}

// errMsg is err with a ready-made message: no Sprintf, so error paths
// whose message is constant (or already formatted, like the oauth
// server's preformatted invalidation errors) skip the formatter.
func (a *API) errMsg(k provider.ErrKind, typ, msg string) error {
	return &APIError{
		Code:    a.prov.ErrorCode(k),
		Type:    a.prov.ErrorType(k, typ),
		Message: msg,
		Kind:    k,
	}
}

// API is the in-process Graph API. All transports (HTTP and direct calls)
// funnel into its methods, so policies and attribution behave identically.
type API struct {
	clock    simclock.Clock
	graph    *socialgraph.Store
	oauth    *oauthsim.Server
	registry *apps.Registry
	internet *netsim.Internet
	chain    *Chain

	// Platform identity: error vocabulary, scope names, batch cap, and
	// the value of the platform metric label / provider span attribute.
	prov         provider.Provider
	provName     string
	scopePublish string
	scopeFriends string

	// Telemetry, wired by SetObserver. All fields are nil-safe no-ops
	// until then, so uninstrumented construction keeps working.
	obs            *obs.Observer
	reqCount       *obs.CounterVec   // graphapi_requests_total{platform,op,code}
	reqLatency     *obs.HistogramVec // graphapi_request_seconds{platform,op}
	defenseActions *obs.CounterVec   // defense_actions_total{countermeasure,action}
	allocs         *obs.AllocMeter   // allocs_per_op{platform,op} windows on the hot paths
	opInst         [numOps]opInstruments

	// Preallocated denial errors in this provider's vocabulary, built
	// once at construction: duplicate likes are the denial collusion
	// traffic hits by the thousand, and policy denials are interned per
	// (policy, reason) — with the rate limiters' preformatted reasons the
	// cache stays a handful of entries, and the cap guards against a
	// pathological high-cardinality custom policy.
	errDuplicate   error
	errAppNotFound error
	denialMu       sync.RWMutex
	denialCache    map[denialKey]error
	// codeLabels holds every error code this provider issues, 0
	// included, formatted once for the code label and span attr.
	codeLabels map[int]string
}

// denialKey interns one policy denial shape.
type denialKey struct{ policy, reason string }

// maxCachedDenials bounds the denial-error intern table.
const maxCachedDenials = 256

// opInstruments prebinds the success-path series for one operation so
// finish skips the per-call label lookup (a mutex plus a map probe) on
// the milking hot path. Error codes take the slow path — they are rare.
type opInstruments struct {
	ok      *obs.BoundCounter
	latency *obs.BoundHistogram
}

// Operation indices. begin and finish key instruments and span names by
// these rather than by the op's label string: on the milking hot path an
// array index replaces two string-map probes (and their hashing) per call.
const (
	opMe = iota
	opLike
	opUnlike
	opComment
	opPublish
	opFeed
	opFriends
	opLikes
	opComments
	numOps
)

// opNames maps each operation index to its metric label value.
var opNames = [numOps]string{"me", "like", "unlike", "comment", "publish", "feed", "friends", "likes", "comments"}

// spanNames maps each operation index to its span name, precomputed so
// begin does not concatenate (and so allocate) per call.
var spanNames = func() (n [numOps]string) {
	for i, op := range opNames {
		n[i] = "graphapi." + op
	}
	return
}()

// New wires an API speaking the given provider's dialect over its
// substrates: its error vocabulary, scope names, and batch cap. The
// provider should match the one the oauth server was built for — tokens
// minted in one format will not validate against another. internet may
// be nil, in which case ASN resolution is skipped. The API starts with an
// empty policy chain (see Chain).
func New(prov provider.Provider, clock simclock.Clock, graph *socialgraph.Store, oauth *oauthsim.Server, registry *apps.Registry, internet *netsim.Internet) *API {
	a := &API{
		clock:        clock,
		graph:        graph,
		oauth:        oauth,
		registry:     registry,
		internet:     internet,
		chain:        NewChain(),
		prov:         prov,
		provName:     prov.Name(),
		scopePublish: prov.ScopePublish(),
		scopeFriends: prov.ScopeFriends(),
		denialCache:  make(map[denialKey]error),
	}
	a.errDuplicate = a.errMsg(provider.KindDuplicate, "GraphMethodException", "duplicate like")
	a.errAppNotFound = a.errMsg(provider.KindInvalidToken, "OAuthException", "application not found")
	a.codeLabels = make(map[int]string)
	for k := provider.KindNone; k < provider.NumKinds; k++ {
		code := prov.ErrorCode(k)
		a.codeLabels[code] = strconv.Itoa(code)
	}
	return a
}

// codeLabel renders err's numeric code (0 for non-API errors) as a label
// value without formatting it per call.
func (a *API) codeLabel(err error) string {
	code := ErrCode(err)
	if s, ok := a.codeLabels[code]; ok {
		return s
	}
	return strconv.Itoa(code)
}

// SetObserver wires telemetry into the API: a span tree per request
// (graphapi.<op> → oauth.validate / defense.chain / shard.apply), request
// counters by op and error code, and per-op latency histograms. Policy
// denials also land in defense_actions_total so the countermeasure
// timeline (Figure 5) is reconstructable from /metrics alone.
func (a *API) SetObserver(o *obs.Observer) {
	a.obs = o
	a.reqCount = o.M().Counter("graphapi_requests_total",
		"Graph API calls, by platform, operation, and numeric error code (0 = success).",
		"platform", "op", "code")
	a.reqLatency = o.M().Histogram("graphapi_request_seconds",
		"Graph API call latency in seconds, by platform and operation.",
		nil, "platform", "op")
	a.defenseActions = o.M().Counter("defense_actions_total",
		"Defense actions taken, by countermeasure and action.",
		"countermeasure", "action")
	a.allocs = o.A()
	for op, name := range opNames {
		a.opInst[op] = opInstruments{
			ok:      a.reqCount.With(a.provName, name, "0"),
			latency: a.reqLatency.With(a.provName, name),
		}
	}
}

// begin opens the root span for one API call, reading the clock once. The
// returned context carries the span for the children authenticate,
// evaluate, and applyShard open.
func (a *API) begin(ctx context.Context, op int) (context.Context, *obs.Span, time.Time) {
	now := a.clock.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := a.obs.T().StartSpanAt(ctx, spanNames[op], now)
	return ctx, span, now
}

// finish closes the root span and records the request counter and latency
// sample. code 0 means success.
func (a *API) finish(span *obs.Span, op int, start time.Time, err error) {
	if a.obs == nil {
		return
	}
	end := a.clock.Now()
	if err == nil {
		inst := a.opInst[op]
		if span != nil {
			// Both fixed attrs land in one append: the root span's attrs
			// slice is allocated exactly once per call.
			span.SetAttr2("provider", a.provName, "code", "0")
			span.EndAt(end)
		}
		inst.ok.Inc()
		inst.latency.Observe(end.Sub(start).Seconds())
		return
	}
	code := a.codeLabel(err)
	span.SetAttr2("provider", a.provName, "code", code)
	span.EndAt(end)
	a.reqCount.Inc(a.provName, opNames[op], code)
	// The latency family's labels do not include the code, so the
	// success-path bound histogram serves denials and errors too — rate
	// limiting makes denials hot (every over-quota call lands here).
	a.opInst[op].latency.Observe(end.Sub(start).Seconds())
}

// evaluate runs the policy chain under a defense.chain span and counts
// denials as defense actions. req is a pointer purely to spare the hot
// path a second 144-byte Request copy; evaluate does not mutate it.
func (a *API) evaluate(ctx context.Context, req *Request) Decision {
	_, span := a.obs.T().StartSpanAt(ctx, "defense.chain", req.At)
	as := a.allocs.Begin(ctx, "defense.chain")
	d := a.chain.Evaluate(*req)
	as.End(1)
	if !d.Allow {
		span.SetAttr("policy", d.Policy)
		span.Event("deny", "reason", d.Reason)
		a.defenseActions.Inc(d.Policy, "deny")
	}
	span.EndAt(req.At)
	return d
}

// applyShard runs a social-graph write under a shard.apply span labelled
// with the stripe the written object routes to.
func (a *API) applyShard(ctx context.Context, at time.Time, objectID string, write func() error) error {
	_, span := a.obs.T().StartSpanAt(ctx, "shard.apply", at)
	if span != nil {
		span.SetAttr("shard", strconv.Itoa(a.graph.ShardIndexOf(objectID)))
	}
	as := a.allocs.Begin(ctx, "shard.apply")
	err := write()
	as.End(1)
	span.EndAt(at)
	return err
}

// Chain returns the policy chain, for countermeasure deployment.
func (a *API) Chain() *Chain { return a.chain }

// OAuth returns the underlying authorization server.
func (a *API) OAuth() *oauthsim.Server { return a.oauth }

// Registry returns the application registry.
func (a *API) Registry() *apps.Registry { return a.registry }

// CallContext carries per-call transport attributes. Ctx, when set,
// carries the caller's trace span so the request joins an existing trace;
// nil means a fresh trace (context.Background()).
type CallContext struct {
	Ctx            context.Context
	AccessToken    string
	AppSecretProof string
	SourceIP       string
}

// authenticate validates the bearer token and security settings, and
// builds the policy request skeleton: the attribution tuple filled from
// the token's grant. at is the request timestamp the caller already
// read from the clock.
func (a *API) authenticate(ctx context.Context, c CallContext, verb Verb, needScope string, at time.Time) (Request, error) {
	return a.authenticateMemo(ctx, c, verb, needScope, at, nil)
}

// authenticateMemo is authenticate with an optional batch-scoped lookup
// cache (nil for single calls). Token validation, the secret proof, and
// the scope check are always per call; only the registry read and the
// source-IP→AS resolution — reads whose result is identical for every
// op sharing an app or IP — go through the memo.
func (a *API) authenticateMemo(ctx context.Context, c CallContext, verb Verb, needScope string, at time.Time, memo *batchMemo) (Request, error) {
	_, span := a.obs.T().StartSpanAt(ctx, "oauth.validate", at)
	defer span.EndAt(at)
	info, err := a.oauth.Validate(c.AccessToken)
	if err != nil {
		span.Event("invalid-token")
		// The oauth server's denial errors are preformatted (sentinels or
		// per-token invalidation values), so Error() here is a field read.
		return Request{}, a.errMsg(provider.KindInvalidToken, "OAuthException", err.Error())
	}
	if span != nil {
		span.SetAttr("app", info.AppID)
		span.SetAttr("token", redact.Token(c.AccessToken))
	}
	var app *apps.App
	if memo != nil {
		app, err = memo.app(a.registry, info.AppID)
	} else {
		app = new(apps.App)
		err = a.registry.GetInto(info.AppID, app)
	}
	if err != nil {
		return Request{}, a.errAppNotFound
	}
	if app.Suspended {
		return Request{}, a.err(provider.KindAppSuspended, "OAuthException", "application %s is disabled", app.ID)
	}
	if err := oauthsim.VerifySecretProof(app, info.Token, c.AppSecretProof); err != nil {
		return Request{}, a.err(provider.KindSecretProof, "GraphMethodException", "%v", err)
	}
	if needScope != "" && !info.HasScope(needScope) {
		return Request{}, a.err(provider.KindPermission, "OAuthException", "requires %s permission", needScope)
	}
	req := Request{
		Verb:      verb,
		Token:     c.AccessToken,
		AccountID: info.AccountID,
		AppID:     info.AppID,
		SourceIP:  c.SourceIP,
		At:        at,
	}
	if a.internet != nil && c.SourceIP != "" {
		if memo != nil {
			if asn, ok := memo.asn(a.internet, c.SourceIP); ok {
				req.ASN = asn
			}
		} else if as, ok := a.internet.LookupASString(c.SourceIP); ok {
			req.ASN = as.Number
		}
	}
	return req, nil
}

// Me returns the public profile of the token's account.
func (a *API) Me(c CallContext) (_ socialgraph.Account, err error) {
	ctx, span, start := a.begin(c.Ctx, opMe)
	defer func() { a.finish(span, opMe, start, err) }()
	req, err := a.authenticate(ctx, c, VerbRead, "", start)
	if err != nil {
		return socialgraph.Account{}, err
	}
	acct, err := a.graph.Account(req.AccountID)
	if err != nil {
		return socialgraph.Account{}, a.err(provider.KindNotFound, "GraphMethodException", "account missing")
	}
	return acct, nil
}

// Like publishes a like on objectID on behalf of the token's account.
func (a *API) Like(c CallContext, objectID string) (err error) {
	ctx, span, start := a.begin(c.Ctx, opLike)
	defer func() { a.finish(span, opLike, start, err) }()
	span.SetAttr("object", objectID)
	req, err := a.authenticate(ctx, c, VerbLike, a.scopePublish, start)
	if err != nil {
		return err
	}
	req.ObjectID = objectID
	if d := a.evaluate(ctx, &req); !d.Allow {
		return a.denialError(d)
	}
	meta := socialgraph.WriteMeta{AppID: req.AppID, SourceIP: c.SourceIP, At: req.At}
	writeErr := a.applyShard(ctx, req.At, objectID, func() error {
		return a.graph.AddLike(req.AccountID, objectID, meta)
	})
	return a.likeWriteError(writeErr, objectID)
}

// likeWriteError maps a store-level like error to its Graph API error.
// Like and LikeBatch share this mapping so batched and sequential likes
// surface identical codes.
func (a *API) likeWriteError(writeErr error, objectID string) error {
	switch {
	case writeErr == nil:
		return nil
	case errors.Is(writeErr, socialgraph.ErrAlreadyLiked):
		return a.errDuplicate
	case errors.Is(writeErr, socialgraph.ErrInvalidReference), errors.Is(writeErr, socialgraph.ErrNotFound):
		return a.errMsg(provider.KindNotFound, "GraphMethodException", "unknown object "+objectID)
	default:
		return a.err(provider.KindInvalidParam, "GraphMethodException", "%v", writeErr)
	}
}

// Unlike removes the token account's like from an object — the write
// Facebook exposes as DELETE /{object}/likes. It is policy-checked like
// any other write.
func (a *API) Unlike(c CallContext, objectID string) (err error) {
	ctx, span, start := a.begin(c.Ctx, opUnlike)
	defer func() { a.finish(span, opUnlike, start, err) }()
	req, err := a.authenticate(ctx, c, VerbLike, a.scopePublish, start)
	if err != nil {
		return err
	}
	req.ObjectID = objectID
	if d := a.evaluate(ctx, &req); !d.Allow {
		return a.denialError(d)
	}
	writeErr := a.applyShard(ctx, req.At, objectID, func() error {
		return a.graph.RemoveLike(req.AccountID, objectID)
	})
	switch {
	case writeErr == nil:
		return nil
	case errors.Is(writeErr, socialgraph.ErrNotLiked):
		return a.err(provider.KindNotFound, "GraphMethodException", "no like to remove")
	default:
		return a.err(provider.KindInvalidParam, "GraphMethodException", "%v", writeErr)
	}
}

// Comment publishes a comment on a post on behalf of the token's account.
func (a *API) Comment(c CallContext, postID, message string) (_ socialgraph.Comment, err error) {
	ctx, span, start := a.begin(c.Ctx, opComment)
	defer func() { a.finish(span, opComment, start, err) }()
	span.SetAttr("object", postID)
	req, err := a.authenticate(ctx, c, VerbComment, a.scopePublish, start)
	if err != nil {
		return socialgraph.Comment{}, err
	}
	req.ObjectID = postID
	req.Message = message
	if d := a.evaluate(ctx, &req); !d.Allow {
		return socialgraph.Comment{}, a.denialError(d)
	}
	meta := socialgraph.WriteMeta{AppID: req.AppID, SourceIP: c.SourceIP, At: req.At}
	var cm socialgraph.Comment
	writeErr := a.applyShard(ctx, req.At, postID, func() error {
		var e error
		cm, e = a.graph.AddComment(req.AccountID, postID, message, meta)
		return e
	})
	switch {
	case writeErr == nil:
		return cm, nil
	case errors.Is(writeErr, socialgraph.ErrNotFound):
		return socialgraph.Comment{}, a.err(provider.KindNotFound, "GraphMethodException", "unknown post %s", postID)
	case errors.Is(writeErr, socialgraph.ErrEmptyMessage):
		return socialgraph.Comment{}, a.err(provider.KindInvalidParam, "GraphMethodException", "empty message")
	default:
		return socialgraph.Comment{}, a.err(provider.KindInvalidParam, "GraphMethodException", "%v", writeErr)
	}
}

// Publish creates a status update on the token account's timeline.
func (a *API) Publish(c CallContext, message string) (_ socialgraph.Post, err error) {
	ctx, span, start := a.begin(c.Ctx, opPublish)
	defer func() { a.finish(span, opPublish, start, err) }()
	req, err := a.authenticate(ctx, c, VerbPost, a.scopePublish, start)
	if err != nil {
		return socialgraph.Post{}, err
	}
	req.Message = message
	if d := a.evaluate(ctx, &req); !d.Allow {
		return socialgraph.Post{}, a.denialError(d)
	}
	meta := socialgraph.WriteMeta{AppID: req.AppID, SourceIP: c.SourceIP, At: req.At}
	p, err := a.graph.CreatePost(req.AccountID, message, meta)
	switch {
	case err == nil:
		return p, nil
	case errors.Is(err, socialgraph.ErrEmptyMessage):
		return socialgraph.Post{}, a.err(provider.KindInvalidParam, "GraphMethodException", "empty message")
	default:
		return socialgraph.Post{}, a.err(provider.KindInvalidParam, "GraphMethodException", "%v", err)
	}
}

// Feed lists the token account's own posts in creation order — the read
// that premium auto-delivery services poll to discover fresh posts to
// like without the member logging in (Sec. 5.1).
func (a *API) Feed(c CallContext) (_ []socialgraph.Post, err error) {
	ctx, span, start := a.begin(c.Ctx, opFeed)
	defer func() { a.finish(span, opFeed, start, err) }()
	req, err := a.authenticate(ctx, c, VerbRead, "", start)
	if err != nil {
		return nil, err
	}
	return a.graph.PostsByAuthor(req.AccountID), nil
}

// Friends lists the token account's friends. It requires the
// user_friends permission — the scope whose leakage turns token abuse
// into social-graph harvesting (Sec. 8).
func (a *API) Friends(c CallContext) (_ []socialgraph.Account, err error) {
	ctx, span, start := a.begin(c.Ctx, opFriends)
	defer func() { a.finish(span, opFriends, start, err) }()
	req, err := a.authenticate(ctx, c, VerbRead, a.scopeFriends, start)
	if err != nil {
		return nil, err
	}
	ids := a.graph.Friends(req.AccountID)
	out := make([]socialgraph.Account, 0, len(ids))
	for _, id := range ids {
		if acct, err := a.graph.Account(id); err == nil {
			out = append(out, acct)
		}
	}
	return out, nil
}

// Likes lists the likes on an object (a public read).
func (a *API) Likes(c CallContext, objectID string) (_ []socialgraph.Like, err error) {
	ctx, span, start := a.begin(c.Ctx, opLikes)
	defer func() { a.finish(span, opLikes, start, err) }()
	if _, err = a.authenticate(ctx, c, VerbRead, "", start); err != nil {
		return nil, err
	}
	return a.graph.Likes(objectID), nil
}

// LikesPage lists one page of likes on an object starting at the cursor
// position after, returning the next cursor and whether more likes
// remain. Cursors are arrival-sequence positions, stable across
// retention sweeps and like purges (see socialgraph.Store.LikesPage).
func (a *API) LikesPage(c CallContext, objectID string, after, limit int) (page []socialgraph.Like, next int, more bool, err error) {
	ctx, span, start := a.begin(c.Ctx, opLikes)
	defer func() { a.finish(span, opLikes, start, err) }()
	if _, err = a.authenticate(ctx, c, VerbRead, "", start); err != nil {
		return nil, 0, false, err
	}
	page, next, more = a.graph.LikesPage(objectID, after, limit)
	return page, next, more, nil
}

// CommentsPage lists one page of comments on a post; cursor semantics
// match LikesPage.
func (a *API) CommentsPage(c CallContext, postID string, after, limit int) (page []socialgraph.Comment, next int, more bool, err error) {
	ctx, span, start := a.begin(c.Ctx, opComments)
	defer func() { a.finish(span, opComments, start, err) }()
	if _, err = a.authenticate(ctx, c, VerbRead, "", start); err != nil {
		return nil, 0, false, err
	}
	page, next, more = a.graph.CommentsPage(postID, after, limit)
	return page, next, more, nil
}

// denialError maps a policy denial to an API error. Denials are the
// common case once a defense engages — a throttled collusion network is
// denied on nearly every request — so the errors are interned by
// (policy, reason): the rate limiters preformat their reasons, giving a
// handful of distinct shapes that hit the cache after first build. The
// table is bounded at maxCachedDenials so a policy that embeds
// per-request detail in its reason (e.g. the AS blocker naming the app)
// degrades to allocating, never to unbounded growth.
func (a *API) denialError(d Decision) error {
	key := denialKey{policy: d.Policy, reason: d.Reason}
	a.denialMu.RLock()
	err, ok := a.denialCache[key]
	a.denialMu.RUnlock()
	if ok {
		return err
	}
	k := provider.KindBlocked
	if d.Policy == "token-rate-limit" || d.Policy == "ip-rate-limit" {
		k = provider.KindRateLimited
	}
	err = a.err(k, "PolicyException", "denied by %s: %s", d.Policy, d.Reason)
	a.denialMu.Lock()
	if cached, ok := a.denialCache[key]; ok {
		err = cached
	} else if len(a.denialCache) < maxCachedDenials {
		a.denialCache[key] = err
	}
	a.denialMu.Unlock()
	return err
}
