// Package platform is the composition root of the simulated social
// network: it wires the social graph, the application registry, the OAuth
// authorization server, the Graph API, the Internet model, and the policy
// chain into one object, and exposes the platform both as an in-process
// API and over real HTTP.
//
// Collusion networks, honeypots, and the scanner all talk to the platform
// through the Client interface. Two implementations exist with identical
// semantics: LocalClient (direct calls; used by the large-scale
// experiments) and HTTPClient (real HTTP round trips; used by examples,
// integration tests, and the scanner). Both funnel into the same
// graphapi.API, so every countermeasure sees the same request tuples
// regardless of transport.
package platform

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/graphapi"
	"repro/internal/netsim"
	"repro/internal/oauthsim"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// ErrorCode is graphapi.ErrCode: both Client transports return Graph API
// errors as *graphapi.APIError.
func ErrorCode(err error) int { return graphapi.ErrCode(err) }

// Platform aggregates all platform-side subsystems.
type Platform struct {
	Clock    simclock.Clock
	Provider provider.Provider
	Graph    *socialgraph.Store
	Apps     *apps.Registry
	OAuth    *oauthsim.Server
	API      *graphapi.API
	Internet *netsim.Internet
	Obs      *obs.Observer
}

// Config picks a platform's dialect and sizes its social graph.
type Config struct {
	// Provider is the dialect: token format, grant flows, scopes, error
	// vocabulary, and batch cap. Required.
	Provider provider.Provider
	// Shards is the social graph's lock-stripe count; <= 0 selects the
	// GOMAXPROCS-scaled default (see socialgraph.New).
	Shards int
	// AccountHint presizes the social graph's account-keyed maps for that
	// many accounts, so the scale workload builds million-account graphs
	// without incremental map growth.
	AccountHint int
}

// New assembles a default-provider platform with the default stripe
// count. internet may be nil to skip AS resolution.
func New(clock simclock.Clock, internet *netsim.Internet) *Platform {
	return NewWithConfig(clock, internet, Config{Provider: provider.Default()})
}

// NewWithConfig assembles a platform as cfg describes. internet may be
// nil to skip AS resolution.
func NewWithConfig(clock simclock.Clock, internet *netsim.Internet, cfg Config) *Platform {
	prov := cfg.Provider
	graph := socialgraph.New(cfg.Shards, cfg.AccountHint)
	registry := apps.NewRegistry()
	oauth := oauthsim.NewServer(prov, clock, registry, graph)
	api := graphapi.New(prov, clock, graph, oauth, registry, internet)
	observer := obs.New(clock, prov.Name())
	api.SetObserver(observer)
	oauth.SetObserver(observer)
	registerGraphCollectors(observer, graph)
	return &Platform{
		Clock:    clock,
		Provider: prov,
		Graph:    graph,
		Apps:     registry,
		OAuth:    oauth,
		API:      api,
		Internet: internet,
		Obs:      observer,
	}
}

// registerGraphCollectors exports the store's per-shard lock counters at
// scrape time, so the contention the sharding PR measured in test logs is
// a first-class /metrics family.
func registerGraphCollectors(o *obs.Observer, graph *socialgraph.Store) {
	o.M().Collector("socialgraph_shard_lock_total",
		"Shard lock acquisitions, by stripe and outcome (fast = uncontended try-lock, contended = blocked).",
		obs.KindCounter, []string{"shard", "outcome"},
		func() []obs.Sample {
			points := graph.Contention().Snapshot()
			out := make([]obs.Sample, 0, 2*len(points))
			for _, pt := range points {
				shard := strconv.Itoa(pt.Shard)
				out = append(out,
					obs.Sample{Labels: []string{shard, "contended"}, Value: float64(pt.Contended)},
					obs.Sample{Labels: []string{shard, "fast"}, Value: float64(pt.Acquired - pt.Contended)},
				)
			}
			return out
		})
	o.M().Collector("socialgraph_retention_sweeps_total",
		"Retention sweeps completed.",
		obs.KindCounter, nil,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(graph.Retention().Sweeps)}}
		})
	o.M().Collector("socialgraph_retention_evicted_total",
		"Edge-history entries evicted by retention sweeps, by class.",
		obs.KindCounter, []string{"class"},
		func() []obs.Sample {
			snap := graph.Retention()
			return []obs.Sample{
				{Labels: []string{"like"}, Value: float64(snap.Likes)},
				{Labels: []string{"comment"}, Value: float64(snap.Comments)},
				{Labels: []string{"activity"}, Value: float64(snap.Activities)},
			}
		})
	o.M().Collector("socialgraph_retained_edges",
		"Currently retained edge-history entries, by class. With a finite retention window this gauge plateaus under steady load.",
		obs.KindGauge, []string{"class"},
		func() []obs.Sample {
			st := graph.RetainedEdges()
			return []obs.Sample{
				{Labels: []string{"like"}, Value: float64(st.Likes)},
				{Labels: []string{"comment"}, Value: float64(st.Comments)},
				{Labels: []string{"activity"}, Value: float64(st.Activities)},
			}
		})
}

// Handler returns the platform's HTTP surface, wrapped in the
// observability middleware (per-endpoint request counts and latency,
// trace joining via the X-Trace-Id header).
func (p *Platform) Handler() http.Handler {
	return p.Obs.Middleware(graphapi.Handler(p.API), "graphapi", graphapi.NormalizeEndpoint)
}

// ServeHTTPTest starts an httptest server for the platform. The caller
// owns the returned server and must Close it.
func (p *Platform) ServeHTTPTest() *httptest.Server {
	return httptest.NewServer(p.Handler())
}

// Chain returns the policy chain for countermeasure deployment.
func (p *Platform) Chain() *graphapi.Chain {
	return p.API.Chain()
}

// LikeRecord is a transport-neutral view of one like. The json tags name
// the fields of a likes page entry, so HTTPClient decodes straight into
// it; the same holds for Profile.
type LikeRecord struct {
	AccountID string    `json:"id"`
	At        time.Time `json:"time"`
}

// Profile is a transport-neutral view of /me.
type Profile struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Country string `json:"country"`
}

// Client is the platform operation surface collusion networks,
// honeypots and the Section 8 attacks use. ip is the source address the
// call should appear to originate from ("" lets the transport decide).
// Writes take a context first: the span it carries (if any; it may be
// nil) becomes the parent of the platform-side span tree — LocalClient
// passes it through CallContext.Ctx, HTTPClient in the X-Trace-Id /
// X-Parent-Span headers.
type Client interface {
	// AuthorizeImplicit walks the implicit OAuth flow for the given app on
	// behalf of accountID and returns the leaked access token. redirectURI
	// must match the app's configured redirection endpoint — clients learn
	// it out of band (collusion networks hardcode the install link).
	AuthorizeImplicit(appID, redirectURI, accountID string, scopes []string) (string, error)
	// AuthorizeCode walks the dialog with response_type=code and returns
	// the one-time authorization code from the redirect. Providers without
	// an implicit flow — the ones whose tokens cannot be milked from a
	// redirect fragment — are reachable only this way, so a cross-platform
	// collusion network needs a companion app (and its secret) on such a
	// platform to pool tokens there.
	AuthorizeCode(appID, redirectURI, accountID string, scopes []string) (string, error)
	// ExchangeCode swaps the code for an access token at the token
	// endpoint, authenticating with the application secret.
	ExchangeCode(appID, appSecret, redirectURI, code string) (string, error)
	// Me returns the profile of the token's account.
	Me(token, ip string) (Profile, error)
	// LikeCtx publishes a like.
	LikeCtx(ctx context.Context, token, objectID, ip string) error
	// LikeBatch delivers a burst of likes on one object in one call. The
	// result is one error per op, aligned by index (nil = delivered), with
	// semantics identical to N sequential LikeCtx calls — each op is still
	// policy-checked on its own token and IP.
	LikeBatch(ctx context.Context, objectID string, ops []BatchLike) []error
	// CommentCtx publishes a comment and returns its ID.
	CommentCtx(ctx context.Context, token, postID, message, ip string) (string, error)
	// Publish creates a status update and returns the post ID.
	Publish(token, message, ip string) (string, error)
	// LikesOf lists likes on an object.
	LikesOf(token, objectID string) ([]LikeRecord, error)
	// FriendsOf lists the token account's friends (requires the
	// user_friends scope; used by the Section 8 harvesting attack).
	FriendsOf(token, ip string) ([]Profile, error)
}

// BatchLike is one like in a homogeneous batch; both transports take
// the Graph API's own op.
type BatchLike = graphapi.BatchLikeOp

// LocalClient implements Client with direct in-process calls.
type LocalClient struct {
	p *Platform
}

// NewLocalClient returns a Client bound directly to the platform.
func NewLocalClient(p *Platform) *LocalClient {
	return &LocalClient{p: p}
}

// authorize walks the in-process dialog with the given response type.
// Authorize returns a zero result with every error.
func (c *LocalClient) authorize(appID, redirectURI, accountID string, scopes []string, rt oauthsim.ResponseType) (oauthsim.AuthorizeResult, error) {
	return c.p.OAuth.Authorize(oauthsim.AuthorizeRequest{
		AppID:        appID,
		RedirectURI:  redirectURI,
		ResponseType: rt,
		Scopes:       scopes,
		AccountID:    accountID,
	})
}

// AuthorizeImplicit implements Client.
func (c *LocalClient) AuthorizeImplicit(appID, redirectURI, accountID string, scopes []string) (string, error) {
	res, err := c.authorize(appID, redirectURI, accountID, scopes, oauthsim.ResponseToken)
	return res.AccessToken, err
}

// AuthorizeCode implements Client with a direct dialog call.
func (c *LocalClient) AuthorizeCode(appID, redirectURI, accountID string, scopes []string) (string, error) {
	res, err := c.authorize(appID, redirectURI, accountID, scopes, oauthsim.ResponseCode)
	return res.Code, err
}

// ExchangeCode implements Client against the in-process token endpoint.
func (c *LocalClient) ExchangeCode(appID, appSecret, redirectURI, code string) (string, error) {
	info, err := c.p.OAuth.ExchangeCode(appID, appSecret, redirectURI, code)
	if err != nil {
		return "", err
	}
	return info.Token, nil
}

// Me implements Client.
func (c *LocalClient) Me(token, ip string) (Profile, error) {
	acct, err := c.p.API.Me(graphapi.CallContext{AccessToken: token, SourceIP: ip})
	if err != nil {
		return Profile{}, err
	}
	return Profile{ID: acct.ID, Name: acct.Name, Country: acct.Country}, nil
}

// LikeCtx implements Client: the like joins the trace carried by ctx.
func (c *LocalClient) LikeCtx(ctx context.Context, token, objectID, ip string) error {
	return c.p.API.Like(graphapi.CallContext{Ctx: ctx, AccessToken: token, SourceIP: ip}, objectID)
}

// LikeBatch implements Client with one direct call into the API's
// batched like endpoint.
func (c *LocalClient) LikeBatch(ctx context.Context, objectID string, ops []BatchLike) []error {
	return c.p.API.LikeBatch(ctx, objectID, ops)
}

// CommentCtx implements Client.
func (c *LocalClient) CommentCtx(ctx context.Context, token, postID, message, ip string) (string, error) {
	cm, err := c.p.API.Comment(graphapi.CallContext{Ctx: ctx, AccessToken: token, SourceIP: ip}, postID, message)
	if err != nil {
		return "", err
	}
	return cm.ID, nil
}

// Publish implements Client.
func (c *LocalClient) Publish(token, message, ip string) (string, error) {
	p, err := c.p.API.Publish(graphapi.CallContext{AccessToken: token, SourceIP: ip}, message)
	if err != nil {
		return "", err
	}
	return p.ID, nil
}

// LikesOf implements Client.
func (c *LocalClient) LikesOf(token, objectID string) ([]LikeRecord, error) {
	likes, err := c.p.API.Likes(graphapi.CallContext{AccessToken: token}, objectID)
	if err != nil {
		return nil, err
	}
	out := make([]LikeRecord, len(likes))
	for i, l := range likes {
		out[i] = LikeRecord{AccountID: l.AccountID, At: l.At}
	}
	return out, nil
}

// FriendsOf implements Client.
func (c *LocalClient) FriendsOf(token, ip string) ([]Profile, error) {
	friends, err := c.p.API.Friends(graphapi.CallContext{AccessToken: token, SourceIP: ip})
	if err != nil {
		return nil, err
	}
	out := make([]Profile, len(friends))
	for i, f := range friends {
		out[i] = Profile{ID: f.ID, Name: f.Name, Country: f.Country}
	}
	return out, nil
}
