// Package oauthsim implements the platform's OAuth 2.0 authorization
// server, modelled on Facebook's dialect of RFC 6749 as described in
// Section 2 of the paper.
//
// Two grant flows are supported:
//
//   - the implicit (client-side) flow, response_type=token: the access
//     token is returned in the redirect URI fragment, visible to the
//     browser — this is the flow collusion networks walk their members
//     through ("copy the token from the address bar");
//   - the authorization-code (server-side) flow, response_type=code: the
//     browser only sees a one-time code, which the application server
//     exchanges for a token by authenticating with the application secret.
//
// Token lifetimes follow the app's class (short-term 1–2 h, long-term
// ~2 months). Tokens can be invalidated out of band — the paper's central
// countermeasure (Sec. 6.2) — and validation reports *why* a token is
// rejected so experiments can distinguish expiry from invalidation.
package oauthsim

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/redact"
	"repro/internal/secrets"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// Errors returned by the authorization server.
var (
	ErrUnknownApp          = errors.New("oauthsim: unknown application")
	ErrAppSuspended        = errors.New("oauthsim: application suspended")
	ErrRedirectMismatch    = errors.New("oauthsim: redirect_uri does not match application settings")
	ErrClientFlowDisabled  = errors.New("oauthsim: client-side flow disabled for application")
	ErrScopeNotApproved    = errors.New("oauthsim: requested scope not approved for application")
	ErrUnknownAccount      = errors.New("oauthsim: unknown account")
	ErrAccountSuspended    = errors.New("oauthsim: account suspended")
	ErrBadResponseType     = errors.New("oauthsim: unsupported response_type")
	ErrInvalidCode         = errors.New("oauthsim: invalid or expired authorization code")
	ErrBadSecret           = errors.New("oauthsim: application secret mismatch")
	ErrTokenNotFound       = errors.New("oauthsim: unknown access token")
	ErrTokenExpired        = errors.New("oauthsim: access token expired")
	ErrTokenInvalidated    = errors.New("oauthsim: access token invalidated")
	ErrBadSecretProof      = errors.New("oauthsim: invalid appsecret_proof")
	ErrSecretProofRequired = errors.New("oauthsim: appsecret_proof required")
	ErrFlowUnsupported     = errors.New("oauthsim: grant flow not offered by this provider")
)

// codeLifetime bounds how long an authorization code may sit unexchanged.
const codeLifetime = 10 * time.Minute

// ResponseType selects the OAuth grant flow.
type ResponseType string

// Supported response types.
const (
	ResponseToken ResponseType = "token" // implicit / client-side flow
	ResponseCode  ResponseType = "code"  // authorization-code / server-side flow
)

// TokenInfo is the server-side record of an issued access token.
type TokenInfo struct {
	Token     string
	AccountID string
	AppID     string
	// Scopes is built once at issuance and read-only thereafter; Validate
	// hands the same backing array to every caller. Callers must not
	// mutate it — the copy-per-validation this replaces was a third of
	// the like pipeline's allocation count.
	Scopes    []string
	IssuedAt  time.Time
	ExpiresAt time.Time
	// Invalidated is non-zero when the token was administratively revoked;
	// Reason records the countermeasure responsible.
	Invalidated   bool
	InvalidReason string

	// invalidErr is the preformatted Validate error for a revoked token,
	// built once at invalidation so the (very hot, post-intervention)
	// invalidated-token denial allocates nothing per call.
	invalidErr error
}

// HasScope reports whether the token grants the permission.
func (t TokenInfo) HasScope(scope string) bool {
	for _, s := range t.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// AuthorizeRequest is a user's arrival at the authorization dialog, already
// authenticated as AccountID (the platform knows who is logged in).
type AuthorizeRequest struct {
	AppID        string
	RedirectURI  string
	ResponseType ResponseType
	Scopes       []string
	AccountID    string
	// State is the client's opaque CSRF token (RFC 6749 §10.12); it is
	// echoed back verbatim on the redirect. Its absence in real
	// integrations was one of the OAuth weaknesses the related work
	// (Shernan et al.) catalogued.
	State string
}

// AuthorizeResult carries the artifact delivered on the redirect URI:
// either an access token (implicit flow) or an authorization code.
type AuthorizeResult struct {
	// AccessToken is set for the implicit flow. This is the value that
	// appears in the URL fragment and that collusion network members copy
	// out of the address bar.
	AccessToken string
	// Code is set for the server-side flow.
	Code string
	// ExpiresIn is the token lifetime in seconds (implicit flow only).
	ExpiresIn int64
	// State echoes the request's CSRF token.
	State string
}

type authCode struct {
	code      string
	appID     string
	accountID string
	scopes    []string
	redirect  string
	expiresAt time.Time
}

// Server is the authorization server. It is safe for concurrent use.
type Server struct {
	clock simclock.Clock
	prov  provider.Provider
	apps  *apps.Registry
	graph *socialgraph.Store

	mu     sync.RWMutex
	tokens map[string]*TokenInfo
	// byAccount indexes live token strings per account for bulk
	// invalidation (Sec. 6.2 invalidates all tokens of milked accounts).
	byAccount map[string]map[string]bool
	codes     map[string]authCode

	// Telemetry, wired by SetObserver; nil-safe no-ops until then.
	obs         *obs.Observer
	issued      *obs.CounterVec // oauth_tokens_issued_total{app}
	invalidated *obs.CounterVec // oauth_tokens_invalidated_total{reason}
}

// NewServer returns an authorization server bound to the app registry
// and account store, speaking the given provider's dialect: its token
// wire format and its grant-flow menu (a provider without the implicit
// flow refuses response_type=token outright, regardless of per-app
// settings).
func NewServer(prov provider.Provider, clock simclock.Clock, registry *apps.Registry, graph *socialgraph.Store) *Server {
	return &Server{
		clock:     clock,
		prov:      prov,
		apps:      registry,
		graph:     graph,
		tokens:    make(map[string]*TokenInfo),
		byAccount: make(map[string]map[string]bool),
		codes:     make(map[string]authCode),
	}
}

// SetObserver wires telemetry: token grant/revocation counters and a span
// per issued token (the root of the oauth → graphapi trace when issuance
// itself is what's being followed).
func (s *Server) SetObserver(o *obs.Observer) {
	s.obs = o
	s.issued = o.M().Counter("oauth_tokens_issued_total",
		"Access tokens issued, by application.", "app")
	s.invalidated = o.M().Counter("oauth_tokens_invalidated_total",
		"Access tokens administratively revoked, by reason.", "reason")
}

// Authorize processes an authorization-dialog approval and returns the
// redirect artifact. It enforces the application's security settings: the
// implicit flow is refused when ClientFlowEnabled is off.
func (s *Server) Authorize(req AuthorizeRequest) (AuthorizeResult, error) {
	app, err := s.apps.Get(req.AppID)
	if err != nil {
		return AuthorizeResult{}, ErrUnknownApp
	}
	if app.Suspended {
		return AuthorizeResult{}, ErrAppSuspended
	}
	if req.RedirectURI != app.RedirectURI {
		return AuthorizeResult{}, fmt.Errorf("%w: got %q", ErrRedirectMismatch, req.RedirectURI)
	}
	for _, scope := range req.Scopes {
		if !app.HasPermission(scope) {
			return AuthorizeResult{}, fmt.Errorf("%w: %q", ErrScopeNotApproved, scope)
		}
	}
	account, err := s.graph.Account(req.AccountID)
	if err != nil {
		return AuthorizeResult{}, ErrUnknownAccount
	}
	if account.Suspended {
		return AuthorizeResult{}, ErrAccountSuspended
	}

	switch req.ResponseType {
	case ResponseToken:
		if !s.prov.Supports(provider.FlowImplicit) {
			return AuthorizeResult{}, fmt.Errorf("%w: implicit", ErrFlowUnsupported)
		}
		if !app.ClientFlowEnabled {
			return AuthorizeResult{}, ErrClientFlowDisabled
		}
		info := s.issue(account.ID, app, req.Scopes)
		return AuthorizeResult{
			AccessToken: info.Token,
			ExpiresIn:   int64(info.ExpiresAt.Sub(info.IssuedAt) / time.Second),
			State:       req.State,
		}, nil
	case ResponseCode:
		if !s.prov.Supports(provider.FlowCode) {
			return AuthorizeResult{}, fmt.Errorf("%w: code", ErrFlowUnsupported)
		}
		code := ids.NewSecret()
		s.mu.Lock()
		s.codes[code] = authCode{
			code:      code,
			appID:     app.ID,
			accountID: account.ID,
			scopes:    append([]string(nil), req.Scopes...),
			redirect:  req.RedirectURI,
			expiresAt: s.clock.Now().Add(codeLifetime),
		}
		s.mu.Unlock()
		return AuthorizeResult{Code: code, State: req.State}, nil
	default:
		return AuthorizeResult{}, fmt.Errorf("%w: %q", ErrBadResponseType, req.ResponseType)
	}
}

// ExchangeCode implements the server-side token endpoint: the application
// authenticates with its secret and swaps the one-time code for a token.
func (s *Server) ExchangeCode(appID, appSecret, redirectURI, code string) (TokenInfo, error) {
	app, err := s.apps.Get(appID)
	if err != nil {
		return TokenInfo{}, ErrUnknownApp
	}
	if app.Suspended {
		return TokenInfo{}, ErrAppSuspended
	}
	if subtleNeq(appSecret, app.Secret) {
		return TokenInfo{}, ErrBadSecret
	}
	s.mu.Lock()
	ac, ok := s.codes[code]
	if ok {
		delete(s.codes, code) // single use
	}
	s.mu.Unlock()
	if !ok || ac.appID != appID || ac.redirect != redirectURI {
		return TokenInfo{}, ErrInvalidCode
	}
	if s.clock.Now().After(ac.expiresAt) {
		return TokenInfo{}, ErrInvalidCode
	}
	info := s.issue(ac.accountID, app, ac.scopes)
	return info, nil
}

// ExchangeForLongLived swaps a valid token for a long-term (~60 day) one
// — Facebook's grant_type=fb_exchange_token. The request authenticates
// with the application secret, so only the app's own server can extend
// its tokens; leaked client-side tokens cannot be extended by attackers
// who lack the secret. The original token remains valid until its own
// expiry.
func (s *Server) ExchangeForLongLived(appID, appSecret, token string) (TokenInfo, error) {
	app, err := s.apps.Get(appID)
	if err != nil {
		return TokenInfo{}, ErrUnknownApp
	}
	if app.Suspended {
		return TokenInfo{}, ErrAppSuspended
	}
	if subtleNeq(appSecret, app.Secret) {
		return TokenInfo{}, ErrBadSecret
	}
	info, err := s.Validate(token)
	if err != nil {
		return TokenInfo{}, err
	}
	if info.AppID != appID {
		return TokenInfo{}, fmt.Errorf("%w: token belongs to another application", ErrTokenNotFound)
	}
	now := s.clock.Now()
	long := &TokenInfo{
		Token:     s.prov.MintToken(),
		AccountID: info.AccountID,
		AppID:     appID,
		Scopes:    append([]string(nil), info.Scopes...),
		IssuedAt:  now,
		ExpiresAt: now.Add(apps.LongTermDuration),
	}
	s.mu.Lock()
	s.tokens[long.Token] = long
	acct := s.byAccount[long.AccountID]
	if acct == nil {
		acct = make(map[string]bool)
		s.byAccount[long.AccountID] = acct
	}
	acct[long.Token] = true
	s.mu.Unlock()
	s.noteIssued(appID, long.Token, "long-lived")
	out := *long
	out.Scopes = append([]string(nil), long.Scopes...)
	return out, nil
}

// noteIssued records one token grant: a counter bump and an oauth.issue
// span carrying the app and the redacted token prefix.
func (s *Server) noteIssued(appID, token, grant string) {
	if s.obs == nil {
		return
	}
	s.issued.Inc(appID)
	_, span := s.obs.T().StartSpan(nil, "oauth.issue")
	span.SetAttr("app", appID)
	span.SetAttr("grant", grant)
	span.SetAttr("token", redact.Token(token))
	span.End()
}

// issue mints and records a token for the account/app pair.
func (s *Server) issue(accountID string, app apps.App, scopes []string) TokenInfo {
	now := s.clock.Now()
	info := &TokenInfo{
		Token:     s.prov.MintToken(),
		AccountID: accountID,
		AppID:     app.ID,
		Scopes:    append([]string(nil), scopes...),
		IssuedAt:  now,
		ExpiresAt: now.Add(app.Lifetime.Duration()),
	}
	s.mu.Lock()
	s.tokens[info.Token] = info
	acct := s.byAccount[accountID]
	if acct == nil {
		acct = make(map[string]bool)
		s.byAccount[accountID] = acct
	}
	acct[info.Token] = true
	s.mu.Unlock()
	s.noteIssued(app.ID, info.Token, "user")
	return *info
}

// Validate checks a bearer token and returns its record. The error
// distinguishes unknown, expired, and invalidated tokens. A token that
// fails the provider's surface format check is rejected as unknown
// before any state is consulted — the check is alloc-free, so this
// stays off the validation allocation budget.
func (s *Server) Validate(token string) (TokenInfo, error) {
	if s.prov.CheckToken(token) != nil {
		return TokenInfo{}, ErrTokenNotFound
	}
	s.mu.RLock()
	info, ok := s.tokens[token]
	s.mu.RUnlock()
	if !ok {
		return TokenInfo{}, ErrTokenNotFound
	}
	if info.Invalidated {
		if info.invalidErr != nil {
			return TokenInfo{}, info.invalidErr
		}
		return TokenInfo{}, ErrTokenInvalidated
	}
	if s.clock.Now().After(info.ExpiresAt) {
		return TokenInfo{}, ErrTokenExpired
	}
	// The returned record shares the issuance-time Scopes array (see
	// TokenInfo); validation itself allocates nothing.
	return *info, nil
}

// Invalidate administratively revokes a token. Revoking an unknown token is
// a no-op and reports false.
func (s *Server) Invalidate(token, reason string) bool {
	s.mu.Lock()
	info, ok := s.tokens[token]
	if !ok || info.Invalidated {
		s.mu.Unlock()
		return false
	}
	info.Invalidated = true
	info.InvalidReason = reason
	info.invalidErr = fmt.Errorf("%w (%s)", ErrTokenInvalidated, reason)
	s.mu.Unlock()
	s.invalidated.Inc(reason)
	return true
}

// InvalidateAccount revokes every live token of an account and returns how
// many were revoked.
func (s *Server) InvalidateAccount(accountID, reason string) int {
	s.mu.Lock()
	n := 0
	var invalidErr error // shared by every token revoked for this reason
	for token := range s.byAccount[accountID] {
		info := s.tokens[token]
		if info != nil && !info.Invalidated {
			if invalidErr == nil {
				invalidErr = fmt.Errorf("%w (%s)", ErrTokenInvalidated, reason)
			}
			info.Invalidated = true
			info.InvalidReason = reason
			info.invalidErr = invalidErr
			n++
		}
	}
	s.mu.Unlock()
	if n > 0 {
		s.invalidated.Add(int64(n), reason)
	}
	return n
}

// SecretProof computes the appsecret_proof for a token: an HMAC-SHA256 of
// the token keyed with the application secret, hex encoded (Facebook's
// "Securing Graph API Requests" scheme referenced in Sec. 6).
func SecretProof(appSecret, token string) string {
	mac := hmac.New(sha256.New, []byte(appSecret))
	mac.Write([]byte(token))
	return hex.EncodeToString(mac.Sum(nil))
}

// VerifySecretProof checks a presented proof against the app's secret. A
// missing proof is only an error when the app requires it.
func (s *Server) VerifySecretProof(info TokenInfo, proof string) error {
	app, err := s.apps.Get(info.AppID)
	if err != nil {
		return ErrUnknownApp
	}
	if proof == "" {
		if app.RequireAppSecret {
			return ErrSecretProofRequired
		}
		return nil
	}
	want := SecretProof(app.Secret, info.Token)
	if !secrets.Equal(want, proof) {
		return ErrBadSecretProof
	}
	return nil
}

// LiveTokenCount reports how many unexpired, unrevoked tokens exist; used
// by experiments to track pool replenishment.
func (s *Server) LiveTokenCount() int {
	now := s.clock.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, info := range s.tokens {
		if !info.Invalidated && !now.After(info.ExpiresAt) {
			n++
		}
	}
	return n
}

// subtleNeq reports whether two strings differ, in constant time.
func subtleNeq(a, b string) bool {
	return !secrets.Equal(a, b)
}
