// Package provider makes the platform identity explicit. The paper
// studies collusion networks against a single social network (Facebook's
// OAuth dialect and Graph API error space), but the milking economy it
// documents is platform-agnostic: what varies per platform is the token
// wire format, which OAuth grant flows exist (the implicit-flow leak that
// enables milking exists on some providers and not others — see USPFO in
// PAPERS.md), the scope vocabulary, the numeric error space, and the batch
// cap of the API.
//
// A Provider bundles exactly those per-platform facts. The rest of the
// stack (oauthsim, graphapi, platform) is written against this interface;
// the Facebook-style provider is the default and maps the canonical error
// kinds onto the exact constants the reproduction has always used, so
// default-provider behavior is bit-for-bit unchanged.
package provider

import (
	"errors"
	"sort"
)

// Flow is an OAuth 2.0 grant flow a provider may support.
type Flow int

// Grant flows.
const (
	// FlowImplicit is the client-side flow (response_type=token): the
	// access token rides in the redirect fragment, visible to the browser
	// — the flow collusion networks milk.
	FlowImplicit Flow = iota
	// FlowCode is the authorization-code flow (response_type=code): the
	// browser sees only a one-time code; the token is exchanged
	// server-side with the application secret. Not milkable.
	FlowCode
)

// String names the flow.
func (f Flow) String() string {
	if f == FlowCode {
		return "code"
	}
	return "implicit"
}

// ErrKind is the canonical, provider-neutral classification of an API
// error. Operations inside graphapi decide a kind; the provider maps the
// kind into its own numeric code and type string at the edge. Collusion
// delivery engines dispatch on kinds, never on provider codes, so one
// engine drives every platform.
type ErrKind int

// Canonical error kinds.
const (
	KindNone ErrKind = iota
	KindInvalidToken
	KindSecretProof
	KindPermission
	KindRateLimited
	KindBlocked
	KindNotFound
	KindDuplicate
	KindInvalidParam
	KindAppSuspended

	// NumKinds is one past the last kind, so a loop to it covers every
	// kind; a new kind goes above it.
	NumKinds
)

// String names the kind for diagnostics.
func (k ErrKind) String() string {
	switch k {
	case KindInvalidToken:
		return "invalid-token"
	case KindSecretProof:
		return "secret-proof"
	case KindPermission:
		return "permission"
	case KindRateLimited:
		return "rate-limited"
	case KindBlocked:
		return "blocked"
	case KindNotFound:
		return "not-found"
	case KindDuplicate:
		return "duplicate"
	case KindInvalidParam:
		return "invalid-param"
	case KindAppSuspended:
		return "app-suspended"
	default:
		return "none"
	}
}

// ErrBadTokenFormat reports a token that fails the provider's surface
// format check before any server state is consulted.
var ErrBadTokenFormat = errors.New("provider: malformed access token")

// Provider is one social platform's identity: token format, grant flows,
// scope names, error vocabulary, and batch cap.
type Provider interface {
	// Name is the provider's registry key and metric label value.
	Name() string
	// MintToken returns a fresh access token in the provider's wire
	// format. Tokens are opaque to clients; only the issuing provider
	// may parse them.
	MintToken() string
	// CheckToken validates the surface shape of a token (prefix,
	// structure, checksum) without consulting server state. It must not
	// allocate on either outcome — it sits on the per-request validation
	// hot path — and returns ErrBadTokenFormat (or a wrapped sentinel)
	// on malformed input.
	CheckToken(token string) error
	// Supports reports whether the provider offers the grant flow.
	Supports(f Flow) bool
	// ScopePublish is the provider's name for the write permission that
	// lets an app like/comment/post on the user's behalf.
	ScopePublish() string
	// ScopeFriends is the provider's name for the social-graph read
	// permission (Sec. 8 harvesting).
	ScopeFriends() string
	// ErrorCode maps a canonical kind into the provider's numeric error
	// space.
	ErrorCode(k ErrKind) int
	// ErrorType maps a canonical kind into the provider's error type
	// string. fallback is the caller's canonical type label; providers
	// whose vocabulary matches the default pass it through.
	ErrorType(k ErrKind, fallback string) string
	// KindOfCode is the reverse mapping, used by HTTP clients to restore
	// the canonical kind from a wire error.
	KindOfCode(code int) ErrKind
	// MaxBatchOps caps the operations one batch request may carry.
	MaxBatchOps() int
}

// registry holds the built-in providers. The set is fixed at init time,
// so lookups need no lock.
var registry = map[string]Provider{}

func register(p Provider) Provider {
	registry[p.Name()] = p
	return p
}

// Default returns the paper's platform (the Facebook-style provider).
func Default() Provider { return Facebook }

// Get returns the named provider.
func Get(name string) (Provider, bool) {
	p, ok := registry[name]
	return p, ok
}

// MustGet returns the named provider or panics; for wiring code whose
// provider names are compile-time constants.
func MustGet(name string) Provider {
	p, ok := registry[name]
	if !ok {
		panic("provider: unknown provider " + name)
	}
	return p
}

// Names lists the registered provider names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
