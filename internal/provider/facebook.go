package provider

import "repro/internal/ids"

// Facebook is the paper's platform: implicit-flow OAuth dialog, "EAAB"
// token prefix, Graph API error vocabulary, /batch capped at 50 ops.
// This provider is the default; every mapping below is the identity onto
// the constants the reproduction used before providers existed, which is
// what keeps Table-4 goldens and the defense-equivalence suites
// byte-for-byte stable.
var Facebook Provider = register(facebook{})

// Numeric error space of the default provider. graphapi re-exports these
// as its Code* constants.
const (
	fbCodeInvalidToken = 190
	fbCodeSecretProof  = 104
	fbCodePermission   = 200
	fbCodeRateLimited  = 613
	fbCodeBlocked      = 368
	fbCodeNotFound     = 803
	fbCodeDuplicate    = 520
	fbCodeInvalidParam = 100
	fbCodeAppSuspended = 191
)

const fbTokenPrefix = "EAAB"

type facebook struct{}

func (facebook) Name() string { return "facebook" }

// MintToken issues the classic "EAAB"-prefixed opaque token (ids.NewToken
// keeps the global issue counter, so token streams stay deterministic
// under the simclock worlds).
func (facebook) MintToken() string { return ids.NewToken() }

// CheckToken accepts any token carrying the issuer prefix. The body is
// opaque — length varies with the embedded counter — so only the prefix
// is structural. No allocation on either path.
func (facebook) CheckToken(token string) error {
	if len(token) <= len(fbTokenPrefix) || token[:len(fbTokenPrefix)] != fbTokenPrefix {
		return ErrBadTokenFormat
	}
	return nil
}

// Supports: both flows exist; the implicit flow is what collusion
// networks milk (Sec. 3).
func (facebook) Supports(Flow) bool { return true }

func (facebook) ScopePublish() string { return "publish_actions" }
func (facebook) ScopeFriends() string { return "user_friends" }

func (facebook) ErrorCode(k ErrKind) int {
	switch k {
	case KindInvalidToken:
		return fbCodeInvalidToken
	case KindSecretProof:
		return fbCodeSecretProof
	case KindPermission:
		return fbCodePermission
	case KindRateLimited:
		return fbCodeRateLimited
	case KindBlocked:
		return fbCodeBlocked
	case KindNotFound:
		return fbCodeNotFound
	case KindDuplicate:
		return fbCodeDuplicate
	case KindInvalidParam:
		return fbCodeInvalidParam
	case KindAppSuspended:
		return fbCodeAppSuspended
	default:
		return 0
	}
}

// ErrorType passes the caller's canonical label through: the default
// provider's vocabulary ("OAuthException", "GraphMethodException",
// "PolicyException") IS the canonical vocabulary.
func (facebook) ErrorType(_ ErrKind, fallback string) string { return fallback }

func (facebook) KindOfCode(code int) ErrKind {
	switch code {
	case fbCodeInvalidToken:
		return KindInvalidToken
	case fbCodeSecretProof:
		return KindSecretProof
	case fbCodePermission:
		return KindPermission
	case fbCodeRateLimited:
		return KindRateLimited
	case fbCodeBlocked:
		return KindBlocked
	case fbCodeNotFound:
		return KindNotFound
	case fbCodeDuplicate:
		return KindDuplicate
	case fbCodeInvalidParam:
		return KindInvalidParam
	case fbCodeAppSuspended:
		return KindAppSuspended
	default:
		return KindNone
	}
}

func (facebook) MaxBatchOps() int { return 50 }
