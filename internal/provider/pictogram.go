package provider

import (
	"crypto/rand"
	"sync/atomic"
)

// pictogram is the second concrete platform: a photo-sharing network in
// the Instagram mold. It differs from the default provider along every
// axis the interface names:
//
//   - Grant flows: code-flow ONLY. There is no implicit dialog, so its
//     own tokens cannot be milked from a redirect fragment — the
//     cross-platform scenario instead harvests on the default provider
//     and amplifies here through a companion app's server-side exchange.
//   - Token format: structured, not opaque — "PTGR." + 24 hex chars of
//     payload + "." + 4 hex chars of FNV-1a checksum over the payload.
//     The checksum lets the edge reject garbage before any state lookup
//     and gives the fuzzer a real parse path to attack.
//   - Scopes: "likes" (write) and "relationships" (graph read). Neither
//     is in apps.SensitivePermissions, so an UNREVIEWED app keeps its
//     write scope — the lax-review policy difference that lets a
//     collusion network self-serve a companion app here.
//   - Error vocabulary: 4xxx numeric space with its own type strings.
//   - Batch cap: smaller batches (20 ops).
//
// The program reaches it by name, through Get and MustGet.
var _ = register(pictogram{})

// Pictogram numeric error space.
const (
	pgCodeInvalidToken = 4010
	pgCodeSecretProof  = 4030
	pgCodePermission   = 4031
	pgCodeRateLimited  = 4290
	pgCodeBlocked      = 4032
	pgCodeNotFound     = 4040
	pgCodeDuplicate    = 4090
	pgCodeInvalidParam = 4000
	pgCodeAppSuspended = 4011
)

const (
	pgTokenPrefix  = "PTGR."
	pgPayloadLen   = 24 // hex chars
	pgChecksumLen  = 4  // hex chars
	pgTokenLen     = len(pgTokenPrefix) + pgPayloadLen + 1 + pgChecksumLen
	pgChecksumDot  = len(pgTokenPrefix) + pgPayloadLen
	pgHexDigits    = "0123456789abcdef"
	fnvOffsetBasis = 2166136261
	fnvPrime       = 16777619
)

// pgCounter disambiguates tokens minted within one random read; it is
// folded into the payload so two mints can never collide.
var pgCounter atomic.Uint64

type pictogram struct{}

func (pictogram) Name() string { return "pictogram" }

// MintToken returns "PTGR.<24 hex payload>.<4 hex checksum>". The payload
// is 8 random bytes plus a 4-byte mint counter, hex-encoded; the checksum
// is the 16-bit fold of FNV-1a over the payload characters.
func (pictogram) MintToken() string {
	var raw [12]byte
	if _, err := rand.Read(raw[:8]); err != nil {
		panic("provider: entropy unavailable: " + err.Error())
	}
	n := pgCounter.Add(1)
	raw[8] = byte(n >> 24)
	raw[9] = byte(n >> 16)
	raw[10] = byte(n >> 8)
	raw[11] = byte(n)

	buf := make([]byte, 0, pgTokenLen)
	buf = append(buf, pgTokenPrefix...)
	for _, b := range raw {
		buf = append(buf, pgHexDigits[b>>4], pgHexDigits[b&0xf])
	}
	sum := pgChecksum(buf[len(pgTokenPrefix):])
	buf = append(buf, '.')
	buf = append(buf, pgHexDigits[sum>>12&0xf], pgHexDigits[sum>>8&0xf], pgHexDigits[sum>>4&0xf], pgHexDigits[sum&0xf])
	return string(buf)
}

// CheckToken verifies prefix, exact length, hex alphabet, and checksum —
// all byte-at-a-time over the input string, zero allocations.
func (pictogram) CheckToken(token string) error {
	if len(token) != pgTokenLen || token[:len(pgTokenPrefix)] != pgTokenPrefix {
		return ErrBadTokenFormat
	}
	if token[pgChecksumDot] != '.' {
		return ErrBadTokenFormat
	}
	payload := token[len(pgTokenPrefix):pgChecksumDot]
	var want uint16
	for i := 0; i < pgChecksumLen; i++ {
		d := hexVal(token[pgChecksumDot+1+i])
		if d < 0 {
			return ErrBadTokenFormat
		}
		want = want<<4 | uint16(d)
	}
	for i := 0; i < len(payload); i++ {
		if hexVal(payload[i]) < 0 {
			return ErrBadTokenFormat
		}
	}
	if pgChecksum(payload) != want {
		return ErrBadTokenFormat
	}
	return nil
}

// pgChecksum folds 32-bit FNV-1a over the payload characters into 16
// bits. The generic parameter lets both the []byte mint path and the
// string check path share the loop without converting (and allocating).
func pgChecksum[T string | []byte](payload T) uint16 {
	h := uint32(fnvOffsetBasis)
	for i := 0; i < len(payload); i++ {
		h ^= uint32(payload[i])
		h *= fnvPrime
	}
	return uint16(h>>16) ^ uint16(h)
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return -1
	}
}

// Supports: code flow only. No implicit dialog, nothing to milk.
func (pictogram) Supports(f Flow) bool { return f == FlowCode }

func (pictogram) ScopePublish() string { return "likes" }
func (pictogram) ScopeFriends() string { return "relationships" }

func (pictogram) ErrorCode(k ErrKind) int {
	switch k {
	case KindInvalidToken:
		return pgCodeInvalidToken
	case KindSecretProof:
		return pgCodeSecretProof
	case KindPermission:
		return pgCodePermission
	case KindRateLimited:
		return pgCodeRateLimited
	case KindBlocked:
		return pgCodeBlocked
	case KindNotFound:
		return pgCodeNotFound
	case KindDuplicate:
		return pgCodeDuplicate
	case KindInvalidParam:
		return pgCodeInvalidParam
	case KindAppSuspended:
		return pgCodeAppSuspended
	default:
		return 0
	}
}

func (pictogram) ErrorType(k ErrKind, fallback string) string {
	switch k {
	case KindInvalidToken, KindAppSuspended:
		return "TokenError"
	case KindSecretProof:
		return "SignatureError"
	case KindPermission:
		return "ScopeError"
	case KindRateLimited:
		return "ThrottleError"
	case KindBlocked:
		return "AbuseError"
	case KindNotFound:
		return "ResourceError"
	case KindDuplicate:
		return "DuplicateError"
	case KindInvalidParam:
		return "RequestError"
	default:
		return fallback
	}
}

func (pictogram) KindOfCode(code int) ErrKind {
	switch code {
	case pgCodeInvalidToken:
		return KindInvalidToken
	case pgCodeSecretProof:
		return KindSecretProof
	case pgCodePermission:
		return KindPermission
	case pgCodeRateLimited:
		return KindRateLimited
	case pgCodeBlocked:
		return KindBlocked
	case pgCodeNotFound:
		return KindNotFound
	case pgCodeDuplicate:
		return KindDuplicate
	case pgCodeInvalidParam:
		return KindInvalidParam
	case pgCodeAppSuspended:
		return KindAppSuspended
	default:
		return KindNone
	}
}

func (pictogram) MaxBatchOps() int { return 20 }
