package graphapi

// Error codes of the default provider's numeric space, which the tests
// here compare wire errors against. The program maps canonical kinds
// (provider.ErrKind) to codes through the provider (provider/facebook.go)
// and dispatches on ErrKindOf, not ErrCode.
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
