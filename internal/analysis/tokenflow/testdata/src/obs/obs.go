// Package obs is golden testdata for the tokenflow obs-sink rule: span
// attribute and event setters are diagnostic sinks (trace exports are
// world-readable), so credentials must be redacted before they land on
// a span. The Span type here is a local stub — the loader is
// stdlib-only — but the package path ("obs") is what the rule keys on.
package obs

// Span mirrors the attribute/event surface of internal/obs.Span.
type Span struct{}

func (s *Span) SetAttr(key, value string) {}

func (s *Span) Event(name string, kv ...string) {}

// mask stands in for internal/redact.Token.
//
//collusionvet:redacts
func mask(s string) string {
	if len(s) <= 6 {
		return "***"
	}
	return s[:6] + "***"
}

// Credentials flowing onto spans raw are flagged.
func attrLeaks(span *Span, token string, secret string) {
	span.SetAttr("token", token)           // want `bearer-token leak: .token. flows into obs\.SetAttr`
	span.SetAttr("app", "app1"+secret)     // want `bearer-token leak`
	span.Event("issued", "token", token)   // want `bearer-token leak: .token. flows into obs\.Event`
	tok := token
	span.SetAttr("token", tok) // want `bearer-token leak`
}

// The redact path is the sanctioned way to label spans with credentials.
func attrClean(span *Span, token string) {
	span.SetAttr("token", mask(token))
	span.SetAttr("app", "app1")
	span.Event("issued", "token", mask(token), "grant", "user")
	span.Event("deny", "reason", "rate-limit")
}

// Logger mirrors the leveled-logging surface of internal/obs.Logger. Its
// *f methods scrub at runtime, but they are still analyzer sinks: a
// credential reaching them is a bug to fix at the call site, not to lean
// on the scrubber for.
type Logger struct{}

func (l *Logger) Warnf(format string, args ...any)  {}
func (l *Logger) Errorf(format string, args ...any) {}
func (l *Logger) Fatalf(format string, args ...any) {}

// Credentials flowing into log lines raw are flagged.
func logLeaks(log *Logger, token string, secret string) {
	log.Warnf("joined with %s", token)       // want `bearer-token leak: .token. flows into obs\.Warnf`
	log.Errorf("auth failed for %s", secret) // want `bearer-token leak: .secret. flows into obs\.Errorf`
	log.Warnf("%s", "t="+token)              // want `bearer-token leak`
	log.Fatalf("cannot refresh %s", token)   // want `bearer-token leak: .token. flows into obs\.Fatalf`
}

// Redacted arguments and credential-free lines pass.
func logClean(log *Logger, token string, delivered int) {
	log.Warnf("joined with %s", mask(token))
	log.Warnf("delivered %d likes", delivered)
	log.Errorf("metrics server: address in use")
}
