package obs

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"sync"

	"repro/internal/redact"
	"repro/internal/simclock"
)

// Logger is the daemons' logger. Every argument and the final formatted
// line are forced through internal/redact before reaching the writer, so
// a token that slips into an error string or URL cannot reach a log file
// intact. The tokenflow analyzer additionally treats the *f methods as
// credential sinks, the same as Span.SetAttr — static analysis catches
// what it can, and the runtime scrubbing catches values that flow in
// dynamically.
//
// A nil *Logger is a valid no-op, except Fatalf, which still exits.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	name  string
	clock simclock.Clock
	exit  func(int) // Fatalf seam; defaults to os.Exit
}

// NewLogger returns a logger writing lines tagged with name to w, each
// stamped with the clock's time (obs is a simulation-adjacent package
// and must not read ambient time).
func NewLogger(name string, w io.Writer, clock simclock.Clock) *Logger {
	return &Logger{w: w, name: name, clock: clock, exit: os.Exit}
}

// scrubArg redacts one argument. URL-shaped values get structure-aware
// masking (userinfo dropped, fragment creds masked); errors are reduced
// to their scrubbed text. Everything else is left to the whole-line
// sweep in logf.
func scrubArg(a any) any {
	switch v := a.(type) {
	case *url.URL:
		return redact.URL(v)
	case url.Values:
		return redact.String(v.Encode())
	case error:
		if v == nil {
			return v
		}
		return redact.String(v.Error())
	default:
		return a
	}
}

func (l *Logger) logf(level, format string, args ...any) {
	if l == nil {
		return
	}
	for i, a := range args {
		args[i] = scrubArg(a)
	}
	msg := redact.String(fmt.Sprintf(format, args...))
	stamp := l.clock.Now().UTC().Format("2006-01-02T15:04:05.000Z")
	l.mu.Lock()
	fmt.Fprintf(l.w, "%s %s %s: %s\n", stamp, level, l.name, msg)
	l.mu.Unlock()
}

// Warnf logs at warn level. Arguments are redacted; see Logger.
func (l *Logger) Warnf(format string, args ...any) { l.logf("WARN", format, args...) }

// Errorf logs at error level. Arguments are redacted; see Logger.
func (l *Logger) Errorf(format string, args ...any) { l.logf("ERROR", format, args...) }

// Fatalf logs at error level and exits with status 1. Unlike the other
// methods it acts even on a nil logger (the process must still die).
func (l *Logger) Fatalf(format string, args ...any) {
	l.logf("ERROR", format, args...)
	if l != nil && l.exit != nil {
		l.exit(1)
		return
	}
	os.Exit(1)
}
