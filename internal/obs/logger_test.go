package obs

import (
	"errors"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

var logEpoch = time.Date(2015, 11, 1, 0, 0, 0, 0, time.UTC)

func TestLoggerLevelsAndFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger("milker", &sb, simclock.NewSimulated(logEpoch))

	l.Warnf("slow %d", 7)
	l.Errorf("boom: %v", errors.New("dial refused"))

	out := sb.String()
	for _, want := range []string{
		"WARN milker: slow 7\n",
		"ERROR milker: boom: dial refused\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLoggerTimestamps(t *testing.T) {
	var sb strings.Builder
	NewLogger("d", &sb, simclock.NewSimulated(logEpoch)).Warnf("hello")
	if want := "2015-11-01T00:00:00.000Z WARN d: hello\n"; sb.String() != want {
		t.Errorf("got %q, want %q", sb.String(), want)
	}
}

// TestLoggerRedactsArguments: every route a credential can take into a
// log line — string arg, error arg, URL arg, the format string itself —
// must come out masked.
func TestLoggerRedactsArguments(t *testing.T) {
	const tok = "EAACEdEose0cBA1234567890"
	var sb strings.Builder
	l := NewLogger("d", &sb, simclock.NewSimulated(logEpoch))

	l.Warnf("joined with access_token=%s", tok)
	l.Errorf("req failed: %v", errors.New("GET /me?access_token="+tok+": 401"))
	u, _ := url.Parse("https://site.example/cb#access_token=" + tok + "&expires_in=0")
	l.Warnf("redirect %s", u)
	l.Errorf("submit token=" + tok)

	out := sb.String()
	if strings.Contains(out, tok) {
		t.Fatalf("raw credential reached the log:\n%s", out)
	}
	if !strings.Contains(out, "EAACEd***") {
		t.Errorf("expected masked prefix EAACEd*** in:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("want 4 lines, got %d:\n%s", lines, out)
	}
}

func TestLoggerFatalf(t *testing.T) {
	var sb strings.Builder
	code := -1
	l := NewLogger("d", &sb, simclock.NewSimulated(logEpoch))
	l.exit = func(c int) { code = c }
	l.Fatalf("token=%s invalid", "EAACEdEose0cBA")
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(sb.String(), "ERROR d: token=EAACEd*** invalid") {
		t.Errorf("fatal line wrong: %q", sb.String())
	}
}

func TestLoggerNil(t *testing.T) {
	var l *Logger
	l.Warnf("no panic")  // no-op
	l.Errorf("no panic") // no-op
}
