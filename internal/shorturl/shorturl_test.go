package shorturl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

var t0 = time.Date(2014, time.June, 11, 0, 0, 0, 0, time.UTC)

func TestShortenAndResolve(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	s := NewService(clock)
	code := s.Shorten("https://platform.example/dialog/oauth?client_id=htc")
	long, err := s.Resolve(code, "mg-likers.com", "IN")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(long, "client_id=htc") {
		t.Fatalf("long = %q", long)
	}
	if _, err := s.Resolve("nope", "", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown code err = %v", err)
	}
}

func TestDistinctCodesForSameLongURL(t *testing.T) {
	s := NewService(simclock.NewSimulated(t0))
	a := s.Shorten("https://x.example")
	b := s.Shorten("https://x.example")
	if a == b {
		t.Fatalf("same code minted twice: %q", a)
	}
}

func TestInfoAggregates(t *testing.T) {
	clock := simclock.NewSimulated(t0)
	s := NewService(clock)
	longURL := "https://platform.example/dialog/oauth?client_id=htc"
	a := s.Shorten(longURL)
	clock.Advance(24 * time.Hour)
	b := s.Shorten(longURL)

	for i := 0; i < 5; i++ {
		if _, err := s.Resolve(a, "mg-likers.com", "IN"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Resolve(b, "djliker.com", "EG"); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = s.Resolve(a, "begeniyor.com", "TR")

	info, err := s.Info(a)
	if err != nil {
		t.Fatal(err)
	}
	if info.ShortClicks != 6 {
		t.Fatalf("ShortClicks = %d, want 6", info.ShortClicks)
	}
	// Long clicks sum across both codes pointing at the same URL.
	if info.LongClicks != 9 {
		t.Fatalf("LongClicks = %d, want 9", info.LongClicks)
	}
	if info.TopReferrer != "mg-likers.com" {
		t.Fatalf("TopReferrer = %q", info.TopReferrer)
	}
	if info.Countries["IN"] != 5 || info.Countries["TR"] != 1 {
		t.Fatalf("Countries = %v", info.Countries)
	}
	if !info.CreatedAt.Equal(t0) {
		t.Fatalf("CreatedAt = %v", info.CreatedAt)
	}
	if _, err := s.Info("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Info(missing) err = %v", err)
	}
}

func TestCodeShape(t *testing.T) {
	s := NewService(simclock.NewSimulated(t0))
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		code := s.Shorten("https://x.example")
		if len(code) < 6 {
			t.Fatalf("code %q shorter than 6", code)
		}
		if seen[code] {
			t.Fatalf("duplicate code %q", code)
		}
		seen[code] = true
	}
}
