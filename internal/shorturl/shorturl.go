// Package shorturl implements a URL shortening service with public
// analytics, standing in for goo.gl in the Table 5 analysis. Collusion
// networks used short URLs to funnel members to the exploited
// application's install dialog; goo.gl's public per-link analytics
// (clicks, referrers, platforms, geolocation, creation date) let the
// paper estimate site traffic and launch dates.
package shorturl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/simclock"
)

// ErrNotFound is returned for unknown short codes.
var ErrNotFound = errors.New("shorturl: unknown short code")

// Click is one recorded click on a short URL.
type Click struct {
	At       time.Time
	Referrer string
	Country  string
}

type link struct {
	code      string
	longURL   string
	createdAt time.Time
	clicks    []Click
}

// Service is the shortener. It is safe for concurrent use.
type Service struct {
	clock simclock.Clock

	mu     sync.RWMutex
	links  map[string]*link
	byLong map[string][]string // longURL -> codes
	nextID int
}

// NewService returns an empty shortener.
func NewService(clock simclock.Clock) *Service {
	return &Service{
		clock:  clock,
		links:  make(map[string]*link),
		byLong: make(map[string][]string),
	}
}

// Shorten mints a short code for longURL. Shortening the same long URL
// repeatedly mints distinct codes, as different collusion networks did
// for the same install dialog (Table 5 shows several goo.gl links
// pointing at one HTC Sense URL).
func (s *Service) Shorten(longURL string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	code := encodeID(s.nextID)
	s.links[code] = &link{
		code:      code,
		longURL:   longURL,
		createdAt: s.clock.Now(),
	}
	s.byLong[longURL] = append(s.byLong[longURL], code)
	return code
}

// Resolve records a click and returns the long URL.
func (s *Service) Resolve(code, referrer, country string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.links[code]
	if !ok {
		return "", fmt.Errorf("%q: %w", code, ErrNotFound)
	}
	l.clicks = append(l.clicks, Click{At: s.clock.Now(), Referrer: referrer, Country: country})
	return l.longURL, nil
}

// Info is the public analytics record for one short URL.
type Info struct {
	Code      string
	LongURL   string
	CreatedAt time.Time
	// ShortClicks is this code's click count; LongClicks sums clicks over
	// every code pointing at the same long URL (the two click columns of
	// Table 5).
	ShortClicks int
	LongClicks  int
	// TopReferrer is the most frequent referrer domain.
	TopReferrer string
	// Countries maps country -> click count.
	Countries map[string]int
}

// Info returns the analytics for a short code.
func (s *Service) Info(code string) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.links[code]
	if !ok {
		return Info{}, fmt.Errorf("%q: %w", code, ErrNotFound)
	}
	info := Info{
		Code:        code,
		LongURL:     l.longURL,
		CreatedAt:   l.createdAt,
		ShortClicks: len(l.clicks),
		Countries:   make(map[string]int),
	}
	refs := make(map[string]int)
	for _, c := range l.clicks {
		if c.Referrer != "" {
			refs[c.Referrer]++
		}
		if c.Country != "" {
			info.Countries[c.Country]++
		}
	}
	best, bestN := "", 0
	for r, n := range refs {
		if n > bestN || (n == bestN && r < best) {
			best, bestN = r, n
		}
	}
	info.TopReferrer = best
	for _, sib := range s.byLong[l.longURL] {
		info.LongClicks += len(s.links[sib].clicks)
	}
	return info, nil
}

// encodeID turns a sequence number into a base62-ish short code.
func encodeID(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var b strings.Builder
	for n > 0 {
		b.WriteByte(alphabet[n%len(alphabet)])
		n /= len(alphabet)
	}
	// Pad to at least 6 characters like goo.gl codes.
	for b.Len() < 6 {
		b.WriteByte('x')
	}
	return b.String()
}
