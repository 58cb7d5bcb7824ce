package experiments

import (
	"reflect"
	"testing"
)

func TestFigure4Shapes(t *testing.T) {
	res, err := Figure4(Figure4Config{Scale: 500, PostsDivisor: 40, MinPosts: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		if len(p.CumulativeLikes) < 25 {
			t.Fatalf("%s: %d points", p.Network, len(p.CumulativeLikes))
		}
		last := len(p.CumulativeLikes) - 1
		// Both curves are non-decreasing, and unique ≤ likes everywhere.
		for i := range p.CumulativeLikes {
			if i > 0 {
				if p.CumulativeLikes[i].Y < p.CumulativeLikes[i-1].Y {
					t.Fatalf("%s: likes decreased at %d", p.Network, i)
				}
				if p.CumulativeUnique[i].Y < p.CumulativeUnique[i-1].Y {
					t.Fatalf("%s: unique decreased at %d", p.Network, i)
				}
			}
			if p.CumulativeUnique[i].Y > p.CumulativeLikes[i].Y {
				t.Fatalf("%s: unique above likes at %d", p.Network, i)
			}
		}
		// The diminishing-returns signature: by the end, unique accounts
		// fall clearly below cumulative likes (repetition), and the
		// second-half unique growth is smaller than the first half's.
		if p.CumulativeUnique[last].Y >= 0.9*p.CumulativeLikes[last].Y {
			t.Fatalf("%s: no repetition observed (unique %.0f of %.0f likes)",
				p.Network, p.CumulativeUnique[last].Y, p.CumulativeLikes[last].Y)
		}
		mid := last / 2
		firstHalf := p.CumulativeUnique[mid].Y
		secondHalf := p.CumulativeUnique[last].Y - firstHalf
		if secondHalf >= firstHalf {
			t.Fatalf("%s: unique growth not flattening (%.0f then %.0f)",
				p.Network, firstHalf, secondHalf)
		}
	}
}

// TestFigure5Timeline runs the full 75-day countermeasure campaign and
// asserts the paper's qualitative story at each deployment.
func TestFigure5Timeline(t *testing.T) {
	if testing.Short() {
		t.Skip("75-day campaign: skipped with -short")
	}
	res, err := Figure5(Figure5Config{Scale: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hub := res.Daily["hublaa.me"]
	off := res.Daily["official-liker.net"]
	if len(hub) != 75 || len(off) != 75 {
		t.Fatalf("series lengths = %d, %d", len(hub), len(off))
	}
	day := func(s []float64, d int) float64 { return s[d-1] }

	// Baseline (days 1–11): both at their full quotas.
	for d := 1; d <= 11; d++ {
		if day(hub, d) < 340 || day(off, d) < 380 {
			t.Fatalf("baseline day %d: hublaa=%.0f official=%.0f", d, day(hub, d), day(off, d))
		}
	}
	// Day 12 rate-limit reduction: no impact on hublaa (large pool keeps
	// per-token usage low), sharp drop for hot-set official-liker.
	if day(hub, 13) < 340 {
		t.Fatalf("hublaa affected by rate limit: %.0f", day(hub, 13))
	}
	if day(off, 13) > 0.7*390 {
		t.Fatalf("official-liker not limited: %.0f", day(off, 13))
	}
	// ...which bounces back within about a week (sampling adaptation).
	if day(off, 20) < 350 {
		t.Fatalf("official-liker did not adapt: %.0f", day(off, 20))
	}
	// Day 28 full invalidation: sharp decline for both.
	if day(hub, 29) > 0.5*350 || day(off, 29) > 0.5*390 {
		t.Fatalf("day-28 sweep ineffective: hublaa=%.0f official=%.0f", day(hub, 29), day(off, 29))
	}
	// Half-of-new-daily phase (28–35): partial bounce-back from fresh
	// arrivals.
	if day(hub, 35) < day(hub, 29) {
		t.Fatalf("hublaa no bounce-back: day29=%.0f day35=%.0f", day(hub, 29), day(hub, 35))
	}
	// All-new-daily (36+): suppressed but alive.
	if day(hub, 40) == 0 || day(hub, 40) > 0.5*350 {
		t.Fatalf("hublaa day 40 = %.0f", day(hub, 40))
	}
	// hublaa.me site outage days 45–50.
	for d := 45; d <= 50; d++ {
		if day(hub, d) != 0 {
			t.Fatalf("hublaa served during outage day %d: %.0f", d, day(hub, d))
		}
	}
	if day(hub, 52) == 0 {
		t.Fatal("hublaa did not resume after outage")
	}
	// Day 46 IP rate limits: official-liker collapses (its couple of IPs
	// blow the caps); hublaa's thousands of addresses stay under them.
	for d := 48; d <= 69; d++ {
		if day(off, d) > 30 {
			t.Fatalf("official-liker alive after IP limits, day %d: %.0f", d, day(off, d))
		}
	}
	if day(hub, 60) == 0 {
		t.Fatal("hublaa killed by IP limits (should survive until AS block)")
	}
	// Day 55 clustering: no additional impact (the paper's negative
	// result) — hublaa holds its pre-clustering level.
	if day(hub, 58) < 0.5*day(hub, 54) {
		t.Fatalf("clustering unexpectedly effective: day54=%.0f day58=%.0f", day(hub, 54), day(hub, 58))
	}
	// Day 70 AS blocking: hublaa ceases entirely.
	for d := 71; d <= 75; d++ {
		if day(hub, d) != 0 {
			t.Fatalf("hublaa alive after AS block, day %d: %.0f", d, day(hub, d))
		}
	}
}

func TestFigure6Concentration(t *testing.T) {
	// Preserve the posts×quota/pool ratio that shapes the histogram:
	// with 8 posts at scale 100, a hublaa.me account is expected to like
	// ≈1 post, like the paper's regime.
	res, err := Figure6(Figure6Config{Scale: 100, Posts: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 2 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	panels := map[string]Figure6Panel{}
	for _, p := range res.Panels {
		total := 0.0
		for _, f := range p.Fraction {
			total += f
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%s fractions sum to %v", p.Network, total)
		}
		panels[p.Network] = p
	}
	hub := panels["hublaa.me"]
	off := panels["official-liker.net"]
	// The paper's relative story (76% vs 30% at ≤1 post): uniform
	// sampling from hublaa's large pool spreads likes across accounts,
	// while official-liker's hot-set reuse concentrates them.
	if hub.AtMostOne < 0.3 {
		t.Fatalf("hublaa AtMostOne = %.2f", hub.AtMostOne)
	}
	if hub.AtMostOne <= off.AtMostOne {
		t.Fatalf("concentration inverted: hublaa %.2f vs official %.2f", hub.AtMostOne, off.AtMostOne)
	}
}

func TestFigure7SpreadUsage(t *testing.T) {
	res, err := Figure7(Figure7Config{Scale: 300, Hours: 24, BackgroundPerHour: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Panels {
		if p.MaxPerHour == 0 {
			t.Fatalf("%s: honeypot token never used", p.Network)
		}
		// The network's hourly spread cap (10) bounds per-hour usage —
		// the "5–10 likes per hour" observation of Figure 7.
		if p.MaxPerHour > 10 {
			t.Fatalf("%s: %d likes in one hour exceeds spread cap", p.Network, p.MaxPerHour)
		}
		activeHours := 0
		for _, n := range p.LikesPerHour {
			if n > 0 {
				activeHours++
			}
		}
		if activeHours < 12 {
			t.Fatalf("%s: activity concentrated in %d hours", p.Network, activeHours)
		}
	}
}

func TestFigure8Footprints(t *testing.T) {
	res, err := Figure8(Figure8Config{Scale: 100, Days: 6, MilksPerDay: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	panels := map[string]Figure8Panel{}
	for _, p := range res.Panels {
		panels[p.Network] = p
	}
	hub := panels["hublaa.me"]
	off := panels["official-liker.net"]
	// official-liker delivers through a couple of addresses in one AS;
	// hublaa spreads across a large pool in two bulletproof ASes.
	if len(off.PerIP) > 4 {
		t.Fatalf("official-liker IPs = %d", len(off.PerIP))
	}
	if off.DistinctASes != 1 {
		t.Fatalf("official-liker ASes = %d", off.DistinctASes)
	}
	if len(hub.PerIP) < 20 {
		t.Fatalf("hublaa IPs = %d", len(hub.PerIP))
	}
	if hub.DistinctASes != 2 {
		t.Fatalf("hublaa ASes = %d", hub.DistinctASes)
	}
	// Every official-liker IP is observed on most days and carries a
	// large like volume (the concentration that per-IP limits exploit).
	for _, pt := range off.PerIP {
		if pt.DaysObserved < 4 {
			t.Fatalf("official IP %s observed %d days", pt.Key, pt.DaysObserved)
		}
	}
	offTop := off.PerIP[0].Likes
	hubTop := hub.PerIP[0].Likes
	if offTop < 5*hubTop {
		t.Fatalf("per-IP concentration missing: official top %d vs hublaa top %d", offTop, hubTop)
	}
}

// TestFigure5ScaleInvariance guards the model against scale artifacts:
// the qualitative transitions of the first half of the campaign (rate
// limit dip + adaptation, full-invalidation crash, bounce-back) must
// hold at a different population scale too.
func TestFigure5ScaleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("36-day campaign: skipped with -short")
	}
	cfg := Figure5Config{Scale: 200, Seed: 5, Days: 36}
	res, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same config must reproduce every day: the invalidation sweeps
	// draw a seeded sample from the backlog the honeypots filled.
	if again, err := Figure5(cfg); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(again.Daily, res.Daily) {
		t.Fatalf("same config, different Daily:\n%v\n%v", res.Daily, again.Daily)
	}
	hub := res.Daily["hublaa.me"]
	off := res.Daily["official-liker.net"]
	day := func(s []float64, d int) float64 { return s[d-1] }
	if day(hub, 5) < 340 || day(off, 5) < 380 {
		t.Fatalf("baseline: hublaa=%.0f official=%.0f", day(hub, 5), day(off, 5))
	}
	if day(hub, 13) < 340 {
		t.Fatalf("hublaa hit by rate limit at scale 200: %.0f", day(hub, 13))
	}
	if day(off, 13) > 0.7*390 {
		t.Fatalf("official not limited at scale 200: %.0f", day(off, 13))
	}
	if day(off, 22) < 350 {
		t.Fatalf("official did not adapt at scale 200: %.0f", day(off, 22))
	}
	if day(hub, 29) > 0.5*350 || day(off, 29) > 0.5*390 {
		t.Fatalf("day-28 sweep ineffective at scale 200: hublaa=%.0f official=%.0f",
			day(hub, 29), day(off, 29))
	}
	if day(hub, 35) < day(hub, 29) {
		t.Fatalf("no bounce-back at scale 200: day29=%.0f day35=%.0f", day(hub, 29), day(hub, 35))
	}
}

// TestFigure5AllNetworks runs the fleet-wide campaign: every network
// ceases operating, and hublaa.me is the sole survivor until the AS
// block — the paper's "other popular collusion networks also stopped
// working" outcome. The campaign runs twice and must reproduce every
// network's daily series, clustering era included.
func TestFigure5AllNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("22-network 75-day campaign: skipped with -short")
	}
	cfg := Figure5Config{Scale: 100, Seed: 1}
	res, err := Figure5AllNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Figure5AllNetworks(cfg); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(again.Fig.Daily, res.Fig.Daily) {
		for name, s := range res.Fig.Daily {
			if !reflect.DeepEqual(again.Fig.Daily[name], s) {
				t.Errorf("%s: same config, different Daily:\n%v\n%v", name, s, again.Fig.Daily[name])
			}
		}
		t.Fatal("same config, different Daily")
	}
	if len(res.DeathDay) != 22 {
		t.Fatalf("networks = %d", len(res.DeathDay))
	}
	latest := ""
	latestDay := 0
	for name, day := range res.DeathDay {
		if day == 0 {
			t.Fatalf("%s survived the whole campaign", name)
		}
		// Nothing dies before the invalidation era begins.
		if day < 23 {
			t.Fatalf("%s ceased on day %d, before any token sweep", name, day)
		}
		if day > latestDay {
			latest, latestDay = name, day
		}
	}
	// hublaa.me outlives everyone, falling only to the day-70 AS block.
	if latest != "hublaa.me" {
		t.Fatalf("last survivor = %s (day %d), want hublaa.me", latest, latestDay)
	}
	if latestDay < 68 {
		t.Fatalf("hublaa.me ceased on day %d, want the AS-block era", latestDay)
	}
}
