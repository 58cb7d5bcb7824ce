package economics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/collusion"
)

func TestEstimateFromTraffic(t *testing.T) {
	m := Model{AdRPMUSD: 0.5, AdsPerVisit: 3, PremiumConversion: 0.01, AvgPlanPriceUSD: 10}
	// The paper's top short URL: ~308K daily clicks (mg-likers.com),
	// 177,665 members.
	e := m.EstimateFromTraffic("mg-likers.com", 308_000, 177_665)
	// 308K visits × 3 ads × $0.0005 = $462/day.
	if math.Abs(e.DailyAdRevenueUSD-462) > 0.01 {
		t.Fatalf("daily ad revenue = %v", e.DailyAdRevenueUSD)
	}
	// 177,665 × 1% × $10 = $17,766.50/month premium.
	if math.Abs(e.MonthlyPremiumUSD-17766.5) > 0.01 {
		t.Fatalf("premium = %v", e.MonthlyPremiumUSD)
	}
	if e.MonthlyTotalUSD != e.MonthlyAdUSD+e.MonthlyPremiumUSD {
		t.Fatal("total mismatch")
	}
	if e.AnnualTotalUSD != 12*e.MonthlyTotalUSD {
		t.Fatal("annual mismatch")
	}
}

func TestEstimateFromMembership(t *testing.T) {
	m := DefaultModel()
	e := m.EstimateFromMembership("x", 10_000)
	if e.DailyVisits != 10_000 {
		t.Fatalf("visits = %v", e.DailyVisits)
	}
	if e.MonthlyTotalUSD <= 0 {
		t.Fatalf("total = %v", e.MonthlyTotalUSD)
	}
}

func TestMeasuredRevenue(t *testing.T) {
	m := DefaultModel()
	if ad := m.MeasuredRevenue(collusion.Stats{AdImpressions: 10_000}); math.Abs(ad-5) > 1e-9 {
		t.Fatalf("ad revenue = %v", ad)
	}
}

// Property: revenue scales linearly in traffic and is never negative for
// non-negative inputs.
func TestQuickEstimateLinear(t *testing.T) {
	m := DefaultModel()
	f := func(visits uint16, members uint16) bool {
		e1 := m.EstimateFromTraffic("n", float64(visits), int(members))
		e2 := m.EstimateFromTraffic("n", 2*float64(visits), int(members))
		if e1.DailyAdRevenueUSD < 0 || e1.MonthlyTotalUSD < 0 {
			return false
		}
		return math.Abs(e2.DailyAdRevenueUSD-2*e1.DailyAdRevenueUSD) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
