// Package economics quantifies the collusion network business model of
// Section 5.1 — the "deeper investigation into the economic aspects"
// the paper's conclusion calls for. Revenue has two streams:
//
//   - advertising: members generate ad impressions on every visit (the
//     heavily-trafficked sites pushed anti-adblock walls to protect this
//     stream); impressions monetize at an RPM;
//   - premium plans: a small fraction of members pay for higher like
//     quotas and automatic delivery.
//
// The model converts observable quantities — daily visits (the paper
// measured short-URL click rates of 308K/139K/122K per day for the top
// three networks) and membership sizes — into revenue estimates. Its ad
// stream can be validated against a live simulated network's measured
// Stats; the premium stream is an estimate only.
package economics

import (
	"repro/internal/collusion"
)

// Model holds the monetization parameters.
type Model struct {
	// AdRPMUSD is ad revenue per 1,000 impressions. Display RPMs for the
	// dominant visitor geographies (India, Egypt, Vietnam) were on the
	// order of $0.30–$1 in 2016.
	AdRPMUSD float64
	// AdsPerVisit is the impression count a member generates per visit.
	AdsPerVisit int
	// VisitsPerMemberPerDay converts membership into site traffic when no
	// direct click measurement exists.
	VisitsPerMemberPerDay float64
	// PremiumConversion is the fraction of members on a paid plan.
	PremiumConversion float64
	// AvgPlanPriceUSD is the mean monthly premium price.
	AvgPlanPriceUSD float64
}

// DefaultModel returns parameters consistent with the paper's
// observations (free-tier restrictions push a small conversion; plans
// like mg-likers.com's ranged to tens of dollars).
func DefaultModel() Model {
	return Model{
		AdRPMUSD:              0.5,
		AdsPerVisit:           3,
		VisitsPerMemberPerDay: 1.0,
		PremiumConversion:     0.01,
		AvgPlanPriceUSD:       10,
	}
}

// Estimate is a revenue projection for one network.
type Estimate struct {
	Network           string
	DailyVisits       float64
	DailyAdRevenueUSD float64
	MonthlyAdUSD      float64
	MonthlyPremiumUSD float64
	MonthlyTotalUSD   float64
	AnnualTotalUSD    float64
}

// EstimateFromTraffic projects revenue from a measured daily visit count
// and a membership size.
func (m Model) EstimateFromTraffic(network string, dailyVisits float64, members int) Estimate {
	e := Estimate{Network: network, DailyVisits: dailyVisits}
	e.DailyAdRevenueUSD = dailyVisits * float64(m.AdsPerVisit) * m.AdRPMUSD / 1000
	e.MonthlyAdUSD = e.DailyAdRevenueUSD * 30
	e.MonthlyPremiumUSD = float64(members) * m.PremiumConversion * m.AvgPlanPriceUSD
	e.MonthlyTotalUSD = e.MonthlyAdUSD + e.MonthlyPremiumUSD
	e.AnnualTotalUSD = e.MonthlyTotalUSD * 12
	return e
}

// EstimateFromMembership projects revenue with modelled traffic
// (members × VisitsPerMemberPerDay).
func (m Model) EstimateFromMembership(network string, members int) Estimate {
	return m.EstimateFromTraffic(network, float64(members)*m.VisitsPerMemberPerDay, members)
}

// MeasuredRevenue is the ad revenue a live simulated network realized
// from its served impressions, for validating the model's ad stream. The
// premium stream stays a model estimate: simulated networks sell no
// plans.
func (m Model) MeasuredRevenue(stats collusion.Stats) float64 {
	return float64(stats.AdImpressions) * m.AdRPMUSD / 1000
}
