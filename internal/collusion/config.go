// Package collusion implements the collusion network services of
// Sections 3–5: the website front end members interact with, the access
// token pool filled by member submissions, and the delivery engine that
// replays pooled tokens through the platform's Graph API to manufacture
// likes and comments on demand.
//
// The operational behaviours measured in the paper are explicit model
// parameters:
//
//   - a fixed number of likes per request (14–390 across networks,
//     Table 4), delivered in a sub-minute burst;
//   - random sampling of member tokens per request, which produces the
//     diminishing-returns curve honeypot milking observes (Figure 4) and
//     defeats temporal clustering (Figures 6–7);
//   - per-member daily request limits, CAPTCHA gates, and intermittent
//     outages;
//   - an IP pool and AS footprint for Graph API calls (Figure 8) —
//     official-liker.net used a handful of addresses, hublaa.me more than
//     six thousand across two bulletproof-hosting ASes;
//   - adaptation to token rate limits (Sec. 6.1): engines that reuse a
//     "hot set" of tokens switch to uniform sampling after observing
//     sustained rate limiting;
//   - monetization: ad impressions per visit, behind an optional ad
//     wall (Sec. 5.1).
package collusion

// Config describes one collusion network.
type Config struct {
	// Name is the site's domain, e.g. "hublaa.me".
	Name string
	// AppID and AppRedirectURI identify the exploited third-party
	// application (Table 3) and its install link.
	AppID          string
	AppRedirectURI string

	// LikesPerRequest is the fixed number of likes delivered per request.
	LikesPerRequest int
	// CommentsPerRequest is the number of auto-comments per request; 0
	// means the network offers no auto-comment service.
	CommentsPerRequest int
	// CommentDictionary is the finite comment vocabulary (Table 6 shows
	// only 187 unique comments across 12,959 delivered).
	CommentDictionary []string

	// DailyRequestLimit caps requests per member per day (djliker.com and
	// monkeyliker.com imposed 10/day); 0 means unlimited.
	DailyRequestLimit int
	// CaptchaRequired forces members to solve a CAPTCHA per request.
	CaptchaRequired bool

	// IPs is the source address pool the delivery engine cycles through.
	IPs []string
	// HotSetSize, when positive, makes the engine prefer its most
	// recently used tokens (cheaper, but visible to token rate limits).
	// 0 means uniform random sampling from the whole pool.
	HotSetSize int
	// AdaptationLagDays is how many distinct days of rate-limit errors
	// the operator tolerates before switching to uniform sampling.
	AdaptationLagDays int
	// MaxPerTokenHourly caps how often one member token is used per hour,
	// spreading each account's activity over time (Figure 7).
	MaxPerTokenHourly int

	// OutageDays lists simulation days (0-based) the site is down;
	// arabfblike.com and others suffered intermittent outages.
	OutageDays []int

	// HoneypotMaxDaily, when positive, arms the network's own honeypot
	// detector: a member making more than this many requests in a day is
	// suspicious (Sec. 6.5: "collusion networks can try to detect our
	// honeypot accounts which currently make very frequent like/comment
	// requests"). After HoneypotBanDays distinct suspicious days the
	// member is banned. The researchers' counter is to run several
	// honeypots at lower per-account request rates.
	HoneypotMaxDaily int
	// HoneypotBanDays is the suspicious-day threshold before a ban
	// (default 2 when detection is armed).
	HoneypotBanDays int

	// AdsPerVisit is the number of ad impressions a member generates per
	// visit.
	AdsPerVisit int
	// AdWallHops, when positive, forces members through that many ad-page
	// redirects before each request (Sec. 5.1: mg-likers.com bounced
	// users via kackroch.com and paid shorteners like adf.ly, each hop
	// serving ads).
	AdWallHops int

	// DeliveryBatchSize is how many likes of a burst are coalesced into
	// one platform.Client.LikeBatch call. 0 selects the default of 50,
	// the Graph API's batch cap; negative disables batching so every like
	// takes its own round trip.
	DeliveryBatchSize int

	// Seed makes the network's sampling deterministic.
	Seed int64
}

// withDefaults fills unset fields with workable values.
func (c Config) withDefaults() Config {
	if c.LikesPerRequest <= 0 {
		c.LikesPerRequest = 200
	}
	if c.MaxPerTokenHourly <= 0 {
		c.MaxPerTokenHourly = 10
	}
	if c.AdaptationLagDays <= 0 {
		c.AdaptationLagDays = 5
	}
	if c.HoneypotMaxDaily > 0 && c.HoneypotBanDays <= 0 {
		c.HoneypotBanDays = 2
	}
	if len(c.IPs) == 0 {
		c.IPs = []string{"192.0.2.1"}
	}
	if c.DeliveryBatchSize == 0 {
		c.DeliveryBatchSize = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
