package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Figure5Config parameterises the 75-day countermeasure campaign.
type Figure5Config struct {
	Scale int
	Seed  int64
	// Days is the campaign length (paper: 75).
	Days int
	// MilksPerDay is how many posts each honeypot submits per day.
	MilksPerDay int
	// BackgroundPerHour is the member like-request load per network.
	BackgroundPerHour int
	// JoinFracPerDay and ReturnFracPerDay drive pool replenishment as
	// fractions of the scaled membership.
	JoinFracPerDay   float64
	ReturnFracPerDay float64
	// BaseTokenLimit is the pre-existing per-token daily write limit;
	// ReducedTokenLimit is the day-12 reduction (more than an order of
	// magnitude).
	BaseTokenLimit    int
	ReducedTokenLimit int
	// IPDailyLimit and IPWeeklyLimit are the day-46 per-IP like caps.
	IPDailyLimit  int
	IPWeeklyLimit int
	// Networks selects which collusion networks run the campaign; the
	// default is the paper's two plotted panels (hublaa.me and
	// official-liker.net). Figure5AllNetworks runs all 22.
	Networks []string
}

func (c Figure5Config) withDefaults() Figure5Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days <= 0 {
		c.Days = 75
	}
	if c.MilksPerDay <= 0 {
		c.MilksPerDay = 10
	}
	if c.BackgroundPerHour <= 0 {
		c.BackgroundPerHour = 1
	}
	if c.JoinFracPerDay <= 0 {
		c.JoinFracPerDay = 0.02
	}
	if c.ReturnFracPerDay <= 0 {
		c.ReturnFracPerDay = 0.02
	}
	if c.BaseTokenLimit <= 0 {
		c.BaseTokenLimit = 200
	}
	if c.ReducedTokenLimit <= 0 {
		c.ReducedTokenLimit = 8
	}
	if c.IPDailyLimit <= 0 {
		// Scaled to the 1/100 population: far below official-liker.net's
		// per-IP demand (≈370 likes/IP/day over 2 addresses at this
		// scale) and far above hublaa.me's (≈15/IP/day over 60).
		c.IPDailyLimit = 100
	}
	if c.IPWeeklyLimit <= 0 {
		c.IPWeeklyLimit = 400
	}
	return c
}

// Figure5Events maps campaign day (1-based) to the countermeasure
// deployed that day, matching the paper's annotations.
func Figure5Events() map[int]string {
	return map[int]string{
		12: "reduction in access token rate limit",
		23: "invalidate half of all access tokens",
		28: "invalidate all access tokens; begin invalidating half of new access tokens daily",
		36: "invalidate all new access tokens daily",
		46: "IP rate limits",
		55: "clustering based access token invalidation",
		70: "AS blocking",
	}
}

// Figure5Result carries the rendered figure, the per-network daily series,
// and the study for further inspection.
type Figure5Result struct {
	Figure Figure
	// Daily maps network name to average likes per post for each day
	// (index 0 = day 1).
	Daily map[string][]float64
	Study *core.Study
}

// plottedNetworks are the two networks Figures 5–8 plot.
var plottedNetworks = []string{"hublaa.me", "official-liker.net"}

// Figure5 reproduces Figure 5: honeypots milk hublaa.me and
// official-liker.net daily for 75 days while the countermeasures of
// Section 6 deploy on the paper's schedule. The per-day average number
// of likes delivered per honeypot post is the plotted quantity.
func Figure5(cfg Figure5Config) (Figure5Result, error) {
	cfg = cfg.withDefaults()
	networks := cfg.Networks
	if networks == nil {
		networks = plottedNetworks
	}
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: networks,
		Seed:     cfg.Seed,
		Start:    time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC),
		// hublaa.me's site went down on day 45 and resumed on day 51
		// (0-based outage days 44–49).
		ExtraOutageDays: map[string][]int{
			"hublaa.me": {44, 45, 46, 47, 48, 49},
		},
	})
	if err != nil {
		return Figure5Result{}, err
	}
	cm := study.Countermeasures()
	// The pre-existing (generous) token rate limit that collusion
	// networks slip under.
	cm.SetTokenRateLimit(cfg.BaseTokenLimit, 24*time.Hour)

	daily := make(map[string][]float64, len(networks))
	for _, n := range networks {
		daily[n] = make([]float64, 0, cfg.Days)
	}

	for day := 1; day <= cfg.Days; day++ {
		// Start-of-day countermeasure deployments.
		switch day {
		case 12:
			cm.SetTokenRateLimit(cfg.ReducedTokenLimit, 24*time.Hour)
		case 23:
			cm.InvalidateMilkedFraction(0.5)
		case 28:
			cm.InvalidateMilkedAll()
		case 46:
			cm.DeployIPRateLimits(cfg.IPDailyLimit, cfg.IPWeeklyLimit)
		case 55:
			cm.DeployClustering(time.Minute, 0.5, 3, 50)
		case 70:
			cm.BlockASes(workload.ASBulletproofA, workload.ASBulletproofB)
		}

		// Pool replenishment: fresh members discover the sites, returning
		// members whose tokens died resubmit. Every network gains at
		// least one member a day (integer truncation would otherwise
		// starve the smallest scaled pools entirely).
		for _, ni := range study.Scenario.Networks {
			join := int(cfg.JoinFracPerDay * float64(ni.ScaledMembership))
			ret := int(cfg.ReturnFracPerDay * float64(ni.ScaledMembership))
			if join < 1 {
				join = 1
			}
			if ret < 1 {
				ret = 1
			}
			if err := ni.JoinFresh(join); err != nil {
				return Figure5Result{}, err
			}
			if err := ni.ResubmitReturning(ret); err != nil {
				return Figure5Result{}, err
			}
		}

		// Hour loop: honeypot milking spread across the day, plus
		// continuous member background traffic.
		sum := make(map[string]float64, len(networks))
		count := make(map[string]int, len(networks))
		milked := make(map[string]int, len(networks))
		for hour := 0; hour < 24; hour++ {
			for _, ni := range study.Scenario.Networks {
				name := ni.Spec.Name
				if milked[name] < cfg.MilksPerDay && hour*cfg.MilksPerDay/24 >= milked[name] {
					milked[name]++
					res := study.MilkNetwork(name)
					count[name]++
					if res.Err == nil {
						sum[name] += float64(res.Delivered)
					}
					// Failed requests (site outage, policy) count as zero
					// likes delivered, as the paper's plots show.
				}
				ni.BackgroundRequests(cfg.BackgroundPerHour)
			}
			study.Scenario.Clock.Advance(time.Hour)
		}
		for _, n := range networks {
			if count[n] > 0 {
				daily[n] = append(daily[n], sum[n]/float64(count[n]))
			} else {
				daily[n] = append(daily[n], 0)
			}
		}

		// End-of-day sweeps per campaign phase.
		switch {
		case day >= 36:
			cm.InvalidateMilkedAll()
		case day >= 28:
			cm.InvalidateMilkedFraction(0.5)
		}
		if day >= 55 {
			cm.RunClusteringSweep()
		}
	}

	annotations := make(map[float64]string, len(Figure5Events()))
	for d, label := range Figure5Events() {
		annotations[float64(d)] = label
	}
	fig := Figure{
		ID:          "figure5",
		Title:       "Impact of countermeasures on collusion networks",
		XLabel:      "day",
		YLabel:      "average likes per post",
		Annotations: annotations,
		Notes: []string{
			"population scale 1/" + fmtInt(cfg.Scale),
			"hublaa.me site outage days 45-50, as observed in the paper",
		},
	}
	for _, n := range networks {
		s := Series{Label: n}
		for i, v := range daily[n] {
			s.Points = append(s.Points, SeriesPoint{X: float64(i + 1), Y: v})
		}
		fig.Series = append(fig.Series, s)
	}
	return Figure5Result{Figure: fig, Daily: daily, Study: study}, nil
}
