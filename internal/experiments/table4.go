package experiments

import (
	"errors"
	"time"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/honeypot"
	"repro/internal/workload"
)

// Table4Config parameterises the milking campaign.
type Table4Config struct {
	// Scale divides the paper's population sizes (see workload.Options).
	Scale int
	// PostsDivisor divides the paper's per-network post counts; the
	// honeypot submits PostsSubmitted/PostsDivisor posts (min MinPosts).
	PostsDivisor int
	// MinPosts floors the scaled post count.
	MinPosts int
	// Networks selects a subset; nil = all 22.
	Networks []string
	Seed     int64
	// RetentionWindow bounds the platform's edge-history retention; when
	// set, a sweep runs every campaign hour. The default (0, infinite)
	// leaves the campaign byte-identical to a build without retention —
	// the retention-equivalence tests pin this.
	RetentionWindow time.Duration
}

// table4BackgroundPerRound is how many member like-requests run per
// milking round, generating the outgoing activity of Table 4's right half.
const table4BackgroundPerRound = 2

func (c Table4Config) withDefaults() Table4Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.PostsDivisor <= 0 {
		c.PostsDivisor = 20
	}
	if c.MinPosts <= 0 {
		c.MinPosts = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Table4Row is one network's campaign outcome.
type Table4Row struct {
	Network            string
	PostsSubmitted     int
	TotalLikes         int
	AvgLikesPerPost    float64
	OutgoingActivities int
	TargetAccounts     int
	TargetPages        int
	MembershipEstimate int
	// PoolSize is the network's actual (scaled) pool size, for computing
	// milking coverage.
	PoolSize int
}

// Table4Result carries the rendered table, the per-network rows, and the
// study (for downstream figures that reuse the campaign).
type Table4Result struct {
	Table Table
	Rows  []Table4Row
	Study *core.Study
}

// Table4 reproduces Table 4: infiltrate every collusion network with a
// honeypot, milk it post by post, crawl incoming and outgoing activity,
// and estimate membership from the set of unique likers.
func Table4(cfg Table4Config) (Table4Result, error) {
	cfg = cfg.withDefaults()
	study, err := core.NewStudy(workload.Options{
		Scale:           cfg.Scale,
		Networks:        cfg.Networks,
		Seed:            cfg.Seed,
		RetentionWindow: cfg.RetentionWindow,
	})
	if err != nil {
		return Table4Result{}, err
	}

	// Per-network post quotas, scaled from the paper's Table 4.
	quota := make(map[string]int)
	maxQuota := 0
	for _, ni := range study.Scenario.Networks {
		q := ni.Spec.PostsSubmitted / cfg.PostsDivisor
		if q < cfg.MinPosts {
			q = cfg.MinPosts
		}
		quota[ni.Spec.Name] = q
		if q > maxQuota {
			maxQuota = q
		}
	}

	// Campaign loop: one milking round per network per hour until every
	// network's quota is met. Daily-limited networks (djliker.com,
	// monkeyliker.com at 10 requests/day) and intermittently-down sites
	// (arabfblike.com) lag behind, exactly as in the paper; the loop
	// gives up after a bounded number of simulated days.
	done := make(map[string]int)
	maxHours := (maxQuota + 10) * 3 // generous: covers 10/day limits
	for hour := 0; hour < maxHours; hour++ {
		allDone := true
		for _, ni := range study.Scenario.Networks {
			name := ni.Spec.Name
			if done[name] >= quota[name] {
				continue
			}
			allDone = false
			res := study.MilkNetwork(name)
			switch {
			case res.Err == nil:
				done[name]++
			case errors.Is(res.Err, collusion.ErrDailyLimit),
				errors.Is(res.Err, collusion.ErrOutage):
				// Expected friction; retry next hour.
			default:
				return Table4Result{}, res.Err
			}
			ni.BackgroundRequests(table4BackgroundPerRound)
			if hour%5 == 0 {
				ni.BackgroundPageRequests(1)
			}
		}
		if allDone {
			break
		}
		study.AdvanceHour()
		study.SweepRetention()
	}

	table := Table{
		ID:    "table4",
		Title: "Statistics of the collected data for all collusion networks",
		Columns: []string{
			"Collusion Network", "Posts", "Total Likes", "Avg Likes/Post",
			"Outgoing Activities", "Target Accounts", "Target Pages", "Membership Size",
		},
		Notes: []string{
			"population scale 1/" + fmtInt(cfg.Scale) + ", post counts scaled 1/" + fmtInt(cfg.PostsDivisor),
		},
	}
	var rows []Table4Row
	totals := Table4Row{Network: "All"}
	for _, ni := range study.Scenario.Networks {
		name := ni.Spec.Name
		est := study.Estimators[name]
		hp := study.Honeypots[name]
		out := honeypot.SummarizeOutgoing(hp.OutgoingActivities())
		row := Table4Row{
			Network:            name,
			PostsSubmitted:     est.PostsSubmitted(),
			TotalLikes:         est.TotalLikes(),
			AvgLikesPerPost:    est.AvgLikesPerPost(),
			OutgoingActivities: out.Activities,
			TargetAccounts:     out.TargetAccounts,
			TargetPages:        out.TargetPages,
			MembershipEstimate: est.MembershipEstimate(),
			PoolSize:           len(ni.Members),
		}
		rows = append(rows, row)
		totals.PostsSubmitted += row.PostsSubmitted
		totals.TotalLikes += row.TotalLikes
		totals.OutgoingActivities += row.OutgoingActivities
		totals.TargetAccounts += row.TargetAccounts
		totals.TargetPages += row.TargetPages
		totals.MembershipEstimate += row.MembershipEstimate
		table.Rows = append(table.Rows, []string{
			name,
			fmtInt(row.PostsSubmitted),
			fmtInt(row.TotalLikes),
			fmtFloat(row.AvgLikesPerPost, 0),
			fmtInt(row.OutgoingActivities),
			fmtInt(row.TargetAccounts),
			fmtInt(row.TargetPages),
			fmtInt(row.MembershipEstimate),
		})
	}
	if totals.PostsSubmitted > 0 {
		totals.AvgLikesPerPost = float64(totals.TotalLikes) / float64(totals.PostsSubmitted)
	}
	table.Rows = append(table.Rows, []string{
		"All",
		fmtInt(totals.PostsSubmitted),
		fmtInt(totals.TotalLikes),
		fmtFloat(totals.AvgLikesPerPost, 0),
		fmtInt(totals.OutgoingActivities),
		fmtInt(totals.TargetAccounts),
		fmtInt(totals.TargetPages),
		fmtInt(totals.MembershipEstimate),
	})
	rows = append(rows, totals)
	return Table4Result{Table: table, Rows: rows, Study: study}, nil
}
