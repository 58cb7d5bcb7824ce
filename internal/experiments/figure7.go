package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/honeypot"
	"repro/internal/workload"
)

// Figure7Config parameterises the honeypot outgoing-activity timeseries.
type Figure7Config struct {
	Scale int
	Seed  int64
	// Hours is the observation window length (paper plots ~24 h).
	Hours int
	// BackgroundPerHour is the member like-request load that spends
	// pooled tokens (including the honeypots').
	BackgroundPerHour int
}

func (c Figure7Config) withDefaults() Figure7Config {
	if c.Scale <= 0 {
		c.Scale = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.BackgroundPerHour <= 0 {
		c.BackgroundPerHour = 20
	}
	return c
}

// Figure7Panel is one network's hourly series of likes performed by the
// honeypot account.
type Figure7Panel struct {
	Network string
	// LikesPerHour[h] is the number of likes the honeypot's token
	// performed during hour h.
	LikesPerHour []int
	MaxPerHour   int
}

// Figure7Result carries the rendered figures and the raw panels.
type Figure7Result struct {
	Figures []Figure
	Panels  []Figure7Panel
}

// Figure7 reproduces Figure 7: the hourly number of likes performed *by*
// the honeypot account. Collusion networks spread each token's usage
// over time (the paper observes 5–10 likes per hour), which keeps every
// account's activity below temporal-clustering thresholds.
func Figure7(cfg Figure7Config) (Figure7Result, error) {
	cfg = cfg.withDefaults()
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: plottedNetworks,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Figure7Result{}, err
	}
	origin := study.Clock().Now()
	for h := 0; h < cfg.Hours; h++ {
		for _, ni := range study.Scenario.Networks {
			ni.BackgroundRequests(cfg.BackgroundPerHour)
		}
		study.AdvanceHour()
	}

	var result Figure7Result
	for _, ni := range study.Scenario.Networks {
		name := ni.Spec.Name
		hp := study.Honeypots[name]
		counts := honeypot.HourlyCounts(hp.OutgoingActivities(), origin, cfg.Hours)
		panel := Figure7Panel{Network: name, LikesPerHour: counts, MaxPerHour: slices.Max(counts)}
		fig := Figure{
			ID:     "figure7",
			Title:  "Hourly likes performed by the honeypot account — " + name,
			XLabel: "hour",
			YLabel: "number of likes",
			Notes: []string{
				"per-token usage is spread by the network's hourly cap; no sustained burst exists for clustering to catch",
			},
		}
		s := Series{Label: name}
		for h, n := range panel.LikesPerHour {
			s.Points = append(s.Points, SeriesPoint{X: float64(h), Y: float64(n)})
		}
		fig.Series = []Series{s}
		result.Panels = append(result.Panels, panel)
		result.Figures = append(result.Figures, fig)
	}
	return result, nil
}
