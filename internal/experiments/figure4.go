package experiments

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// Figure4Config parameterises the cumulative-milking figure.
type Figure4Config struct {
	Scale        int
	PostsDivisor int
	MinPosts     int
	Seed         int64
}

// figure4Networks are the paper's three panels.
var figure4Networks = []string{"official-liker.net", "mg-likers.com", "f8-autoliker.com"}

func (c Figure4Config) withDefaults() Figure4Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.PostsDivisor <= 0 {
		c.PostsDivisor = 10
	}
	if c.MinPosts <= 0 {
		c.MinPosts = 30
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Figure4Panel is one network's cumulative curves.
type Figure4Panel struct {
	Network          string
	CumulativeLikes  []SeriesPoint
	CumulativeUnique []SeriesPoint
}

// Figure4Result carries the rendered figures (one per network) and raw
// panels.
type Figure4Result struct {
	Figures []Figure
	Panels  []Figure4Panel
}

// Figure4 reproduces Figure 4: per post index, the cumulative number of
// likes received and cumulative unique liking accounts. Likes grow
// linearly (fixed quota per request) while the unique-account curve bends
// — the diminishing returns of random token sampling that milking
// exploits to bound membership.
func Figure4(cfg Figure4Config) (Figure4Result, error) {
	cfg = cfg.withDefaults()
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: figure4Networks,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Figure4Result{}, err
	}

	quota := make(map[string]int)
	for _, ni := range study.Scenario.Networks {
		q := ni.Spec.PostsSubmitted / cfg.PostsDivisor
		if q < cfg.MinPosts {
			q = cfg.MinPosts
		}
		quota[ni.Spec.Name] = q
	}
	done := make(map[string]int)
	for hour := 0; hour < 24*30; hour++ {
		allDone := true
		for _, ni := range study.Scenario.Networks {
			name := ni.Spec.Name
			if done[name] >= quota[name] {
				continue
			}
			allDone = false
			if res := study.MilkNetwork(name); res.Err == nil {
				done[name]++
			}
		}
		if allDone {
			break
		}
		study.AdvanceHour()
	}

	var result Figure4Result
	for _, ni := range study.Scenario.Networks {
		name := ni.Spec.Name
		panel := Figure4Panel{Network: name}
		for _, p := range study.Estimators[name].Curve() {
			panel.CumulativeLikes = append(panel.CumulativeLikes,
				SeriesPoint{X: float64(p.Step), Y: float64(p.CumulativeEvents)})
			panel.CumulativeUnique = append(panel.CumulativeUnique,
				SeriesPoint{X: float64(p.Step), Y: float64(p.CumulativeUnique)})
		}
		result.Panels = append(result.Panels, panel)
		result.Figures = append(result.Figures, Figure{
			ID:     "figure4",
			Title:  "Cumulative likes and unique accounts — " + name,
			XLabel: "post index",
			YLabel: "cumulative count",
			Series: []Series{
				{Label: "cumulative likes", Points: panel.CumulativeLikes},
				{Label: "cumulative unique accounts", Points: panel.CumulativeUnique},
			},
			Notes: []string{
				"likes grow linearly (fixed per-request quota); unique accounts flatten (repetition under random sampling)",
			},
		})
	}
	return result, nil
}
