package experiments

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// Figure6Config parameterises the posts-liked histogram experiment.
type Figure6Config struct {
	Scale int
	Seed  int64
	// Posts is how many posts each honeypot submits during the window.
	Posts int
}

func (c Figure6Config) withDefaults() Figure6Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Posts <= 0 {
		// Keep posts×quota/pool ≈ 1 at the default scale, the regime the
		// paper measured in (its pools were ~600–850× the quota over
		// ~1,500 posts).
		c.Posts = 8
	}
	return c
}

// Figure6Panel is one network's histogram.
type Figure6Panel struct {
	Network string
	// Fraction[k] is the fraction of observed accounts that liked exactly
	// k posts (k from 1).
	Fraction map[int]float64
	// AtMostOne is the fraction of accounts that liked at most one post —
	// the paper reports 76% for hublaa.me and 30% for official-liker.net.
	AtMostOne float64
}

// Figure6Result carries the rendered figures and the raw panels.
type Figure6Result struct {
	Figures []Figure
	Panels  []Figure6Panel
}

// Figure6 reproduces Figure 6: for each account observed liking honeypot
// posts, how many distinct honeypot posts it liked. Random sampling from
// a large pool concentrates mass at small counts, which is exactly what
// starves temporal clustering of signal (Sec. 6.3).
func Figure6(cfg Figure6Config) (Figure6Result, error) {
	cfg = cfg.withDefaults()
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: plottedNetworks,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Figure6Result{}, err
	}
	for p := 0; p < cfg.Posts; p++ {
		for _, ni := range study.Scenario.Networks {
			if res := study.MilkNetwork(ni.Spec.Name); res.Err != nil {
				return Figure6Result{}, res.Err
			}
		}
		study.AdvanceHour()
	}

	var result Figure6Result
	for _, ni := range study.Scenario.Networks {
		name := ni.Spec.Name
		est := study.Estimators[name]
		hist := est.PostsLikedHistogram()
		panel := Figure6Panel{
			Network:   name,
			Fraction:  make(map[int]float64),
			AtMostOne: est.AccountsLikingAtMost(1),
		}
		fig := Figure{
			ID:     "figure6",
			Title:  "Number of honeypot posts liked by collusion network accounts — " + name,
			XLabel: "number of posts liked",
			YLabel: "percentage of accounts",
		}
		s := Series{Label: name}
		for _, bin := range hist.Bins() {
			panel.Fraction[bin.Value] = bin.Fraction
			s.Points = append(s.Points, SeriesPoint{X: float64(bin.Value), Y: 100 * bin.Fraction})
		}
		fig.Series = []Series{s}
		result.Panels = append(result.Panels, panel)
		result.Figures = append(result.Figures, fig)
	}
	return result, nil
}
