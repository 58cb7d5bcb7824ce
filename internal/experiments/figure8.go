package experiments

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// Figure8Config parameterises the IP/AS footprint experiment.
type Figure8Config struct {
	Scale int
	Seed  int64
	// Days is the observation window (the paper tracked ~50 days of the
	// countermeasure campaign).
	Days int
	// MilksPerDay is the honeypot posting rate.
	MilksPerDay int
}

func (c Figure8Config) withDefaults() Figure8Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days <= 0 {
		c.Days = 10
	}
	if c.MilksPerDay <= 0 {
		c.MilksPerDay = 10
	}
	return c
}

// FootprintPoint is one IP's (or AS's) observation record.
type FootprintPoint struct {
	Key          string // IP address or "AS<number>"
	DaysObserved int
	Likes        int
}

// Figure8Panel is one network's footprint.
type Figure8Panel struct {
	Network string
	PerIP   []FootprintPoint
	PerAS   []FootprintPoint
	// DistinctASes counts the autonomous systems behind the network's
	// delivery traffic: two (bulletproof) for hublaa.me, one for
	// official-liker.net.
	DistinctASes int
}

// Figure8Result carries the rendered figures and raw panels.
type Figure8Result struct {
	Figures []Figure
	Panels  []Figure8Panel
}

// Figure8 reproduces Figure 8: the source IP addresses (and their
// autonomous systems) behind the Graph API like requests on honeypot
// posts, plotted as days-observed versus total likes. A few addresses
// carry almost all of official-liker.net's likes (so per-IP rate limits
// kill it), while hublaa.me spreads across a large pool inside two
// bulletproof-hosting ASes (so only AS-level blocking works).
func Figure8(cfg Figure8Config) (Figure8Result, error) {
	cfg = cfg.withDefaults()
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: plottedNetworks,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Figure8Result{}, err
	}
	origin := study.Clock().Now()
	for day := 0; day < cfg.Days; day++ {
		for m := 0; m < cfg.MilksPerDay; m++ {
			for _, ni := range study.Scenario.Networks {
				if res := study.MilkNetwork(ni.Spec.Name); res.Err != nil {
					return Figure8Result{}, res.Err
				}
			}
			study.Scenario.Clock.Advance(2 * time.Hour)
		}
		study.Scenario.Clock.Advance(4 * time.Hour)
	}

	var result Figure8Result
	for _, ni := range study.Scenario.Networks {
		name := ni.Spec.Name
		hp := study.Honeypots[name]
		type agg struct {
			days  map[int]bool
			likes int
		}
		perIP := make(map[string]*agg)
		perAS := make(map[string]*agg)
		asSeen := make(map[netsim.ASN]bool)
		for _, likes := range hp.IncomingLikes() {
			for _, l := range likes {
				day := int(l.At.Sub(origin) / (24 * time.Hour))
				ipAgg := perIP[l.SourceIP]
				if ipAgg == nil {
					ipAgg = &agg{days: make(map[int]bool)}
					perIP[l.SourceIP] = ipAgg
				}
				ipAgg.days[day] = true
				ipAgg.likes++
				asKey := "unknown"
				if as, ok := study.Scenario.Internet.LookupASString(l.SourceIP); ok {
					asKey = "AS" + fmtInt(int(as.Number))
					asSeen[as.Number] = true
				}
				asAgg := perAS[asKey]
				if asAgg == nil {
					asAgg = &agg{days: make(map[int]bool)}
					perAS[asKey] = asAgg
				}
				asAgg.days[day] = true
				asAgg.likes++
			}
		}
		panel := Figure8Panel{Network: name, DistinctASes: len(asSeen)}
		for ip, a := range perIP {
			panel.PerIP = append(panel.PerIP, FootprintPoint{Key: ip, DaysObserved: len(a.days), Likes: a.likes})
		}
		for as, a := range perAS {
			panel.PerAS = append(panel.PerAS, FootprintPoint{Key: as, DaysObserved: len(a.days), Likes: a.likes})
		}
		sort.Slice(panel.PerIP, func(i, j int) bool { return panel.PerIP[i].Likes > panel.PerIP[j].Likes })
		sort.Slice(panel.PerAS, func(i, j int) bool { return panel.PerAS[i].Likes > panel.PerAS[j].Likes })
		result.Panels = append(result.Panels, panel)

		ipSeries := Series{Label: name + " per-IP"}
		for _, pt := range panel.PerIP {
			ipSeries.Points = append(ipSeries.Points, SeriesPoint{X: float64(pt.DaysObserved), Y: float64(pt.Likes)})
		}
		asSeries := Series{Label: name + " per-AS"}
		for _, pt := range panel.PerAS {
			asSeries.Points = append(asSeries.Points, SeriesPoint{X: float64(pt.DaysObserved), Y: float64(pt.Likes)})
		}
		result.Figures = append(result.Figures, Figure{
			ID:     "figure8",
			Title:  "Source IPs and ASes of like requests — " + name,
			XLabel: "days observed",
			YLabel: "number of likes",
			Series: []Series{ipSeries, asSeries},
			Notes: []string{
				name + " delivery spans " + fmtInt(len(panel.PerIP)) + " IPs across " + fmtInt(panel.DistinctASes) + " ASes",
			},
		})
	}
	return result, nil
}
