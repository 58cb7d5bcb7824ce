package experiments

import (
	"fmt"
	"time"

	"repro/internal/attacks"
	"repro/internal/defense"
	"repro/internal/detection"
	"repro/internal/economics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// The extension experiments implement the future-work directions of the
// paper's Section 8 on top of the same simulated ecosystem:
//
//   - ExtensionPrivacy: what else leaked tokens expose — personal
//     information harvesting and malware propagation over the members'
//     social graphs;
//   - ExtensionDetection: a machine-learning detector for token abuse,
//     evaluated where temporal clustering fails, plus like-purge
//     remediation driven by its verdicts;
//   - ExtensionEconomics: revenue estimates for the measured networks
//     and a live validation of the monetization model.

// ExtensionPrivacyResult carries the harvest and propagation outcomes.
type ExtensionPrivacyResult struct {
	Table       Table
	Harvest     attacks.HarvestResult
	Propagation attacks.PropagationResult
}

// ExtensionPrivacy builds a network with a realistic friend graph and
// runs both Section 8 attacks with the network's own token pool.
func ExtensionPrivacy(seed int64) (ExtensionPrivacyResult, error) {
	s, err := workload.BuildScenario(workload.Options{
		Scale:      500,
		MinMembers: 80,
		Networks:   []string{"mg-likers.com"},
		Seed:       seed,
	})
	if err != nil {
		return ExtensionPrivacyResult{}, err
	}
	// Non-member bystanders: the people exposed purely through friends.
	if _, err := s.AddOrganicUsers(800, seed); err != nil {
		return ExtensionPrivacyResult{}, err
	}
	s.BuildFriendGraph(10, seed)

	ni := s.Networks[0]
	client := platform.NewLocalClient(s.Platform)
	harvest := attacks.Harvest(client, ni.Net.Pool(), "192.0.2.250")
	prop := attacks.Propagate(s.Platform.Graph, ni.Net.Pool().Members(), attacks.PropagationConfig{
		ClickProb: 0.25,
		MaxSteps:  10,
		Seed:      seed,
	})

	table := Table{
		ID:      "extension-privacy",
		Title:   "Section 8 extension: privacy impact of a leaked token pool (mg-likers.com, scale 1/500)",
		Columns: []string{"Quantity", "Value"},
		Notes: []string{
			"harvest replays every pooled token against /me and /me/friends",
			"propagation: lure posts via member tokens, 25% click probability along friend edges",
		},
	}
	add := func(k string, v any) {
		table.Rows = append(table.Rows, []string{k, fmt.Sprint(v)})
	}
	add("pooled tokens replayed", harvest.TokensTried)
	add("profiles harvested", harvest.ProfilesRead)
	add("non-member friends exposed", harvest.FriendsEnumerated)
	add("total accounts reachable", harvest.Reachable)
	add("platform population", s.Platform.Graph.AccountCount())
	add("malware seeds (members)", prop.InfectedPerStep[0])
	add("infected after propagation", prop.TotalInfected)
	add("propagation steps", len(prop.InfectedPerStep)-1)
	add("population infected", fmtFloat(100*float64(prop.TotalInfected)/float64(prop.Population), 1)+"%")
	return ExtensionPrivacyResult{Table: table, Harvest: harvest, Propagation: prop}, nil
}

// ExtensionDetectionResult carries the classifier evaluation.
type ExtensionDetectionResult struct {
	Table     Table
	Metrics   detection.Metrics
	Clustered int
	Purge     defense.PurgeReport
	// PCABaselineAUC is the Viswanath-style volume-only anomaly
	// detector's AUC over the same accounts — near-random in the regime
	// where colluding accounts mix real and fake activity.
	PCABaselineAUC float64
}

// ExtensionDetection simulates mixed collusion and organic activity,
// trains the logistic detector, evaluates it on held-out accounts, and
// contrasts it with SynchroTrap (which the networks evade). Accounts the
// detector flags have their likes purged — the remediation loop.
func ExtensionDetection(seed int64) (ExtensionDetectionResult, error) {
	// Small-quota networks at low scale keep the pool-to-quota ratio in
	// the paper's regime (≥10×), where SynchroTrap sees nothing — the
	// contrast the ML detector must beat.
	s, err := workload.BuildScenario(workload.Options{
		Scale:      3,
		MinMembers: 100,
		Networks:   []string{"kingliker.com", "rockliker.net"},
		Seed:       seed,
	})
	if err != nil {
		return ExtensionDetectionResult{}, err
	}
	organic, err := s.AddOrganicUsers(400, seed)
	if err != nil {
		return ExtensionDetectionResult{}, err
	}
	s.BuildFriendGraph(6, seed)

	// SynchroTrap watches the same window.
	trap := defense.NewSynchroTrap(time.Minute, 0.5, 3, 20)
	s.Platform.Chain().Append(defense.NewSynchroTap(trap))

	for day := 0; day < 4; day++ {
		organic.SimulateDay(0.5, 4)
		for hour := 0; hour < 24; hour++ {
			for _, ni := range s.Networks {
				if hour%3 == 0 {
					ni.BackgroundRequests(2)
				}
			}
			s.Clock.Advance(time.Hour)
		}
	}

	var labeled []detection.Labeled
	for _, ni := range s.Networks {
		for _, m := range ni.Members {
			labeled = append(labeled, detection.Labeled{AccountID: m.ID, Colluding: true})
		}
	}
	for _, u := range organic.Users {
		labeled = append(labeled, detection.Labeled{AccountID: u.ID, Colluding: false})
	}
	ds := detection.BuildDataset(s.Platform.Graph, labeled)
	train, test := ds.Split(0.3)
	model, err := detection.Train(train, detection.TrainConfig{Epochs: 300, LearningRate: 0.3, Seed: seed})
	if err != nil {
		return ExtensionDetectionResult{}, err
	}
	metrics := detection.Evaluate(model, test, 0.5)

	// The classical baseline: PCA over daily like-count series (Viswanath
	// et al.), trained on the organic users.
	origin := s.Opts.Start
	const windowDays = 4
	var normalSeries [][]float64
	for _, u := range organic.Users {
		normalSeries = append(normalSeries, detection.DailyLikeSeries(s.Platform.Graph, u.ID, origin, windowDays))
	}
	pcaAUC := 0.0
	if pca, perr := detection.TrainPCA(normalSeries, 2, 0.95); perr == nil {
		scored := detection.Dataset{}
		for _, l := range labeled {
			series := detection.DailyLikeSeries(s.Platform.Graph, l.AccountID, origin, windowDays)
			scored.X = append(scored.X, []float64{pca.Residual(series)})
			y := 0
			if l.Colluding {
				y = 1
			}
			scored.Y = append(scored.Y, y)
			scored.IDs = append(scored.IDs, l.AccountID)
		}
		pcaAUC = detection.AUCOf(flatten(scored.X), scored.Y)
	}

	clustered := 0
	for _, c := range trap.Detect() {
		clustered += len(c.Accounts)
	}

	// Remediation: purge likes of test accounts the detector flags.
	var flagged []string
	for i, x := range test.X {
		if model.Predict(x, 0.5) {
			flagged = append(flagged, test.IDs[i])
		}
	}
	purge := defense.PurgeLikesReport(s.Platform.Graph, flagged)

	table := Table{
		ID:      "extension-detection",
		Title:   "Section 8 extension: ML detection of access token abuse (held-out accounts)",
		Columns: []string{"Quantity", "Value"},
		Notes: []string{
			"features: volume, target diversity, dominant-app share, third-party share, IP-sharing degree, hourly spread",
			"SynchroTrap over the same window detects the accounts its similarity thresholds can see — the evasion baseline",
		},
	}
	add := func(k string, v any) {
		table.Rows = append(table.Rows, []string{k, fmt.Sprint(v)})
	}
	add("training accounts", len(train.X))
	add("test accounts", len(test.X))
	add("precision", fmtFloat(metrics.Precision, 3))
	add("recall", fmtFloat(metrics.Recall, 3))
	add("F1", fmtFloat(metrics.F1, 3))
	add("ROC AUC", fmtFloat(metrics.AUC, 3))
	add("false positives (organic flagged)", metrics.FP)
	add("SynchroTrap accounts flagged (baseline)", clustered)
	add("PCA volume-anomaly baseline AUC", fmtFloat(pcaAUC, 3))
	add("accounts purged", purge.AccountsProcessed)
	add("fake likes removed", purge.LikesRemoved)
	add("objects cleaned", purge.ObjectsTouched)
	return ExtensionDetectionResult{
		Table: table, Metrics: metrics, Clustered: clustered, Purge: purge,
		PCABaselineAUC: pcaAUC,
	}, nil
}

// flatten turns single-column feature rows into a score vector.
func flatten(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[0]
	}
	return out
}

// ExtensionEconomicsResult carries the revenue projections and the model
// validation.
type ExtensionEconomicsResult struct {
	Table     Table
	Estimates []economics.Estimate
	// ModelAdUSD vs MeasuredAdUSD validate the ad-revenue model against
	// a live simulated network.
	ModelAdUSD    float64
	MeasuredAdUSD float64
}

// measuredDailyClicks are the Table 5 daily click observations for the
// networks whose short URLs the paper quotes (308K/139K/122K for the top
// three referrers).
var measuredDailyClicks = map[string]float64{
	"mg-likers.com": 308_000,
	"djliker.com":   139_000,
	"hublaa.me":     122_000,
}

// ExtensionEconomics projects revenue for all 22 networks and validates
// the ad model against a live simulation.
func ExtensionEconomics(seed int64) (ExtensionEconomicsResult, error) {
	model := economics.DefaultModel()
	table := Table{
		ID:    "extension-economics",
		Title: "Section 8 extension: collusion network revenue estimates",
		Columns: []string{
			"Collusion Network", "Daily Visits", "Ad $/day", "Premium $/month", "Total $/month", "Total $/year",
		},
		Notes: []string{
			"RPM $0.50, 3 impressions/visit, 1% premium conversion at $10/month",
			"daily visits measured for mg-likers/djliker/hublaa (Table 5 click rates), membership-modelled otherwise",
		},
	}
	var result ExtensionEconomicsResult
	for _, spec := range workload.Networks() {
		var est economics.Estimate
		if clicks, ok := measuredDailyClicks[spec.Name]; ok {
			est = model.EstimateFromTraffic(spec.Name, clicks, spec.Membership)
		} else {
			est = model.EstimateFromMembership(spec.Name, spec.Membership)
		}
		result.Estimates = append(result.Estimates, est)
		table.Rows = append(table.Rows, []string{
			est.Network,
			fmtInt(int(est.DailyVisits)),
			fmtFloat(est.DailyAdRevenueUSD, 0),
			fmtFloat(est.MonthlyPremiumUSD, 0),
			fmtFloat(est.MonthlyTotalUSD, 0),
			fmtFloat(est.AnnualTotalUSD, 0),
		})
	}

	// Live validation: run a day of member visits through a simulated
	// network and compare the model's ad revenue with the measured
	// impression counter.
	s, err := workload.BuildScenario(workload.Options{
		Scale:      1000,
		MinMembers: 120,
		Networks:   []string{"mg-likers.com"},
		Seed:       seed,
	})
	if err != nil {
		return ExtensionEconomicsResult{}, err
	}
	ni := s.Networks[0]
	visits := len(ni.Members)
	for range ni.Members {
		if err := ni.Net.Visit(false); err != nil {
			return ExtensionEconomicsResult{}, err
		}
	}
	adUSD := model.MeasuredRevenue(ni.Net.Stats())
	result.MeasuredAdUSD = adUSD
	result.ModelAdUSD = float64(visits) * float64(model.AdsPerVisit) * model.AdRPMUSD / 1000
	table.Notes = append(table.Notes, fmt.Sprintf(
		"live validation: %d simulated visits → model $%.2f vs measured $%.2f ad revenue",
		visits, result.ModelAdUSD, result.MeasuredAdUSD))
	result.Table = table
	return result, nil
}
