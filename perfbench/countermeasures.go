package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// countermeasures: the Figure 5 timeline, closed loop and in-process.
// Honeypots milk hublaa.me and official-liker.net for 75 simulated days
// while the Section 6 countermeasures deploy on the paper's schedule;
// members join, return and request likes in the background every hour.
// The timeline is driven day by day from public calls, exactly as
// experiments.Figure5 drives it, and repeated on fresh worlds until the
// window is spent. The unit operation is one RequestLikes, reached
// through a honeypot milk (core.Study.MilkNetwork) or a background
// member request (NetworkInstance.BackgroundRequests(1)).

// cmConfig is the Figure 5 configuration the workload runs, spelled out so
// the reference run uses exactly the same values.
func cmConfig(seed int64) experiments.Figure5Config {
	return experiments.Figure5Config{
		Scale:             200,
		Seed:              seed,
		Days:              75,
		MilksPerDay:       10,
		BackgroundPerHour: 1,
		JoinFracPerDay:    0.02,
		ReturnFracPerDay:  0.02,
		BaseTokenLimit:    200,
		ReducedTokenLimit: 8,
		IPDailyLimit:      100,
		IPWeeklyLimit:     400,
		Networks:          []string{"hublaa.me", "official-liker.net"},
	}
}

// cmExactDays is how many leading days must match the reference run
// exactly. From day 23 on, the invalidation sweeps pick tokens by
// shuffling a backlog filled in crawl order, and concurrent batched
// delivery makes that order vary from run to run, so later days are
// compared per countermeasure phase within cmPhaseTolerance.
const cmExactDays = 22

// cmPhases are the first days of the Figure 5 phases, plus the end.
var cmPhases = []int{1, 12, 23, 28, 36, 46, 55, 70, 76}

// cmPhaseTolerance is the allowed relative gap between phase means of two
// runs (seen: under 10%), with cmPhaseSlack likes of absolute slack for
// the near-zero phases.
const (
	cmPhaseTolerance = 0.2
	cmPhaseSlack     = 3.0
)

// cmPinnedPrefix is, for the default seed, the sum over the exact days of
// each network's average likes per post.
var cmPinnedPrefix = map[int64]map[string]float64{1: {"hublaa.me": 7700, "official-liker.net": 7579.4}}

// cmSetups is the least number of worlds built per run; setup_s is the
// median over them.
const cmSetups = 9

// cmBoundaries are the traced timeline's control-plane timers.
type cmBoundaries struct {
	invalidation, clustering, join *boundary
}

// cmTimeline is one finished timeline.
type cmTimeline struct {
	daily                          map[string][]float64
	wall                           time.Duration
	win                            windowStats
	lat, lag                       []time.Duration // unit operations
	slices                         []slice         // one per day, placed by the day
	failed, refused                int64
	firstErr                       error
	attempted, delivered, failures int64
	denials                        map[string]int64
	// prefix* snapshot the counters at the end of day cmExactDays.
	prefixAttempted, prefixDelivered int64
	prefixDenials                    map[string]int64
	lockAcquired, lockContended      int64
	issued                           float64
	liveTokens                       int
}

func buildCountermeasures(seed int64) (*core.Study, error) {
	cfg := cmConfig(seed)
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: cfg.Networks,
		Seed:     cfg.Seed,
		Start:    time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC),
		ExtraOutageDays: map[string][]int{
			"hublaa.me": {44, 45, 46, 47, 48, 49},
		},
	})
	if err != nil {
		return nil, err
	}
	study.Countermeasures().SetTokenRateLimit(cfg.BaseTokenLimit, 24*time.Hour)
	return study, nil
}

// collusionCounters sums the study's like counters.
func collusionCounters(study *core.Study) (attempted, delivered, failures int64) {
	for _, ni := range study.Scenario.Networks {
		st := ni.Net.Stats()
		attempted += st.LikesAttempted
		delivered += st.LikesDelivered
		for _, n := range st.FailuresByCode {
			failures += n
		}
	}
	return
}

// runTimeline drives the 75-day campaign on a freshly built study, timing
// every unit operation; b is non-nil in traced runs.
func runTimeline(study *core.Study, seed int64, b *cmBoundaries) cmTimeline {
	cfg := cmConfig(seed)
	cm := study.Countermeasures()
	nets := study.Scenario.Networks
	tl := cmTimeline{daily: map[string][]float64{}}
	timed := func(bd *boundary, f func()) {
		if bd == nil {
			f()
			return
		}
		t0 := time.Now()
		f()
		bd.observe(time.Since(t0))
	}
	var inv, clu, join *boundary
	if b != nil {
		inv, clu, join = b.invalidation, b.clustering, b.join
	}
	tl.lat = make([]time.Duration, 0, 8192)
	tl.lag = make([]time.Duration, 0, 8192)
	tl.slices = make([]slice, 0, cfg.Days)
	graph := study.Scenario.Platform.Graph
	acq0, con0 := graph.Contention().Totals()
	issued0 := scrape(study.Observer(), "oauth_tokens_issued_total", "app")
	attempted, _, _ := collusionCounters(study)

	win := openWindow()
	op := func(due time.Time, f func()) {
		start := time.Now()
		f()
		tl.lat = append(tl.lat, time.Since(start))
		tl.lag = append(tl.lag, start.Sub(due))
	}
	for day := 1; day <= cfg.Days; day++ {
		dayStart, dayOps := time.Now(), len(tl.lat)
		switch day {
		case 12:
			cm.SetTokenRateLimit(cfg.ReducedTokenLimit, 24*time.Hour)
		case 23:
			timed(inv, func() { cm.InvalidateMilkedFraction(0.5) })
		case 28:
			timed(inv, func() { cm.InvalidateMilkedAll() })
		case 46:
			cm.DeployIPRateLimits(cfg.IPDailyLimit, cfg.IPWeeklyLimit)
		case 55:
			cm.DeployClustering(time.Minute, 0.5, 3, 50)
		case 70:
			cm.BlockASes(workload.ASBulletproofA, workload.ASBulletproofB)
		}
		var joinErr error
		timed(join, func() {
			for _, ni := range nets {
				join := max(1, int(cfg.JoinFracPerDay*float64(ni.ScaledMembership)))
				ret := max(1, int(cfg.ReturnFracPerDay*float64(ni.ScaledMembership)))
				if err := ni.JoinFresh(join); err != nil {
					joinErr = err
					return
				}
				if err := ni.ResubmitReturning(ret); err != nil {
					joinErr = err
					return
				}
			}
		})
		if joinErr != nil {
			tl.failed++
			if tl.firstErr == nil {
				tl.firstErr = joinErr
			}
		}
		sum := map[string]float64{}
		count := map[string]int{}
		milked := map[string]int{}
		for hour := 0; hour < 24; hour++ {
			due := time.Now()
			for _, ni := range nets {
				name := ni.Spec.Name
				if milked[name] < cfg.MilksPerDay && hour*cfg.MilksPerDay/24 >= milked[name] {
					milked[name]++
					var res core.MilkResult
					op(due, func() { res = study.MilkNetwork(name) })
					count[name]++
					switch {
					case res.Err == nil:
						sum[name] += float64(res.Delivered)
					case errors.Is(res.Err, collusion.ErrOutage):
						tl.refused++
					default:
						tl.failed++
						if tl.firstErr == nil {
							tl.firstErr = res.Err
						}
					}
				}
				for i := 0; i < cfg.BackgroundPerHour; i++ {
					op(due, func() { ni.BackgroundRequests(1) })
				}
			}
			study.AdvanceHour()
		}
		for _, ni := range nets {
			name := ni.Spec.Name
			avg := 0.0
			if count[name] > 0 {
				avg = sum[name] / float64(count[name])
			}
			tl.daily[name] = append(tl.daily[name], avg)
		}
		switch {
		case day >= 36:
			timed(inv, func() { cm.InvalidateMilkedAll() })
		case day >= 28:
			timed(inv, func() { cm.InvalidateMilkedFraction(0.5) })
		}
		if day >= 55 {
			timed(clu, func() { cm.RunClusteringSweep() })
		}
		wall := time.Since(dayStart)
		a, _, _ := collusionCounters(study)
		tl.slices = append(tl.slices, slice{pos: day, wall: wall, cost: wall, likes: a - attempted, lat: tl.lat[dayOps:]})
		attempted = a
		if day == cmExactDays {
			tl.prefixAttempted, tl.prefixDelivered, _ = collusionCounters(study)
			tl.prefixDenials = study.Scenario.Platform.Chain().Denials()
		}
	}
	tl.win = win.close()
	tl.wall = tl.win.wall
	tl.attempted, tl.delivered, tl.failures = collusionCounters(study)
	tl.denials = study.Scenario.Platform.Chain().Denials()
	acq1, con1 := graph.Contention().Totals()
	tl.lockAcquired, tl.lockContended = acq1-acq0, con1-con0
	issued1 := scrape(study.Observer(), "oauth_tokens_issued_total", "app")
	for app, v := range issued1 {
		tl.issued += v - issued0[app]
	}
	tl.liveTokens = study.Scenario.Platform.OAuth.LiveTokenCount()
	return tl
}

// checkTimeline compares one timeline's daily series with a reference run
// of experiments.Figure5: exact over the first cmExactDays days, per
// phase mean within tolerance after that.
func checkTimeline(res *result, tl cmTimeline, ref map[string][]float64, label string) {
	for name, want := range ref {
		got := tl.daily[name]
		if len(got) != len(want) {
			res.checkf(false, "%s %s: %d days, reference has %d", label, name, len(got), len(want))
			continue
		}
		for d := 0; d < cmExactDays; d++ {
			if got[d] != want[d] {
				res.checkf(false, "%s %s day %d: %.2f likes/post, reference %.2f", label, name, d+1, got[d], want[d])
				break
			}
		}
		for p := 0; p+1 < len(cmPhases); p++ {
			if cmPhases[p] <= cmExactDays {
				continue
			}
			g, w := phaseMean(got, cmPhases[p], cmPhases[p+1]), phaseMean(want, cmPhases[p], cmPhases[p+1])
			res.checkf(math.Abs(g-w) <= math.Max(cmPhaseTolerance*w, cmPhaseSlack),
				"%s %s days %d-%d: %.1f likes/post, reference %.1f", label, name, cmPhases[p], cmPhases[p+1]-1, g, w)
		}
	}
	res.checkf(tl.failed == 0, "%s: %d operations failed unexpectedly (first: %v)", label, tl.failed, tl.firstErr)
}

// phaseMean averages series days [from, to), 1-based.
func phaseMean(s []float64, from, to int) float64 {
	t := 0.0
	for d := from; d < to; d++ {
		t += s[d-1]
	}
	return t / float64(to-from)
}

// prefixSums sums each network's first cmExactDays daily averages.
func prefixSums(daily map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, s := range daily {
		for d := 0; d < cmExactDays; d++ {
			out[name] += s[d]
		}
	}
	return out
}

// checkReference runs experiments.Figure5 with the workload's config and
// checks every timeline against it, and the pinned prefix for the seed.
func checkReference(res *result, seed int64, tls []cmTimeline) error {
	ref, err := experiments.Figure5(cmConfig(seed))
	if err != nil {
		return fmt.Errorf("reference Figure5: %w", err)
	}
	for i, tl := range tls {
		checkTimeline(res, tl, ref.Daily, fmt.Sprintf("timeline %d", i+1))
	}
	if want, ok := cmPinnedPrefix[seed]; ok {
		got := prefixSums(ref.Daily)
		for name, w := range want {
			res.checkf(math.Abs(got[name]-w) < 1e-6, "%s days 1-%d sum %.4f, pinned %.4f for seed %d",
				name, cmExactDays, got[name], w, seed)
		}
	}
	for name, v := range prefixSums(ref.Daily) {
		res.infof("reference %s: days 1-%d sum %.4f likes/post, last day %.1f", name, cmExactDays, v, ref.Daily[name][len(ref.Daily[name])-1])
	}
	return nil
}

func runCountermeasures(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceCountermeasures(cfg)
	}
	var tls []cmTimeline
	var setups []float64
	var measured time.Duration
	host := newMachine()
	for measured < cfg.seconds || len(setups) < cmSetups {
		runtime.GC()
		host.sample()
		t0 := time.Now()
		study, err := buildCountermeasures(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if measured >= cfg.seconds {
			continue // an extra build for the setup median only
		}
		tl := runTimeline(study, cfg.seed, nil)
		measured += tl.wall
		tls = append(tls, tl)
	}

	var win windowStats
	var slices []slice
	var ops, failed int64
	for _, tl := range tls {
		win.add(tl.win)
		slices = append(slices, tl.slices...)
		ops += int64(len(tl.lat))
		failed += tl.failed
	}
	res := &result{attempted: ops, failed: failed, metrics: newTable(endToEndMetrics)}
	t := res.metrics
	t.set("setup_s", median(setups))
	q := quiet(slices)
	t.set("like_attempts_per_s", quietRate(q))
	info, err := reportLatency(t, q, slices)
	if err != nil {
		return nil, err
	}
	res.infof("%s; a slice is one simulated day of a timeline", info)
	host.scale(res, "like_attempts_per_s", "p50_ms")
	var refused int64
	for _, tl := range tls {
		refused += tl.refused
	}
	res.infof("%d timelines of %d days in %.2fs; %d honeypot milks refused by site outages", len(tls), cmConfig(cfg.seed).Days, win.wall.Seconds(), refused)
	win.reportMemory(t, res.attempted)
	if err := checkReference(res, cfg.seed, tls); err != nil {
		return nil, err
	}
	return res, nil
}

// traceCountermeasures runs one timeline untraced and one traced from the
// same seed. Counts must agree exactly over the deterministic prefix
// (days 1-22) and per phase after it, as for the reference check.
func traceCountermeasures(cfg runConfig) (*result, error) {
	sa, err := buildCountermeasures(cfg.seed)
	if err != nil {
		return nil, err
	}
	a := runTimeline(sa, cfg.seed, nil)
	sa = nil
	runtime.GC()
	sb, err := buildCountermeasures(cfg.seed)
	if err != nil {
		return nil, err
	}
	bd := &cmBoundaries{invalidation: &boundary{}, clustering: &boundary{}, join: &boundary{}}
	b := runTimeline(sb, cfg.seed, bd)

	res := &result{attempted: int64(len(b.lat)), failed: b.failed, metrics: newTable(perLayerMetrics)}
	checkTimeline(res, b, a.daily, "traced timeline")
	res.checkf(a.prefixAttempted == b.prefixAttempted && a.prefixDelivered == b.prefixDelivered &&
		fmt.Sprint(a.prefixDenials) == fmt.Sprint(b.prefixDenials),
		"days 1-%d differ between untraced and traced passes: attempted %d/%d delivered %d/%d denials %v/%v",
		cmExactDays, a.prefixAttempted, b.prefixAttempted, a.prefixDelivered, b.prefixDelivered, a.prefixDenials, b.prefixDenials)

	t := res.metrics
	bd.invalidation.report(t, "defense.invalidation_sweep", "count", "busy_ms")
	bd.clustering.report(t, "defense.clustering_sweep", "count", "busy_ms", "max_us")
	var denied int64
	for _, p := range deniedPolicies {
		t.set("defense.denied."+p, float64(b.denials[p]))
	}
	for _, n := range b.denials {
		denied += n
	}
	if b.attempted > 0 {
		t.set("defense.denied_frac", float64(denied)/float64(b.attempted))
	}
	reportCollusion(t, b.attempted, b.delivered, b.failures)
	t.set("oauthsim.authorize.count", b.issued)
	t.set("oauthsim.live_tokens", float64(b.liveTokens))
	t.set("workload.join.busy_ms", ms(sum(bd.join.samples())))
	reportStore(t, sb.Scenario.Platform.Graph, b.lockAcquired, b.lockContended, res.attempted)
	lag, _ := percentile(sortedCopy(b.lag), 0.99)
	t.set("workload.queue_wait_p99_us", us(lag))
	t.set("workload.error_rate", float64(b.failed)/float64(res.attempted))
	reportAllocGauges(t, sb.Observer())
	reportRuntime(t, b.win)
	t.set("trace.overhead_frac", float64(sum(b.lat))/float64(sum(a.lat))-1)
	control := sum(bd.invalidation.samples()) + sum(bd.clustering.samples()) + sum(bd.join.samples())
	t.set("trace.residual_ms", ms(b.wall-sum(b.lat)-control))
	res.infof("untraced pass %.2fs, traced pass %.2fs, %d unit operations each", a.wall.Seconds(), b.wall.Seconds(), len(b.lat))
	return res, nil
}
