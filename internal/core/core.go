// Package core is the top-level library of the reproduction: it wires the
// simulated world (platform + collusion networks + member populations)
// together with the measurement apparatus (honeypots + estimators) and
// the countermeasure stack, exposing the paper's measure-and-mitigate
// loop as a single Study object.
//
// A Study owns:
//
//   - a workload.Scenario — the platform, exploited applications, and the
//     instantiated collusion networks with populated token pools;
//   - one honeypot per collusion network, already joined;
//   - per-network estimators fed by every milking round (Table 4,
//     Figures 4 and 6);
//   - a Countermeasures handle through which the Section 6 defenses are
//     deployed incrementally, exactly as in the Figure 5 timeline.
//
// Time is fully simulated: AdvanceHour/AdvanceDay move the world forward.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/collusion"
	"repro/internal/defense"
	"repro/internal/graphapi"
	"repro/internal/honeypot"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// Study is the orchestrated reproduction.
type Study struct {
	Scenario *workload.Scenario
	// Honeypots and Estimators are keyed by collusion network name.
	Honeypots  map[string]*honeypot.Honeypot
	Estimators map[string]*honeypot.Estimator

	counter *Countermeasures
	rng     *rand.Rand
}

// NewStudy builds the world and infiltrates every selected collusion
// network with a honeypot.
func NewStudy(opts workload.Options) (*Study, error) {
	scenario, err := workload.BuildScenario(opts)
	if err != nil {
		return nil, err
	}
	s := &Study{
		Scenario:   scenario,
		Honeypots:  make(map[string]*honeypot.Honeypot),
		Estimators: make(map[string]*honeypot.Estimator),
		rng:        rand.New(rand.NewSource(scenario.Opts.Seed + 99)),
	}
	for _, ni := range scenario.Networks {
		hp := honeypot.New(honeypot.Config{
			Clock:   scenario.Clock,
			Graph:   scenario.Platform.Graph,
			Client:  scenario.Client,
			Site:    ni.Net,
			App:     scenario.Apps[ni.Spec.App],
			Name:    "honeypot-" + ni.Spec.Name,
			Country: "US",
		})
		if err := hp.Join(); err != nil {
			return nil, fmt.Errorf("core: honeypot join %s: %w", ni.Spec.Name, err)
		}
		s.Honeypots[ni.Spec.Name] = hp
		s.Estimators[ni.Spec.Name] = honeypot.NewEstimator()
	}
	s.counter = newCountermeasures(s)
	return s, nil
}

// Clock returns the study's simulated clock.
func (s *Study) Clock() *simclock.Simulated { return s.Scenario.Clock }

// Observer returns the platform's observability layer — the tracer the
// milking spans land in and the registry /metrics serves.
func (s *Study) Observer() *obs.Observer { return s.Scenario.Platform.Obs }

// milkSpan opens the per-network per-round span and an allocation window
// over the whole round; closeMilkSpan annotates the span with the round's
// outcome and closes the window (allocs_per_op{op="milk.round"}).
func (s *Study) milkSpan(network string) (*obs.Span, obs.AllocSample) {
	_, span := s.Observer().T().StartSpan(nil, "milk.round")
	span.SetAttr("network", network)
	return span, s.Observer().A().Begin(nil, "milk.round")
}

func closeMilkSpan(span *obs.Span, as obs.AllocSample, res MilkResult) {
	as.End(1)
	if span == nil {
		return
	}
	if res.Err != nil {
		span.Event("error", "message", res.Err.Error())
	}
	span.SetAttr("post", res.PostID)
	span.SetAttr("delivered", strconv.Itoa(res.Delivered))
	span.SetAttr("likers", strconv.Itoa(len(res.Likers)))
	span.End()
}

// AdvanceHour moves simulated time forward one hour.
func (s *Study) AdvanceHour() { s.Scenario.Clock.Advance(time.Hour) }

// AdvanceDay moves simulated time forward one day.
func (s *Study) AdvanceDay() { s.Scenario.Clock.Advance(24 * time.Hour) }

// SweepRetention runs one retention sweep against the social graph at the
// current simulated instant. With the default infinite retention window
// (Options.RetentionWindow zero) this is a no-op, so campaign drivers can
// call it unconditionally each round.
func (s *Study) SweepRetention() socialgraph.SweepResult {
	return s.Scenario.Platform.Graph.RetentionSweep(s.Scenario.Clock.Now())
}

// MilkResult is the outcome of one milking round on one network.
type MilkResult struct {
	Network   string
	PostID    string
	Delivered int
	Likers    []string
	Err       error
}

// MilkNetwork performs one milking round against the named network with
// the network's own honeypot (see MilkVia).
func (s *Study) MilkNetwork(name string) MilkResult {
	hp, ok := s.Honeypots[name]
	if !ok {
		return MilkResult{Network: name, Err: fmt.Errorf("core: unknown network %q", name)}
	}
	return s.MilkVia(hp, name)
}

// AddHoneypot registers an additional honeypot on the named network and
// joins it — the Sec. 6.5 counter to collusion-network honeypot
// detection: several accounts each below the suspicion threshold carry
// the campaign a single aggressive honeypot cannot.
func (s *Study) AddHoneypot(network string) (*honeypot.Honeypot, error) {
	ni, ok := s.Scenario.FindNetwork(network)
	if !ok {
		return nil, fmt.Errorf("core: unknown network %q", network)
	}
	hp := honeypot.New(honeypot.Config{
		Clock:   s.Scenario.Clock,
		Graph:   s.Scenario.Platform.Graph,
		Client:  s.Scenario.Client,
		Site:    ni.Net,
		App:     s.Scenario.Apps[ni.Spec.App],
		Name:    fmt.Sprintf("honeypot-%s-%d", network, s.rng.Int()),
		Country: "US",
	})
	if err := hp.Join(); err != nil {
		return nil, err
	}
	return hp, nil
}

// MilkVia performs one milking round against network with the given
// honeypot: the honeypot posts a status, requests likes, and crawls the
// likers. The network's shared estimator is updated and the milked
// accounts are queued with the countermeasure pipeline (they only get
// invalidated when a sweep runs). Use with AddHoneypot to spread a
// campaign across a fleet.
//
// When the site has dropped the honeypot's membership — its token expired
// or was invalidated (the countermeasures do not spare honeypots) — the
// honeypot re-runs the install flow and retries once, as the paper's
// long-running automation had to.
func (s *Study) MilkVia(hp *honeypot.Honeypot, network string) (res MilkResult) {
	est, ok := s.Estimators[network]
	if !ok {
		return MilkResult{Network: network, Err: fmt.Errorf("core: unknown network %q", network)}
	}
	span, allocs := s.milkSpan(network)
	defer func() { closeMilkSpan(span, allocs, res) }()
	postID, delivered, err := hp.MilkOnce()
	if err != nil && errors.Is(err, collusion.ErrNotMember) {
		span.Event("rejoin")
		if rerr := hp.Rejoin(); rerr == nil {
			postID, delivered, err = hp.MilkOnce()
		}
	}
	if err != nil {
		return MilkResult{Network: network, PostID: postID, Err: err}
	}
	likes := s.Scenario.Platform.Graph.Likes(postID)
	likers := make([]string, len(likes))
	for i, l := range likes {
		likers[i] = l.AccountID
	}
	est.ObservePost(likers)
	s.counter.noteMilked(likers)
	return MilkResult{Network: network, PostID: postID, Delivered: delivered, Likers: likers}
}

// MilkAll runs rounds milking rounds against every network and returns
// the results in network order.
func (s *Study) MilkAll(rounds int) []MilkResult {
	var out []MilkResult
	for r := 0; r < rounds; r++ {
		for _, ni := range s.Scenario.Networks {
			out = append(out, s.MilkNetwork(ni.Spec.Name))
		}
	}
	return out
}

// MilkAllParallel runs rounds milking rounds against every network,
// milking all networks' honeypots concurrently within each round through
// a bounded worker pool — the paper's 22 honeypots posted and requested
// likes simultaneously every hour, not one network after another, and on
// the sharded store the concurrent rounds scale with cores instead of
// serializing on a single graph mutex.
//
// workers <= 0 uses GOMAXPROCS. Each network is milked by exactly one
// worker per round (honeypots and estimators are single-writer state),
// and a barrier between rounds preserves the round structure the
// estimators' Figure 4 curves depend on. Results are returned in the
// same order MilkAll produces: network order within each round.
func (s *Study) MilkAllParallel(rounds, workers int) []MilkResult {
	nets := s.Scenario.Networks
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(nets) {
		workers = len(nets)
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]MilkResult, 0, rounds*len(nets))
	for r := 0; r < rounds; r++ {
		results := make([]MilkResult, len(nets))
		tasks := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range tasks {
					results[i] = s.MilkNetwork(nets[i].Spec.Name)
				}
			}()
		}
		for i := range nets {
			tasks <- i
		}
		close(tasks)
		wg.Wait()
		out = append(out, results...)
	}
	return out
}

// Countermeasures returns the deployment handle.
func (s *Study) Countermeasures() *Countermeasures { return s.counter }

// Countermeasures deploys the Section 6 defenses onto the platform's
// policy chain and manages the honeypot-fed invalidation pipeline.
type Countermeasures struct {
	study *Study

	tokenLimiter *defense.TokenRateLimiter
	ipLimiter    *defense.IPRateLimiter
	asBlocker    *defense.ASBlocker
	tap          *defense.SynchroTap
	invalidator  *defense.Invalidator

	// actions shares the defense_actions_total family the Graph API uses
	// for policy denials, adding the control-plane side: deployments and
	// sweeps, so the Figure 5 phase boundaries appear in /metrics.
	actions *obs.CounterVec
}

func newCountermeasures(s *Study) *Countermeasures {
	inv := defense.NewInvalidator(func(accountID, reason string) bool {
		return s.Scenario.Platform.OAuth.InvalidateAccount(accountID, reason) > 0
	}, "honeypot-milked")
	actions := s.Observer().M().Counter("defense_actions_total",
		"Defense actions taken, by countermeasure and action.",
		"countermeasure", "action")
	return &Countermeasures{study: s, invalidator: inv, actions: actions}
}

func (c *Countermeasures) chain() *graphapi.Chain {
	return c.study.Scenario.Platform.Chain()
}

// noteMilked queues milked accounts for future invalidation sweeps.
func (c *Countermeasures) noteMilked(accountIDs []string) {
	c.invalidator.Submit(accountIDs)
}

// SetTokenRateLimit deploys (or adjusts) the per-token write rate limit
// of Sec. 6.1.
func (c *Countermeasures) SetTokenRateLimit(limit int, window time.Duration) {
	if c.tokenLimiter == nil {
		c.tokenLimiter = defense.NewTokenRateLimiter(c.study.Scenario.Clock, limit, window)
		c.chain().Append(c.tokenLimiter)
		c.actions.Inc("token-rate-limit", "deploy")
		return
	}
	c.tokenLimiter.SetLimit(limit)
	c.actions.Inc("token-rate-limit", "adjust")
}

// InvalidateMilkedFraction revokes the given fraction of the queued
// milked accounts' tokens (Sec. 6.2) and returns how many accounts were
// swept.
func (c *Countermeasures) InvalidateMilkedFraction(fraction float64) int {
	n := c.invalidator.InvalidateFraction(fraction, c.study.rng)
	if n > 0 {
		c.actions.Add(int64(n), "token-invalidation", "sweep")
	}
	return n
}

// InvalidateMilkedAll revokes every queued milked account's tokens.
func (c *Countermeasures) InvalidateMilkedAll() int {
	n := c.invalidator.InvalidateAll()
	if n > 0 {
		c.actions.Add(int64(n), "token-invalidation", "sweep")
	}
	return n
}

// PendingMilked reports the invalidation backlog size.
func (c *Countermeasures) PendingMilked() int { return c.invalidator.PendingCount() }

// RevokedMilked reports how many milked accounts have been swept.
func (c *Countermeasures) RevokedMilked() int { return c.invalidator.RevokedCount() }

// DeployClustering attaches a SynchroTrap detector to the request path
// (Sec. 6.3) and returns it for inspection.
func (c *Countermeasures) DeployClustering(window time.Duration, simThreshold float64, minShared, minClusterSize int) *defense.SynchroTrap {
	trap := defense.NewSynchroTrap(window, simThreshold, minShared, minClusterSize)
	c.tap = defense.NewSynchroTap(trap)
	c.chain().Append(c.tap)
	c.actions.Inc("synchrotrap", "deploy")
	return trap
}

// RunClusteringSweep detects clusters and suspends every clustered
// account's tokens; it returns the number of accounts actioned. In the
// paper this had no measurable impact — collusion networks spread their
// activity too thinly (Figures 6–7).
func (c *Countermeasures) RunClusteringSweep() int {
	if c.tap == nil {
		return 0
	}
	n := 0
	for _, cluster := range c.tap.Trap().Detect() {
		for _, accountID := range cluster.Accounts {
			if c.study.Scenario.Platform.OAuth.InvalidateAccount(accountID, "synchrotrap") > 0 {
				n++
			}
		}
	}
	if n > 0 {
		c.actions.Add(int64(n), "synchrotrap", "cluster-hit")
	}
	return n
}

// DeployIPRateLimits installs the per-IP daily/weekly like caps of
// Sec. 6.4.
func (c *Countermeasures) DeployIPRateLimits(daily, weekly int) {
	if c.ipLimiter != nil {
		return
	}
	c.ipLimiter = defense.NewIPRateLimiter(c.study.Scenario.Clock, daily, weekly)
	c.chain().Append(c.ipLimiter)
	c.actions.Inc("ip-rate-limit", "deploy")
}

// BlockASes blocks the given autonomous systems for all susceptible
// applications registered in the scenario (scoping limits collateral
// damage, Sec. 6.4).
func (c *Countermeasures) BlockASes(asns ...netsim.ASN) {
	if c.asBlocker == nil {
		c.asBlocker = defense.NewASBlocker()
		for _, app := range c.study.Scenario.Platform.Apps.All() {
			if app.Susceptible() {
				c.asBlocker.ScopeToApps(app.ID)
			}
		}
		c.chain().Append(c.asBlocker)
	}
	for _, asn := range asns {
		c.asBlocker.Block(asn)
		c.actions.Inc("as-block", "block")
	}
}

// SuspendAccounts checkpoints the given accounts (no writes until
// reinstated) and invalidates their tokens — the account-level action an
// abuse-detection verdict feeds (the paper notes OSNs suspend suspicious
// accounts; the ML extension supplies the verdicts). It returns how many
// accounts were newly suspended.
func (c *Countermeasures) SuspendAccounts(accountIDs []string, reason string) int {
	graph := c.study.Scenario.Platform.Graph
	oauth := c.study.Scenario.Platform.OAuth
	n := 0
	for _, id := range accountIDs {
		acct, err := graph.Account(id)
		if err != nil || acct.Suspended {
			continue
		}
		if err := graph.SetSuspended(id, true); err != nil {
			continue
		}
		oauth.InvalidateAccount(id, reason)
		n++
	}
	if n > 0 {
		c.actions.Add(int64(n), "account-suspend", "suspend")
	}
	return n
}

// ActivePolicies lists the deployed policy names in evaluation order.
func (c *Countermeasures) ActivePolicies() []string {
	return c.chain().Names()
}
