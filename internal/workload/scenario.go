package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/honeypot"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/shorturl"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// Autonomous system numbers used by the scenario.
const (
	ASBulletproofA netsim.ASN = 64500 // hublaa.me's first bulletproof AS
	ASBulletproofB netsim.ASN = 64501 // hublaa.me's second bulletproof AS
	ASGenericHost  netsim.ASN = 65000 // everyone else's hosting
)

// epoch is November 1, 2015, the start of the paper's milking campaign:
// the default Options.Start, and the start of every scale profile.
var epoch = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

// Options parameterises scenario construction.
type Options struct {
	// Scale divides the paper's population numbers (memberships, IP pool
	// sizes). 1 reproduces full scale; tests use 100–1000.
	Scale int
	// MinMembers floors the scaled membership per network so tiny scales
	// remain meaningful.
	MinMembers int
	// Networks selects a subset of the 22 specs by name; nil = all.
	Networks []string
	// Start is the simulation epoch; zero means November 1, 2015 (the
	// start of the paper's milking campaign).
	Start time.Time
	// Seed drives all randomness.
	Seed int64
	// ExtraOutageDays schedules additional site outages per network name
	// (e.g. hublaa.me's day 45–50 shutdown during the countermeasure
	// campaign).
	ExtraOutageDays map[string][]int
	// Shards pins the platform's social-graph stripe count; 0 selects
	// the GOMAXPROCS-scaled default. Experiments sweep this.
	Shards int
	// DeliveryBatchSize is passed through to every network's delivery
	// engine: 0 selects the collusion default (batched, 50-op chunks); a
	// negative size disables batching so every like takes its own
	// transport call. A/B benchmarks and the contention sweep flip this.
	DeliveryBatchSize int
	// RetentionWindow bounds the social graph's edge-history retention
	// (see socialgraph.SetRetentionWindow); 0 keeps the default infinite
	// window, so nothing is ever evicted and Table-4 outputs are
	// untouched. Sweeps still only run when something calls
	// Store.RetentionSweep (e.g. core.Study.SweepRetention).
	RetentionWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 100
	}
	if o.MinMembers <= 0 {
		o.MinMembers = 40
	}
	if o.Start.IsZero() {
		o.Start = epoch
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ScaledMembership returns the membership target after scaling.
func ScaledMembership(spec NetworkSpec, scale, min int) int {
	m := spec.Membership / scale
	if m < min {
		m = min
	}
	return m
}

// NetworkInstance is one instantiated collusion network plus its member
// population.
type NetworkInstance struct {
	Spec    NetworkSpec
	Net     *collusion.Network
	Members []socialgraph.Account
	// ScaledMembership is the initial member count.
	ScaledMembership int
	// ShortCode is the network's install-link short URL: every joining
	// member clicks through it, so the shortener's public analytics
	// accumulate the traffic the paper mined in Table 5.
	ShortCode string

	scenario *Scenario
	rng      *rand.Rand
	mix      netsim.CountryMix
	nextID   int
}

// Scenario is a fully wired world: platform, Internet, exploited apps,
// and collusion networks with populated token pools.
type Scenario struct {
	Opts     Options
	Clock    *simclock.Simulated
	Platform *platform.Platform
	Client   platform.Client
	Internet *netsim.Internet
	// Apps maps exploited application name -> registered app.
	Apps map[string]apps.App
	// Networks holds the instantiated collusion networks in spec order.
	Networks []*NetworkInstance
	// ShortURLs is the goo.gl-style shortener the networks funnel members
	// through; one code per network (see NetworkInstance.ShortCode).
	ShortURLs *shorturl.Service

	rng *rand.Rand
}

// BuildScenario assembles the world.
func BuildScenario(opts Options) (*Scenario, error) {
	opts = opts.withDefaults()
	clock := simclock.NewSimulated(opts.Start)
	internet := netsim.NewInternet()
	register := func(as netsim.AS, prefixes ...string) error {
		return internet.RegisterAS(as, prefixes...)
	}
	if err := register(netsim.AS{Number: ASBulletproofA, Name: "BP-HOSTING-A", Country: "RU", Bulletproof: true}, "203.0.0.0/16"); err != nil {
		return nil, err
	}
	if err := register(netsim.AS{Number: ASBulletproofB, Name: "BP-HOSTING-B", Country: "UA", Bulletproof: true}, "198.18.0.0/16"); err != nil {
		return nil, err
	}
	if err := register(netsim.AS{Number: ASGenericHost, Name: "GENERIC-HOSTING", Country: "US"}, "192.168.0.0/16"); err != nil {
		return nil, err
	}

	p := platform.NewWithConfig(clock, internet, platform.Config{Provider: provider.Default(), Shards: opts.Shards})
	if opts.RetentionWindow > 0 {
		p.Graph.SetRetentionWindow(opts.RetentionWindow)
	}
	client := platform.NewLocalClient(p)
	s := &Scenario{
		Opts:      opts,
		Clock:     clock,
		Platform:  p,
		Client:    client,
		Internet:  internet,
		Apps:      make(map[string]apps.App),
		ShortURLs: shorturl.NewService(clock),
		rng:       rand.New(rand.NewSource(opts.Seed)),
	}

	for _, spec := range ExploitedApps() {
		app := p.Apps.Register(apps.Config{
			Name:              spec.Name,
			RedirectURI:       "https://" + sanitizeHost(spec.Name) + ".example/callback",
			ClientFlowEnabled: true,
			RequireAppSecret:  false,
			Lifetime:          apps.LongTerm,
			// The full read/write set collusion networks ask members to
			// grant — user_friends is what turns pooled tokens into
			// social-graph harvesting material (Sec. 8).
			Permissions: []string{apps.PermPublicProfile, apps.PermEmail, apps.PermUserFriends, apps.PermPublishActions},
			MAU:         spec.MAU,
			DAU:         spec.DAU,
		})
		s.Apps[spec.Name] = app
	}

	selected := Networks()
	if opts.Networks != nil {
		want := make(map[string]bool, len(opts.Networks))
		for _, n := range opts.Networks {
			want[n] = true
		}
		var filtered []NetworkSpec
		for _, spec := range selected {
			if want[spec.Name] {
				filtered = append(filtered, spec)
			}
		}
		selected = filtered
	}

	for i, spec := range selected {
		ni, err := s.buildNetwork(spec, int64(i))
		if err != nil {
			return nil, fmt.Errorf("workload: building %s: %w", spec.Name, err)
		}
		s.Networks = append(s.Networks, ni)
	}
	return s, nil
}

func (s *Scenario) buildNetwork(spec NetworkSpec, ordinal int64) (*NetworkInstance, error) {
	// Allocate the delivery IP pool: hublaa.me spans the two bulletproof
	// ASes, everything else takes a few generic hosting addresses.
	ipCount := spec.IPCount
	if ipCount > 1 && s.Opts.Scale > 1 {
		ipCount = spec.IPCount / s.Opts.Scale
		if ipCount < 2 {
			ipCount = 2
		}
	}
	var ips []string
	if spec.Bulletproof {
		half := ipCount / 2
		for _, alloc := range []struct {
			asn netsim.ASN
			n   int
		}{{ASBulletproofA, ipCount - half}, {ASBulletproofB, half}} {
			addrs, err := s.Internet.AllocateN(alloc.asn, alloc.n)
			if err != nil {
				return nil, err
			}
			for _, a := range addrs {
				ips = append(ips, a.String())
			}
		}
	} else {
		addrs, err := s.Internet.AllocateN(ASGenericHost, ipCount)
		if err != nil {
			return nil, err
		}
		for _, a := range addrs {
			ips = append(ips, a.String())
		}
	}

	app, ok := s.Apps[spec.App]
	if !ok {
		return nil, fmt.Errorf("unknown exploited app %q", spec.App)
	}

	cfg := collusion.Config{
		Name:               spec.Name,
		AppID:              app.ID,
		AppRedirectURI:     app.RedirectURI,
		Scopes:             []string{apps.PermPublicProfile, apps.PermPublishActions},
		LikesPerRequest:    spec.LikesPerRequest,
		CommentsPerRequest: spec.CommentsPerRequest,
		DailyRequestLimit:  spec.DailyRequestLimit,
		IPs:                ips,
		Seed:               s.Opts.Seed*1000 + ordinal,
		AdsPerVisit:        3,
		DeliveryBatchSize:  s.Opts.DeliveryBatchSize,
	}
	if spec.CommentsPerRequest > 0 {
		cfg.CommentDictionary = GenerateCommentDictionary(spec.Name, spec.UniqueComments, s.Opts.Seed)
	}
	if spec.HotSet {
		// A hot set of twice the per-request quota: comfortable headroom
		// under Facebook's generous default rate limit, but roughly half
		// the engine's daily demand once the limit is reduced (the
		// Figure 5 dip).
		cfg.HotSetSize = spec.LikesPerRequest * 2
		cfg.AdaptationLagDays = 6
	}
	if spec.Intermittent {
		// Intermittent sites go down every fifth day.
		for d := 4; d < 120; d += 5 {
			cfg.OutageDays = append(cfg.OutageDays, d)
		}
	}
	cfg.OutageDays = append(cfg.OutageDays, s.Opts.ExtraOutageDays[spec.Name]...)

	net := collusion.NewNetwork(cfg, s.Clock, s.Client)
	// Delivery bursts land in the platform's trace buffer and per-network
	// counters; the network is attacker-side, but the measurement vantage
	// point (this reproduction) sees both sides, as the paper's did.
	net.SetObserver(s.Platform.Obs)
	ni := &NetworkInstance{
		Spec:             spec,
		Net:              net,
		ScaledMembership: ScaledMembership(spec, s.Opts.Scale, s.Opts.MinMembers),
		ShortCode:        s.ShortURLs.Shorten("https://platform.example/dialog/oauth?client_id=" + app.ID),
		scenario:         s,
		rng:              rand.New(rand.NewSource(s.Opts.Seed*7919 + ordinal)),
		mix:              CountryMixFor(spec),
	}
	if err := ni.JoinFresh(ni.ScaledMembership); err != nil {
		return nil, err
	}
	return ni, nil
}

// CountryMixFor builds the member geography of Table 2: the top country
// gets its reported share, the remainder is split evenly across the
// paper's other frequent visitor countries.
func CountryMixFor(spec NetworkSpec) netsim.CountryMix {
	others := []string{"IN", "EG", "TR", "VN", "BD", "PK", "ID", "DZ"}
	weights := make(map[string]float64, len(others)+1)
	rest := (1 - spec.TopCountryShare) / float64(len(others)-1)
	for _, c := range others {
		if c != spec.TopCountry {
			weights[c] = rest
		}
	}
	weights[spec.TopCountry] = spec.TopCountryShare
	return netsim.NewCountryMix(weights)
}

// JoinFresh creates count new member accounts, walks each through the
// implicit flow, and submits their tokens to the network. It models both
// initial population and the daily arrival of new members that replenishes
// pools after invalidation sweeps (Sec. 6.2).
func (ni *NetworkInstance) JoinFresh(count int) error {
	s := ni.scenario
	app := s.Apps[ni.Spec.App]
	for i := 0; i < count; i++ {
		ni.nextID++
		country := ni.sampleCountry()
		acct := s.Platform.Graph.CreateAccount(
			fmt.Sprintf("%s-member-%d", sanitizeHost(ni.Spec.Name), ni.nextID), country, s.Clock.Now())
		// The joining member reaches the install dialog through the
		// network's short URL, leaving the click trail Table 5 mines.
		if _, err := s.ShortURLs.Resolve(ni.ShortCode, ni.Spec.Name, country); err != nil {
			return err
		}
		tok, err := s.Client.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID,
			[]string{apps.PermPublicProfile, apps.PermUserFriends, apps.PermPublishActions})
		if err != nil {
			return err
		}
		if err := ni.Net.SubmitToken(acct.ID, tok); err != nil {
			// The site being down is a legitimate outcome for arrivals on
			// outage days; skip those members.
			continue
		}
		ni.Members = append(ni.Members, acct)
	}
	return nil
}

// SwitchApp repoints the network at another exploited application (by
// ExploitedApps name): the collusion-operator response to having their
// current app suspended. Subsequent joins and resubmissions authorize
// the new app.
func (ni *NetworkInstance) SwitchApp(appName string) error {
	app, ok := ni.scenario.Apps[appName]
	if !ok {
		return fmt.Errorf("workload: unknown exploited app %q", appName)
	}
	ni.Spec.App = appName
	ni.Net.SwitchApp(app.ID, app.RedirectURI)
	return nil
}

// ResubmitReturning refreshes tokens for count existing members (returning
// users whose tokens were invalidated re-run the install flow).
func (ni *NetworkInstance) ResubmitReturning(count int) error {
	s := ni.scenario
	app := s.Apps[ni.Spec.App]
	for i := 0; i < count && len(ni.Members) > 0; i++ {
		m := ni.Members[ni.rng.Intn(len(ni.Members))]
		tok, err := s.Client.AuthorizeImplicit(app.ID, app.RedirectURI, m.ID,
			[]string{apps.PermPublicProfile, apps.PermUserFriends, apps.PermPublishActions})
		if err != nil {
			return err
		}
		if err := ni.Net.SubmitToken(m.ID, tok); err != nil {
			continue
		}
	}
	return nil
}

// BackgroundRequests makes count randomly chosen members each publish a
// post and request likes on it — the organic traffic that spends pooled
// tokens (including honeypots') on other members' posts.
func (ni *NetworkInstance) BackgroundRequests(count int) {
	s := ni.scenario
	for i := 0; i < count && len(ni.Members) > 0; i++ {
		m := ni.Members[ni.rng.Intn(len(ni.Members))]
		post, err := s.Platform.Graph.CreatePost(m.ID,
			fmt.Sprintf("background post by %s", m.Name),
			socialgraph.WriteMeta{At: s.Clock.Now()})
		if err != nil {
			continue
		}
		answer := ""
		if ni.Net.Config().CaptchaRequired {
			answer = honeypot.SolveArithmetic(ni.Net.Challenge(m.ID))
		}
		_, _ = ni.Net.RequestLikes(m.ID, post.ID, answer)
	}
}

// BackgroundPageRequests makes count members create pages and request
// likes on them, producing the page targets of Table 4.
func (ni *NetworkInstance) BackgroundPageRequests(count int) {
	s := ni.scenario
	for i := 0; i < count && len(ni.Members) > 0; i++ {
		m := ni.Members[ni.rng.Intn(len(ni.Members))]
		page, err := s.Platform.Graph.CreatePage(m.ID,
			fmt.Sprintf("%s fan page %d", m.Name, i), s.Clock.Now())
		if err != nil {
			continue
		}
		answer := ""
		if ni.Net.Config().CaptchaRequired {
			answer = honeypot.SolveArithmetic(ni.Net.Challenge(m.ID))
		}
		_, _ = ni.Net.RequestLikes(m.ID, page.ID, answer)
	}
}

// FindNetwork returns the instance with the given name.
func (s *Scenario) FindNetwork(name string) (*NetworkInstance, bool) {
	for _, ni := range s.Networks {
		if ni.Spec.Name == name {
			return ni, true
		}
	}
	return nil, false
}

func (ni *NetworkInstance) sampleCountry() string {
	return ni.mix.Sample(ni.rng)
}

// sanitizeHost turns a network/app name into a hostname-ish label.
func sanitizeHost(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ':
			out = append(out, '-')
		}
	}
	return string(out)
}
