package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/defense"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/simclock"
)

// Cross-platform collusion (provider-abstraction capstone). One collusion
// network harvests tokens on the paper's platform (implicit flow: tokens
// leak through the redirect fragment) and also registers a companion app
// on a second, code-flow-only platform, pooling credentials there via
// member-submitted authorization codes. It then amplifies on both.
//
// The defensive question: the two platforms see disjoint account
// namespaces, but the network reuses one delivery IP pool. An IP-keyed
// temporal-clustering detector (defense.SignalPlane) either runs siloed —
// each platform over its own half of the activity — or shared, pooling
// both platforms' like streams into one detector. The experiment emits
// the comparison table: likes delivered per platform, IPs flagged, and
// the detection rate under each wiring.

// CrossPlatformConfig parameterises the scenario.
type CrossPlatformConfig struct {
	Seed int64
}

// The scenario's size: the network's membership on each platform, how
// many target posts receive a like burst on each platform, and the size
// of the network's shared IP pool.
const (
	crossMembers          = 30
	crossPostsPerPlatform = 6
	crossDeliveryIPs      = 4
)

func (c CrossPlatformConfig) withDefaults() CrossPlatformConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CrossPlatformRow is one signal-wiring mode's outcome.
type CrossPlatformRow struct {
	Mode          string
	LikesA        int64
	LikesB        int64
	PoolIPs       int
	FlaggedIPs    int
	DetectionRate float64
	Clusters      int
}

// CrossPlatformResult carries the rendered table and the raw rows.
type CrossPlatformResult struct {
	Table Table
	Rows  []CrossPlatformRow
}

// crossASN is the hosting AS the network's delivery IPs live in.
const crossASN netsim.ASN = 64500

// CrossPlatform runs the scenario once per signal mode — identical seeds,
// so the two rows differ only in detector wiring — and tabulates the
// result.
func CrossPlatform(cfg CrossPlatformConfig) (CrossPlatformResult, error) {
	cfg = cfg.withDefaults()
	var rows []CrossPlatformRow
	for _, mode := range []defense.SignalMode{defense.SignalSiloed, defense.SignalShared} {
		row, err := runCrossPlatform(cfg, mode)
		if err != nil {
			return CrossPlatformResult{}, err
		}
		rows = append(rows, row)
	}
	table := Table{
		ID:    "cross-platform",
		Title: "Cross-platform collusion: siloed vs shared abuse-signal detection",
		Columns: []string{
			"Signal Sharing", "Likes (facebook)", "Likes (pictogram)",
			"Delivery IPs", "IPs Flagged", "Detection Rate", "Clusters",
		},
		Notes: []string{
			"one network: implicit-flow harvest on facebook, code-flow companion app on pictogram",
			"detector: IP-keyed SynchroTrap; shared mode pools both platforms' like streams",
			fmt.Sprintf("%d members/platform, %d posts/platform, %d delivery IPs, seed %d",
				crossMembers, crossPostsPerPlatform, crossDeliveryIPs, cfg.Seed),
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Mode,
			fmtInt(int(r.LikesA)),
			fmtInt(int(r.LikesB)),
			fmtInt(r.PoolIPs),
			fmtInt(r.FlaggedIPs),
			fmtFloat(r.DetectionRate*100, 0) + "%",
			fmtInt(r.Clusters),
		})
	}
	return CrossPlatformResult{Table: table, Rows: rows}, nil
}

// crossMember is one member's standing on both platforms.
type crossMember struct {
	idA, tokA string
	idB, tokB string
}

func runCrossPlatform(cfg CrossPlatformConfig, mode defense.SignalMode) (CrossPlatformRow, error) {
	clock := simclock.NewSimulated(time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC))
	internet := netsim.NewInternet()
	if err := internet.RegisterAS(netsim.AS{Number: crossASN, Name: "GENERIC-HOSTING", Country: "US"}, "192.168.0.0/16"); err != nil {
		return CrossPlatformRow{}, err
	}

	provA := provider.MustGet("facebook")
	provB := provider.MustGet("pictogram")
	pA := platform.NewWithConfig(clock, internet, platform.Config{Provider: provA})
	pB := platform.NewWithConfig(clock, internet, platform.Config{Provider: provB})

	// Identical detector parameters per platform; only the wiring differs.
	plane := defense.NewSignalPlane(mode, func() *defense.SynchroTrap {
		return defense.NewSynchroTrap(10*time.Minute, 0.5, 8, 3)
	})
	pA.Chain().Append(plane.TapFor(provA.Name()))
	pB.Chain().Append(plane.TapFor(provB.Name()))

	// The exploited app on A is a reviewed, client-flow app (the Table 3
	// shape). The companion app on B is the network's own registration:
	// B's lax review grants its write scope without question — B has no
	// equivalent of the sensitive-permission gate.
	appA := pA.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htcsense.example/callback",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, provA.ScopePublish()},
	})
	appB := pB.Apps.RegisterUnreviewed(apps.Config{
		Name:        "liker companion",
		RedirectURI: "https://liker-companion.example/callback",
		Lifetime:    apps.LongTerm,
		Permissions: []string{provB.ScopePublish(), provB.ScopeFriends()},
	})

	clientA := platform.NewLocalClient(pA)
	clientB := platform.NewLocalClient(pB)

	addrs, err := internet.AllocateN(crossASN, crossDeliveryIPs)
	if err != nil {
		return CrossPlatformRow{}, err
	}
	ips := make([]string, len(addrs))
	ipSet := make(map[string]bool, len(addrs))
	for i, a := range addrs {
		ips[i] = a.String()
		ipSet[ips[i]] = true
	}

	net := collusion.NewNetwork(collusion.Config{
		Name:            "official-liker.net",
		AppID:           appA.ID,
		AppRedirectURI:  appA.RedirectURI,
		LikesPerRequest: 20,
		IPs:             ips,
		Seed:            cfg.Seed,
	}, clock, clientA)
	net.SetObserver(pA.Obs)
	net.LinkPlatform(provB.Name(), clientB, appB.ID, appB.Secret, appB.RedirectURI)

	// Membership: each member joins on A through the implicit flow
	// (Figure 3) and on B by pasting the companion app's one-time code.
	members := make([]crossMember, 0, crossMembers)
	for i := 0; i < crossMembers; i++ {
		var m crossMember
		acctA := pA.Graph.CreateAccount(fmt.Sprintf("xp-member-%d", i), "PK", clock.Now())
		m.idA = acctA.ID
		m.tokA, err = clientA.AuthorizeImplicit(appA.ID, appA.RedirectURI, acctA.ID,
			[]string{apps.PermPublicProfile, provA.ScopePublish()})
		if err != nil {
			return CrossPlatformRow{}, err
		}
		if err := net.SubmitToken(acctA.ID, m.tokA); err != nil {
			return CrossPlatformRow{}, err
		}

		acctB := pB.Graph.CreateAccount(fmt.Sprintf("xp-member-%d-pg", i), "PK", clock.Now())
		m.idB = acctB.ID
		code, err := clientB.AuthorizeCode(appB.ID, appB.RedirectURI, acctB.ID, []string{provB.ScopePublish()})
		if err != nil {
			return CrossPlatformRow{}, err
		}
		if err := net.SubmitLinkedCode(provB.Name(), acctB.ID, code); err != nil {
			return CrossPlatformRow{}, err
		}
		// The member's own session token on B, for publishing target posts.
		selfCode, err := clientB.AuthorizeCode(appB.ID, appB.RedirectURI, acctB.ID, []string{provB.ScopePublish()})
		if err != nil {
			return CrossPlatformRow{}, err
		}
		m.tokB, err = clientB.ExchangeCode(appB.ID, appB.Secret, appB.RedirectURI, selfCode)
		if err != nil {
			return CrossPlatformRow{}, err
		}
		members = append(members, m)
	}

	// Campaign: alternating bursts — a post on A, a post on B — one hour
	// apart, rotating the requesting member.
	for p := 0; p < crossPostsPerPlatform; p++ {
		m := members[p%len(members)]
		postA, err := clientA.Publish(m.tokA, fmt.Sprintf("boost-me-a-%d", p), "")
		if err != nil {
			return CrossPlatformRow{}, err
		}
		if _, err := net.RequestLikes(m.idA, postA, ""); err != nil {
			return CrossPlatformRow{}, err
		}
		clock.Advance(time.Hour)

		postB, err := clientB.Publish(m.tokB, fmt.Sprintf("boost-me-b-%d", p), "")
		if err != nil {
			return CrossPlatformRow{}, err
		}
		if _, err := net.RequestCrossLikes(provB.Name(), m.idA, postB, ""); err != nil {
			return CrossPlatformRow{}, err
		}
		clock.Advance(time.Hour)
	}

	clusters := plane.Detect()
	flagged := 0
	for _, c := range clusters {
		for _, entity := range c.Accounts {
			if ipSet[entity] {
				flagged++
			}
		}
	}
	stats := net.Stats()
	row := CrossPlatformRow{
		Mode:       mode.String(),
		LikesA:     stats.LikesDelivered,
		LikesB:     stats.CrossLikesDelivered,
		PoolIPs:    len(ips),
		FlaggedIPs: flagged,
		Clusters:   len(clusters),
	}
	if len(ips) > 0 {
		row.DetectionRate = float64(flagged) / float64(len(ips))
	}
	return row, nil
}
