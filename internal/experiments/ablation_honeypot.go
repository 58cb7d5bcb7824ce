package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/honeypot"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// AblationHoneypotEvasion reproduces the Section 6.5 arms race: a
// collusion network that bans members making "very frequent like/comment
// requests" defeats a single aggressive honeypot, and the researchers'
// counter — several honeypots each below the detection threshold — keeps
// the milking pipeline alive at the same aggregate request rate.
func AblationHoneypotEvasion(seed int64) (Table, error) {
	const (
		days          = 5
		aggregateRate = 15 // requests per day the campaign needs
		maxDaily      = 5  // the network's suspicion threshold
	)
	type outcome struct {
		strategy  string
		succeeded int
		banned    int
		unique    int
	}
	run := func(honeypots int) (outcome, error) {
		clock := simclock.NewSimulated(time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC))
		p := platform.New(clock, nil)
		client := platform.NewLocalClient(p)
		app := p.Apps.Register(apps.Config{
			Name:              "HTC Sense",
			RedirectURI:       "https://htc.example/cb",
			ClientFlowEnabled: true,
			Lifetime:          apps.LongTerm,
			Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
		})
		network := collusion.NewNetwork(collusion.Config{
			Name:             "paranoid-liker.net",
			AppID:            app.ID,
			AppRedirectURI:   app.RedirectURI,
			LikesPerRequest:  30,
			HoneypotMaxDaily: maxDaily,
			HoneypotBanDays:  2,
			Seed:             seed,
		}, clock, client)
		for i := 0; i < 400; i++ {
			acct := p.Graph.CreateAccount(fmt.Sprintf("member-%d", i), "IN", clock.Now())
			tok, err := client.AuthorizeImplicit(app.ID, app.RedirectURI, acct.ID,
				[]string{apps.PermPublicProfile, apps.PermPublishActions})
			if err != nil {
				return outcome{}, err
			}
			if err := network.SubmitToken(acct.ID, tok); err != nil {
				return outcome{}, err
			}
		}

		hps := make([]*honeypot.Honeypot, honeypots)
		for i := range hps {
			hps[i] = honeypot.New(honeypot.Config{
				Clock:  clock,
				Graph:  p.Graph,
				Client: client,
				Site:   network,
				App:    app,
				Name:   fmt.Sprintf("honeypot-%d", i),
			})
			if err := hps[i].Join(); err != nil {
				return outcome{}, err
			}
		}
		est := honeypot.NewEstimator()
		out := outcome{}
		for day := 0; day < days; day++ {
			for r := 0; r < aggregateRate; r++ {
				hp := hps[r%len(hps)]
				postID, _, err := hp.MilkOnce()
				switch {
				case err == nil:
					est.ObservePost(p.Graph.Likers(postID))
					out.succeeded++
				case errors.Is(err, collusion.ErrBanned):
					// Banned honeypots stay banned; keep going with the rest.
				default:
					return outcome{}, err
				}
				clock.Advance(90 * time.Minute)
			}
			clock.Advance(90 * time.Minute)
		}
		for _, hp := range hps {
			if network.Banned(hp.Account.ID) {
				out.banned++
			}
		}
		out.unique = est.MembershipEstimate()
		return out, nil
	}

	single, err := run(1)
	single.strategy = "1 honeypot × 15 req/day"
	if err != nil {
		return Table{}, err
	}
	fleet, err := run(4)
	fleet.strategy = "4 honeypots × ~4 req/day"
	if err != nil {
		return Table{}, err
	}

	table := Table{
		ID:      "ablation-honeypot-evasion",
		Title:   "Honeypot detection arms race (Sec. 6.5): network bans members above 5 requests/day",
		Columns: []string{"Strategy", "Posts milked (of 75)", "Honeypots banned", "Accounts identified"},
		Notes: []string{
			"the counter to honeypot detection: spread the campaign across accounts below the threshold",
		},
	}
	for _, o := range []outcome{single, fleet} {
		table.Rows = append(table.Rows, []string{
			o.strategy, fmtInt(o.succeeded), fmtInt(o.banned), fmtInt(o.unique),
		})
	}
	return table, nil
}
