package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/socialgraph"
)

// ASResidential hosts organic users' home connections.
const ASResidential netsim.ASN = 65100

// OrganicPopulation is a set of benign platform users who post and like
// their friends' content from their own residential IPs — the negative
// class for the abuse-detection extension, and background noise against
// which countermeasures must avoid collateral damage.
type OrganicPopulation struct {
	Users []socialgraph.Account

	scenario *Scenario
	rng      *rand.Rand
	ips      map[string]string // accountID -> home IP
	posts    []string          // recent organic posts, like targets
}

// AddOrganicUsers creates n benign accounts, each with a residential IP.
// The residential AS is registered on first use.
func (s *Scenario) AddOrganicUsers(n int, seed int64) (*OrganicPopulation, error) {
	if _, ok := s.Internet.LookupASString("100.64.0.1"); !ok {
		if err := s.Internet.RegisterAS(netsim.AS{
			Number: ASResidential, Name: "RESIDENTIAL-ISP", Country: "IN",
		}, "100.64.0.0/16"); err != nil {
			return nil, err
		}
	}
	pop := &OrganicPopulation{
		scenario: s,
		rng:      rand.New(rand.NewSource(seed)),
		ips:      make(map[string]string, n),
	}
	mix := netsim.NewCountryMix(map[string]float64{
		"IN": 30, "US": 20, "BR": 10, "ID": 10, "MX": 8, "TR": 7, "GB": 7, "DE": 8,
	})
	for i := 0; i < n; i++ {
		acct := s.Platform.Graph.CreateAccount(
			fmt.Sprintf("organic-user-%d", i+1), mix.Sample(pop.rng), s.Clock.Now())
		addr, err := s.Internet.Allocate(ASResidential)
		if err != nil {
			return nil, err
		}
		pop.Users = append(pop.Users, acct)
		pop.ips[acct.ID] = addr.String()
	}
	return pop, nil
}

// SimulateDay plays one day of benign behaviour: each user posts with
// probability postProb and performs up to maxLikes likes on friends' (or
// recent organic) posts, spread across the day, from their home IP, with
// no third-party app involved.
func (p *OrganicPopulation) SimulateDay(postProb float64, maxLikes int) {
	s := p.scenario
	dayStart := s.Clock.Now()
	for _, u := range p.Users {
		if p.rng.Float64() < postProb {
			post, err := s.Platform.Graph.CreatePost(u.ID,
				fmt.Sprintf("organic thoughts of %s", u.Name),
				socialgraph.WriteMeta{SourceIP: p.ips[u.ID], At: dayStart.Add(p.randHour())})
			if err == nil {
				p.posts = append(p.posts, post.ID)
			}
		}
	}
	// Cap the like-target backlog to recent posts.
	if len(p.posts) > 500 {
		p.posts = p.posts[len(p.posts)-500:]
	}
	if len(p.posts) == 0 {
		return
	}
	for _, u := range p.Users {
		likes := p.rng.Intn(maxLikes + 1)
		for l := 0; l < likes; l++ {
			target := p.posts[p.rng.Intn(len(p.posts))]
			meta := socialgraph.WriteMeta{
				SourceIP: p.ips[u.ID],
				At:       dayStart.Add(p.randHour()),
			}
			// Duplicate likes simply fail; that is organic too.
			_ = s.Platform.Graph.AddLike(u.ID, target, meta)
		}
	}
}

func (p *OrganicPopulation) randHour() time.Duration {
	// Organic activity clusters in waking hours (8:00–23:00).
	return time.Duration(8+p.rng.Intn(15))*time.Hour + time.Duration(p.rng.Intn(60))*time.Minute
}
