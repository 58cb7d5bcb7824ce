// Package attacks implements the Section 8 extension attacks: what else
// an adversary holding a collusion network's token pool can do beyond
// reputation manipulation.
//
//   - Harvest: replay every pooled token against /me and /me/friends to
//     collect personal information and enumerate the members' social
//     circles — the privacy impact of token leakage.
//   - Propagate: seed a malware campaign at the pooled members and let
//     it spread along friend edges, modelling the "exploit their social
//     graph to propagate malware" threat the paper flags.
//
// Both attacks use only the public platform client plus the pool — the
// exact capabilities a collusion network operator holds.
package attacks

import (
	"math/rand"

	"repro/internal/platform"
	"repro/internal/socialgraph"
)

// Pool is the attacker's view of a collusion network token database.
// *collusion.TokenPool implements it.
type Pool interface {
	Members() []string
	Token(accountID string) (string, bool)
}

// HarvestResult summarises an information-harvesting run.
type HarvestResult struct {
	// TokensTried is the number of pooled tokens replayed.
	TokensTried int
	// TokensLive is how many still validated.
	TokensLive int
	// ProfilesRead counts successful /me reads.
	ProfilesRead int
	// FriendsEnumerated is the number of *distinct* non-member accounts
	// exposed purely through their friends' leaked tokens — people who
	// never touched the collusion network.
	FriendsEnumerated int
	// Reachable is members-with-live-tokens plus enumerated friends: the
	// total population whose data the attacker obtained.
	Reachable int
	// Countries is the harvested profile geography.
	Countries map[string]int
}

// Harvest replays every pooled token to read the member's profile and
// friend list. ip is the source address the reads appear from.
func Harvest(client platform.Client, pool Pool, ip string) HarvestResult {
	res := HarvestResult{Countries: make(map[string]int)}
	members := make(map[string]bool)
	exposedFriends := make(map[string]bool)
	for _, accountID := range pool.Members() {
		token, ok := pool.Token(accountID)
		if !ok {
			continue
		}
		res.TokensTried++
		profile, err := client.Me(token, ip)
		if err != nil {
			continue // dead token: expired or invalidated
		}
		res.TokensLive++
		res.ProfilesRead++
		res.Countries[profile.Country]++
		members[profile.ID] = true
		friends, err := client.FriendsOf(token, ip)
		if err != nil {
			continue // token lacks user_friends
		}
		for _, f := range friends {
			exposedFriends[f.ID] = true
		}
	}
	for id := range exposedFriends {
		if !members[id] {
			res.FriendsEnumerated++
		}
	}
	res.Reachable = len(members) + res.FriendsEnumerated
	return res
}

// PropagationConfig parameterises the malware simulation.
type PropagationConfig struct {
	// ClickProb is the probability an exposed friend interacts with the
	// lure and becomes infected.
	ClickProb float64
	// MaxSteps bounds the number of propagation rounds.
	MaxSteps int
	Seed     int64
}

// PropagationResult is the infection trace.
type PropagationResult struct {
	// InfectedPerStep[i] is the cumulative infection count after step i
	// (step 0 = the seeds).
	InfectedPerStep []int
	TotalInfected   int
	// Population is the account universe size, for rates.
	Population int
}

// Propagate runs a breadth-first infection over the friend graph starting
// from the seed accounts (the collusion network members whose tokens let
// the attacker post lures on their timelines).
func Propagate(graph *socialgraph.Store, seeds []string, cfg PropagationConfig) PropagationResult {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	infected := make(map[string]bool, len(seeds))
	frontier := make([]string, 0, len(seeds))
	for _, s := range seeds {
		if !infected[s] {
			infected[s] = true
			frontier = append(frontier, s)
		}
	}
	res := PropagationResult{
		InfectedPerStep: []int{len(infected)},
		Population:      graph.AccountCount(),
	}
	for step := 0; step < cfg.MaxSteps && len(frontier) > 0; step++ {
		var next []string
		for _, id := range frontier {
			for _, friend := range graph.Friends(id) {
				if infected[friend] {
					continue
				}
				if rng.Float64() < cfg.ClickProb {
					infected[friend] = true
					next = append(next, friend)
				}
			}
		}
		frontier = next
		res.InfectedPerStep = append(res.InfectedPerStep, len(infected))
	}
	res.TotalInfected = len(infected)
	return res
}
