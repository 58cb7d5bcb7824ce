package attacks

import (
	"fmt"
	"testing"

	"repro/internal/collusion"
	"repro/internal/platform"

	"repro/internal/workload"
)

type world struct {
	scenario *workload.Scenario
	ni       *workload.NetworkInstance
	client   *platform.LocalClient
}

func newWorld(t *testing.T) *world {
	t.Helper()
	s, err := workload.BuildScenario(workload.Options{
		Scale:      2000,
		MinMembers: 60,
		Networks:   []string{"mg-likers.com"},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Organic (non-member) users so friend enumeration reaches beyond
	// the pool.
	for i := 0; i < 200; i++ {
		s.Platform.Graph.CreateAccount(fmt.Sprintf("organic-%d", i), "IN", s.Clock.Now())
	}
	s.BuildFriendGraph(8, 5)
	return &world{
		scenario: s,
		ni:       s.Networks[0],
		client:   platform.NewLocalClient(s.Platform),
	}
}

func TestHarvestReadsProfilesAndFriends(t *testing.T) {
	w := newWorld(t)
	res := Harvest(w.client, w.ni.Net.Pool(), "192.0.2.99")
	if res.TokensTried == 0 || res.TokensLive != res.TokensTried {
		t.Fatalf("tokens: %+v", res)
	}
	if res.ProfilesRead != w.ni.Net.MembershipSize() {
		t.Fatalf("profiles = %d, members = %d", res.ProfilesRead, w.ni.Net.MembershipSize())
	}
	// With an average degree of 8 over a population 4x the pool, the
	// attack must expose non-member friends.
	if res.FriendsEnumerated == 0 {
		t.Fatal("no non-member friends enumerated")
	}
	if res.Reachable <= res.ProfilesRead {
		t.Fatalf("reachable %d not beyond members %d", res.Reachable, res.ProfilesRead)
	}
	if len(res.Countries) == 0 {
		t.Fatal("no geography harvested")
	}
}

func TestHarvestSkipsDeadTokens(t *testing.T) {
	w := newWorld(t)
	// Invalidate half the members' tokens.
	members := w.ni.Net.Pool().Members()
	for i, m := range members {
		if i%2 == 0 {
			w.scenario.Platform.OAuth.InvalidateAccount(m, "sweep")
		}
	}
	res := Harvest(w.client, w.ni.Net.Pool(), "")
	if res.TokensLive >= res.TokensTried {
		t.Fatalf("dead tokens not skipped: %+v", res)
	}
	if res.ProfilesRead != res.TokensLive {
		t.Fatalf("profiles %d != live %d", res.ProfilesRead, res.TokensLive)
	}
}

// poolWithout wraps a pool hiding the token of certain members, to model
// entries the attacker lost.
type poolWithout struct {
	Pool
	hide map[string]bool
}

func (p poolWithout) Token(id string) (string, bool) {
	if p.hide[id] {
		return "", false
	}
	return p.Pool.Token(id)
}

func TestHarvestToleratesMissingTokens(t *testing.T) {
	w := newWorld(t)
	members := w.ni.Net.Pool().Members()
	hidden := map[string]bool{members[0]: true, members[1]: true}
	res := Harvest(w.client, poolWithout{Pool: w.ni.Net.Pool(), hide: hidden}, "")
	if res.TokensTried != len(members)-2 {
		t.Fatalf("tried = %d, want %d", res.TokensTried, len(members)-2)
	}
}

func TestPropagateSpreadsAlongFriendEdges(t *testing.T) {
	w := newWorld(t)
	seeds := w.ni.Net.Pool().Members()
	res := Propagate(w.scenario.Platform.Graph, seeds, PropagationConfig{
		ClickProb: 0.5,
		MaxSteps:  8,
		Seed:      1,
	})
	if res.InfectedPerStep[0] != len(seeds) {
		t.Fatalf("step 0 = %d, want %d seeds", res.InfectedPerStep[0], len(seeds))
	}
	if res.TotalInfected <= len(seeds) {
		t.Fatal("no propagation beyond seeds")
	}
	// Cumulative counts are non-decreasing and bounded by population.
	for i := 1; i < len(res.InfectedPerStep); i++ {
		if res.InfectedPerStep[i] < res.InfectedPerStep[i-1] {
			t.Fatalf("infection count decreased at step %d", i)
		}
	}
	if res.TotalInfected > res.Population {
		t.Fatalf("infected %d > population %d", res.TotalInfected, res.Population)
	}
}

func TestPropagateZeroClickProb(t *testing.T) {
	w := newWorld(t)
	seeds := w.ni.Net.Pool().Members()[:5]
	res := Propagate(w.scenario.Platform.Graph, seeds, PropagationConfig{ClickProb: 0, MaxSteps: 5, Seed: 1})
	if res.TotalInfected != 5 {
		t.Fatalf("infected = %d with zero click probability", res.TotalInfected)
	}
}

func TestPropagateDeterministic(t *testing.T) {
	w := newWorld(t)
	seeds := w.ni.Net.Pool().Members()[:10]
	a := Propagate(w.scenario.Platform.Graph, seeds, PropagationConfig{ClickProb: 0.3, MaxSteps: 6, Seed: 42})
	b := Propagate(w.scenario.Platform.Graph, seeds, PropagationConfig{ClickProb: 0.3, MaxSteps: 6, Seed: 42})
	if a.TotalInfected != b.TotalInfected {
		t.Fatalf("non-deterministic: %d vs %d", a.TotalInfected, b.TotalInfected)
	}
}

func TestPropagateDuplicateSeeds(t *testing.T) {
	w := newWorld(t)
	m := w.ni.Net.Pool().Members()[0]
	res := Propagate(w.scenario.Platform.Graph, []string{m, m, m}, PropagationConfig{ClickProb: 0, MaxSteps: 2, Seed: 1})
	if res.InfectedPerStep[0] != 1 {
		t.Fatalf("duplicate seeds counted: %d", res.InfectedPerStep[0])
	}
}

var _ Pool = (*collusion.TokenPool)(nil)
