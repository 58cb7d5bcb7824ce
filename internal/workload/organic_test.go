package workload

import (
	"testing"
	"time"

	"repro/internal/socialgraph"
)

func organicScenario(t *testing.T) (*Scenario, *OrganicPopulation) {
	t.Helper()
	s, err := BuildScenario(Options{
		Scale:      10000,
		MinMembers: 30,
		Networks:   []string{"fast-liker.com"},
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := s.AddOrganicUsers(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s, pop
}

func TestAddOrganicUsers(t *testing.T) {
	s, pop := organicScenario(t)
	if len(pop.Users) != 100 {
		t.Fatalf("users = %d", len(pop.Users))
	}
	seenIPs := map[string]bool{}
	for _, u := range pop.Users {
		ip := pop.ips[u.ID]
		if ip == "" {
			t.Fatalf("user %s has no home IP", u.ID)
		}
		if seenIPs[ip] {
			t.Fatalf("home IP %s reused", ip)
		}
		seenIPs[ip] = true
		as, ok := s.Internet.LookupASString(ip)
		if !ok || as.Number != ASResidential {
			t.Fatalf("IP %s not residential (%+v)", ip, as)
		}
	}
}

func TestSimulateDayProducesFirstPartyActivity(t *testing.T) {
	s, pop := organicScenario(t)
	for day := 0; day < 3; day++ {
		pop.SimulateDay(0.6, 3)
		s.Clock.Advance(24 * time.Hour)
	}
	posts, likes := 0, 0
	for _, u := range pop.Users {
		for _, act := range s.Platform.Graph.ActivityLog(u.ID) {
			// Organic writes are first-party: no app attribution, own IP.
			if act.AppID != "" {
				t.Fatalf("organic activity via app %q", act.AppID)
			}
			if act.SourceIP != pop.ips[u.ID] {
				t.Fatalf("organic activity from %s, home %s", act.SourceIP, pop.ips[u.ID])
			}
			switch act.Verb {
			case socialgraph.VerbPost:
				posts++
			case socialgraph.VerbLike:
				likes++
			}
		}
	}
	if posts == 0 || likes == 0 {
		t.Fatalf("posts = %d likes = %d", posts, likes)
	}
}

func TestSimulateDayNoPostsNoLikes(t *testing.T) {
	_, pop := organicScenario(t)
	// With zero post probability and an empty backlog there is nothing
	// to like; the day must be a no-op rather than a panic.
	pop.SimulateDay(0, 5)
}

func TestBuildFriendGraphDegree(t *testing.T) {
	s, pop := organicScenario(t)
	edges := s.BuildFriendGraph(8, 4)
	if edges == 0 {
		t.Fatal("no edges created")
	}
	totalDegree := 0
	for _, u := range pop.Users {
		totalDegree += len(s.Platform.Graph.Friends(u.ID))
	}
	avg := float64(totalDegree) / float64(len(pop.Users))
	if avg < 3 || avg > 14 {
		t.Fatalf("organic avg degree = %.1f, want ≈8", avg)
	}
}

func TestBuildFriendGraphEdgeCases(t *testing.T) {
	s, _ := organicScenario(t)
	if got := s.BuildFriendGraph(0, 1); got != 0 {
		t.Fatalf("zero degree built %d edges", got)
	}
}
