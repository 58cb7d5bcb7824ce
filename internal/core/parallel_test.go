package core

// Concurrency coverage for milking. platformd and collusiond serve
// concurrent callers, so the study's shared state must tolerate several
// honeypots milking at once: the stress test below runs one goroutine
// per network against the sharded store, the policy chain and the
// invalidator, and its value is running under `go test -race` (the CI
// workflow runs this package with the detector on). byNetwork,
// parallelNets, milkRound and findNetwork also serve the batch-delivery
// and retention equivalence tests.

import (
	"sort"
	"testing"

	"repro/internal/workload"
)

var parallelNets = []string{
	"mg-likers.com", "fast-liker.com", "djliker.com", "monkeyliker.com",
}

func parallelStudy(t *testing.T, seed int64) *Study {
	t.Helper()
	s, err := NewStudy(workload.Options{
		Scale:      5000,
		MinMembers: 60,
		Networks:   parallelNets,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// byNetwork folds milk results into per-network delivery totals and the
// union of likers seen, which are the interleaving-independent
// observables of a campaign.
func byNetwork(results []MilkResult) (delivered map[string]int, likers map[string][]string) {
	delivered = make(map[string]int)
	likers = make(map[string][]string)
	for _, r := range results {
		delivered[r.Network] += r.Delivered
		likers[r.Network] = append(likers[r.Network], r.Likers...)
	}
	for _, l := range likers {
		sort.Strings(l)
	}
	return delivered, likers
}

// milkRound milks every network of the study once, in scenario order.
func milkRound(s *Study) []MilkResult {
	var out []MilkResult
	for _, ni := range s.Scenario.Networks {
		out = append(out, s.MilkNetwork(ni.Spec.Name))
	}
	return out
}

// findNetwork returns the study's instance of the named network.
func findNetwork(s *Study, name string) (*workload.NetworkInstance, bool) {
	for _, ni := range s.Scenario.Networks {
		if ni.Spec.Name == name {
			return ni, true
		}
	}
	return nil, false
}

// milkConcurrently milks every network once, one test goroutine per
// network. Each honeypot and estimator still has a single writer.
func milkConcurrently(s *Study) []MilkResult {
	done := make(chan MilkResult, len(parallelNets))
	for _, name := range parallelNets {
		go func() { done <- s.MilkNetwork(name) }()
	}
	res := make([]MilkResult, len(parallelNets))
	for i := range res {
		res[i] = <-done
	}
	return res
}

func TestMilkNetworkConcurrentStress(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	s := parallelStudy(t, 99)
	// Deploy the token rate limit first so the concurrent rounds also
	// exercise the policy middleware and the invalidator's backlog.
	s.Countermeasures().SetTokenRateLimit(1000, 24*60*60*1e9)
	for r := 0; r < rounds; r++ {
		for _, res := range milkConcurrently(s) {
			if res.Err != nil {
				t.Fatalf("round failed: %+v", res)
			}
			if res.Delivered == 0 {
				t.Fatalf("network %s delivered nothing", res.Network)
			}
		}
	}
	s.Countermeasures().InvalidateMilkedAll()
	// Honeypots whose tokens were swept must recover via the rejoin path
	// even when every network retries at once.
	for _, res := range milkConcurrently(s) {
		if res.Err != nil {
			t.Fatalf("post-sweep round failed: %+v", res)
		}
	}
	graph := s.Scenario.Platform.Graph
	if acq, _ := graph.Contention().Totals(); acq == 0 {
		t.Fatal("sharded store recorded no lock acquisitions during milking")
	}
}
