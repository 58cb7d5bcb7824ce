package core

// End-to-end proof that batched delivery is defense-transparent. The
// batched pipeline coalesces only the store write: OAuth validation,
// the token/IP rate limiters, and SynchroTrap's aggregation tap all
// still run once per like, so with the full countermeasure chain
// deployed a batched campaign and a per-call campaign from the same
// seed must agree on every defense observable — the Figure 5 semantics
// may not move.
//
// Batched delivery fires a burst's chunks one after another in sample
// order, so evaluation order is identical to per-call and every
// observable — including *which* likes a saturated limiter denies — must
// match bit for bit at the default configuration.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

func deliveryStudy(t *testing.T, batch int) *Study {
	t.Helper()
	s, err := NewStudy(workload.Options{
		Scale:             5000,
		MinMembers:        60,
		Networks:          parallelNets,
		Seed:              41,
		DeliveryBatchSize: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// milkDefended deploys the full countermeasure chain and runs the
// campaign, failing on any round error.
func milkDefended(t *testing.T, s *Study, rounds int) []MilkResult {
	t.Helper()
	cm := s.Countermeasures()
	// Tight enough that some networks hit every limiter: the runs must
	// produce real denials, not just compare zeros.
	cm.SetTokenRateLimit(30, 24*time.Hour)
	cm.DeployIPRateLimits(120, 600)
	cm.DeployClustering(time.Minute, 0.5, 2, 5)
	var results []MilkResult
	for r := 0; r < rounds; r++ {
		for _, res := range milkRound(s) {
			if res.Err != nil {
				t.Fatalf("round failed: %+v", res)
			}
			results = append(results, res)
		}
		s.AdvanceHour()
	}
	return results
}

// compareDefenses checks the order-independent defense observables.
func compareDefenses(t *testing.T, perCall, batched *Study, pcRes, bRes []MilkResult) {
	t.Helper()
	pcDel, _ := byNetwork(pcRes)
	bDel, _ := byNetwork(bRes)
	for _, net := range parallelNets {
		if pcDel[net] != bDel[net] {
			t.Errorf("%s delivered under countermeasures: per-call %d, batched %d", net, pcDel[net], bDel[net])
		}
		pcNet, ok1 := findNetwork(perCall, net)
		bNet, ok2 := findNetwork(batched, net)
		if !ok1 || !ok2 {
			t.Fatalf("network %s missing from scenario", net)
		}
		ps, bs := pcNet.Net.Stats(), bNet.Net.Stats()
		if ps.LikesAttempted != bs.LikesAttempted {
			t.Errorf("%s LikesAttempted: per-call %d, batched %d", net, ps.LikesAttempted, bs.LikesAttempted)
		}
		if ps.LikesDelivered != bs.LikesDelivered {
			t.Errorf("%s LikesDelivered: per-call %d, batched %d", net, ps.LikesDelivered, bs.LikesDelivered)
		}
		if ps.TokensDropped != bs.TokensDropped {
			t.Errorf("%s TokensDropped: per-call %d, batched %d", net, ps.TokensDropped, bs.TokensDropped)
		}
		if !reflect.DeepEqual(ps.FailuresByCode, bs.FailuresByCode) {
			t.Errorf("%s failure-code histogram: per-call %v, batched %v", net, ps.FailuresByCode, bs.FailuresByCode)
		}
	}

	// The defense chain's per-policy denial counters are the headline
	// invariant: batching may not move a single denial.
	pcDen := perCall.Scenario.Platform.Chain().Denials()
	bDen := batched.Scenario.Platform.Chain().Denials()
	if !reflect.DeepEqual(pcDen, bDen) {
		t.Errorf("defense-chain denials diverge: per-call %v, batched %v", pcDen, bDen)
	}
	if len(bDen) == 0 {
		t.Error("countermeasures produced no denials; the equivalence check compared nothing")
	}

	// SynchroTrap saw per-action (account, IP, time) tuples either way, so
	// the clustering sweep must action the same number of accounts.
	if pn, bn := perCall.Countermeasures().RunClusteringSweep(), batched.Countermeasures().RunClusteringSweep(); pn != bn {
		t.Errorf("clustering sweep: per-call actioned %d, batched %d", pn, bn)
	}
}

func TestBatchedDeliveryDefenseEquivalenceSequentialChunks(t *testing.T) {
	const rounds = 4
	perCall := deliveryStudy(t, -1)
	batched := deliveryStudy(t, 0)
	pcRes := milkDefended(t, perCall, rounds)
	bRes := milkDefended(t, batched, rounds)

	// Chunks fire in order, so liker identity is pinned too: the same
	// likes must survive the limiters in both modes.
	_, pcLikers := byNetwork(pcRes)
	_, bLikers := byNetwork(bRes)
	for _, net := range parallelNets {
		if !reflect.DeepEqual(pcLikers[net], bLikers[net]) {
			t.Errorf("%s liker sets diverge between delivery modes", net)
		}
	}
	compareDefenses(t, perCall, batched, pcRes, bRes)
}
