package core

// End-to-end proof that the retention machinery is defense-transparent
// while the campaign's activity is inside the analytics window: a study
// with a 10-year window swept every round and a study with retention left
// at the infinite default must agree on every observable — delivered
// likes, liker identity, per-network stats, the defense chain's
// per-policy denial counters, and the clustering sweep's verdicts.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

func retentionStudy(t *testing.T, window time.Duration) *Study {
	t.Helper()
	s, err := NewStudy(workload.Options{
		Scale:           5000,
		MinMembers:      60,
		Networks:        parallelNets,
		Seed:            41,
		RetentionWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRetentionSweepDefenseEquivalence(t *testing.T) {
	const rounds = 4
	base := retentionStudy(t, 0)
	swept := retentionStudy(t, 10*365*24*time.Hour)

	milk := func(s *Study) []MilkResult {
		cm := s.Countermeasures()
		cm.SetTokenRateLimit(30, 24*time.Hour)
		cm.DeployIPRateLimits(120, 600)
		cm.DeployClustering(time.Minute, 0.5, 2, 5)
		var results []MilkResult
		for r := 0; r < rounds; r++ {
			for _, res := range s.MilkAll(1) {
				if res.Err != nil {
					t.Fatalf("round failed: %+v", res)
				}
				results = append(results, res)
			}
			s.AdvanceHour()
			s.SweepRetention() // no-op on base (infinite default window)
		}
		return results
	}
	bRes := milk(base)
	sRes := milk(swept)

	bDel, bLikers := byNetwork(bRes)
	sDel, sLikers := byNetwork(sRes)
	for _, net := range parallelNets {
		if bDel[net] != sDel[net] {
			t.Errorf("%s delivered: base %d, swept %d", net, bDel[net], sDel[net])
		}
		if !reflect.DeepEqual(bLikers[net], sLikers[net]) {
			t.Errorf("%s liker sets diverge under retention sweeps", net)
		}
		bNet, ok1 := base.Scenario.FindNetwork(net)
		sNet, ok2 := swept.Scenario.FindNetwork(net)
		if !ok1 || !ok2 {
			t.Fatalf("network %s missing from scenario", net)
		}
		if bs, ss := bNet.Net.Stats(), sNet.Net.Stats(); !reflect.DeepEqual(bs, ss) {
			t.Errorf("%s stats diverge: base %+v, swept %+v", net, bs, ss)
		}
	}

	bDen := base.Scenario.Platform.Chain().Denials()
	sDen := swept.Scenario.Platform.Chain().Denials()
	if !reflect.DeepEqual(bDen, sDen) {
		t.Errorf("defense-chain denials diverge: base %v, swept %v", bDen, sDen)
	}
	if len(sDen) == 0 {
		t.Error("countermeasures produced no denials; the equivalence check compared nothing")
	}
	if bn, sn := base.Countermeasures().RunClusteringSweep(), swept.Countermeasures().RunClusteringSweep(); bn != sn {
		t.Errorf("clustering sweep: base actioned %d, swept %d", bn, sn)
	}

	// The sweeps genuinely ran on the windowed study and evicted nothing.
	snap := swept.Scenario.Platform.Graph.Retention().Snapshot()
	if snap.Sweeps != rounds {
		t.Fatalf("swept study ran %d sweeps, want %d", snap.Sweeps, rounds)
	}
	if snap.Likes != 0 || snap.Comments != 0 || snap.Activities != 0 {
		t.Fatalf("in-window sweeps evicted: %+v", snap)
	}
	if base.Scenario.Platform.Graph.Retention().Snapshot().Sweeps != 0 {
		t.Fatal("base study's no-op sweeps were counted")
	}
}
