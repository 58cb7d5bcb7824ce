package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
)

func smallStudy(t *testing.T, networks ...string) *Study {
	t.Helper()
	if networks == nil {
		networks = []string{"mg-likers.com"}
	}
	s, err := NewStudy(workload.Options{
		Scale:      5000,
		MinMembers: 60,
		Networks:   networks,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStudyInfiltratesNetworks(t *testing.T) {
	s := smallStudy(t, "mg-likers.com", "fast-liker.com")
	if len(s.Honeypots) != 2 || len(s.Estimators) != 2 {
		t.Fatalf("honeypots = %d, estimators = %d", len(s.Honeypots), len(s.Estimators))
	}
	for name, hp := range s.Honeypots {
		ni, ok := findNetwork(s, name)
		if !ok {
			t.Fatalf("network %q missing", name)
		}
		if !ni.Net.Pool().Contains(hp.Account.ID) {
			t.Fatalf("honeypot for %q not in pool", name)
		}
	}
}

func TestMilkNetworkUpdatesEstimator(t *testing.T) {
	s := smallStudy(t)
	res := s.MilkNetwork("mg-likers.com")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Delivered == 0 || len(res.Likers) != res.Delivered {
		t.Fatalf("result = %+v", res)
	}
	est := s.Estimators["mg-likers.com"]
	if est.PostsSubmitted() != 1 || est.TotalLikes() != res.Delivered {
		t.Fatalf("estimator = %d posts / %d likes", est.PostsSubmitted(), est.TotalLikes())
	}
	// Milked accounts are queued with the countermeasure pipeline.
	if got := s.Countermeasures().InvalidateMilkedAll(); got != res.Delivered {
		t.Fatalf("InvalidateMilkedAll = %d, want %d", got, res.Delivered)
	}
}

func TestMilkUnknownNetwork(t *testing.T) {
	s := smallStudy(t)
	if res := s.MilkNetwork("nope.example"); res.Err == nil {
		t.Fatal("milking unknown network succeeded")
	}
}

func TestInvalidationSweepKillsPool(t *testing.T) {
	s := smallStudy(t)
	// Milk enough rounds that nearly the whole pool is observed.
	for i := 0; i < 10; i++ {
		if res := s.MilkNetwork("mg-likers.com"); res.Err != nil {
			t.Fatal(res.Err)
		}
		s.AdvanceHour()
	}
	cm := s.Countermeasures()
	swept := cm.InvalidateMilkedAll()
	if swept == 0 {
		t.Fatal("sweep revoked nothing")
	}
	// The next milking round collapses: dead tokens cannot like.
	s.AdvanceHour()
	res := s.MilkNetwork("mg-likers.com")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Delivered > 5 {
		t.Fatalf("delivered %d after full sweep", res.Delivered)
	}
}

func TestInvalidateFractionPartial(t *testing.T) {
	s := smallStudy(t)
	for i := 0; i < 5; i++ {
		_ = s.MilkNetwork("mg-likers.com")
		s.AdvanceHour()
	}
	cm := s.Countermeasures()
	swept := cm.InvalidateMilkedFraction(0.5)
	rest := cm.InvalidateMilkedAll()
	if swept == 0 || swept != (swept+rest)/2 {
		t.Fatalf("swept %d, then %d left in the backlog; want half", swept, rest)
	}
}

func TestTokenRateLimitDeployAndAdjust(t *testing.T) {
	s := smallStudy(t)
	cm := s.Countermeasures()
	cm.SetTokenRateLimit(1000, 24*time.Hour)
	if got := cm.ActivePolicies(); len(got) != 1 || got[0] != "token-rate-limit" {
		t.Fatalf("policies = %v", got)
	}
	// Adjusting must not add a second policy.
	cm.SetTokenRateLimit(8, 24*time.Hour)
	if got := cm.ActivePolicies(); len(got) != 1 {
		t.Fatalf("policies after adjust = %v", got)
	}
}

func TestClusteringSweepHarmless(t *testing.T) {
	// The evasion of Sec. 6.3 requires the token pool to dwarf the
	// per-request quota (295K members vs 350 likes for hublaa.me), so
	// each request draws an essentially disjoint random subset. Preserve
	// that ratio: fast-liker.com at scale 2 keeps 417 members against a
	// quota of 44.
	s, err := NewStudy(workload.Options{
		Scale:      2,
		MinMembers: 60,
		Networks:   []string{"fast-liker.com"},
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm := s.Countermeasures()
	cm.DeployClustering(time.Minute, 0.5, 2, 5)
	if got := cm.ActivePolicies(); !slices.Contains(got, "synchrotrap-tap") {
		t.Fatalf("policies = %v, want the synchrotrap tap", got)
	}
	delivered := 0
	for i := 0; i < 5; i++ {
		res := s.MilkNetwork("fast-liker.com")
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		delivered += res.Delivered
		s.AdvanceHour()
	}
	if delivered == 0 {
		t.Fatal("no likes delivered past the tap")
	}
	if n := cm.RunClusteringSweep(); n != 0 {
		t.Fatalf("clustering sweep actioned %d accounts", n)
	}
}

func TestClusteringCatchesDegenerateSmallPool(t *testing.T) {
	// Control for the test above: when the pool barely exceeds the quota,
	// every request reuses the same accounts in lockstep and SynchroTrap
	// *does* fire — the behaviour collusion networks avoid by keeping
	// giant pools.
	s := smallStudy(t) // 60 members vs quota 247: full-pool lockstep
	cm := s.Countermeasures()
	cm.DeployClustering(time.Minute, 0.5, 2, 5)
	for i := 0; i < 5; i++ {
		if res := s.MilkNetwork("mg-likers.com"); res.Err != nil {
			t.Fatal(res.Err)
		}
		s.AdvanceHour()
	}
	if n := cm.RunClusteringSweep(); n == 0 {
		t.Fatal("lockstep small-pool activity evaded clustering")
	}
}

func TestClusteringSweepWithoutDeploy(t *testing.T) {
	s := smallStudy(t)
	if n := s.Countermeasures().RunClusteringSweep(); n != 0 {
		t.Fatalf("sweep without deployment actioned %d", n)
	}
}

func TestIPRateLimitsStopNetwork(t *testing.T) {
	s := smallStudy(t)
	base := s.MilkNetwork("mg-likers.com")
	if base.Err != nil || base.Delivered == 0 {
		t.Fatalf("baseline = %+v", base)
	}
	// mg-likers delivers through ~3 IPs; a tiny per-IP cap kills it.
	s.Countermeasures().DeployIPRateLimits(2, 10)
	s.AdvanceHour()
	res := s.MilkNetwork("mg-likers.com")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Delivered > 10 {
		t.Fatalf("delivered %d despite IP caps", res.Delivered)
	}
}

func TestASBlockStopsBulletproofNetwork(t *testing.T) {
	s, err := NewStudy(workload.Options{
		Scale:      5000,
		MinMembers: 60,
		Networks:   []string{"hublaa.me"},
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := s.MilkNetwork("hublaa.me")
	if base.Err != nil || base.Delivered == 0 {
		t.Fatalf("baseline = %+v", base)
	}
	s.Countermeasures().BlockASes(workload.ASBulletproofA, workload.ASBulletproofB)
	s.AdvanceHour()
	res := s.MilkNetwork("hublaa.me")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Delivered != 0 {
		t.Fatalf("delivered %d despite AS block", res.Delivered)
	}
}

func TestAdvanceHelpers(t *testing.T) {
	s := smallStudy(t)
	start := s.Clock().Now()
	s.AdvanceHour()
	want := start.Add(time.Hour)
	if got := s.Clock().Now(); !got.Equal(want) {
		t.Fatalf("clock = %v, want %v", got, want)
	}
}
