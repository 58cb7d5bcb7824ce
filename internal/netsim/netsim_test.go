package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func testInternet(t *testing.T) *Internet {
	t.Helper()
	in := NewInternet()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(in.RegisterAS(AS{Number: 64500, Name: "CollusionHost-A", Country: "RU", Bulletproof: true}, "203.0.113.0/24"))
	must(in.RegisterAS(AS{Number: 64501, Name: "CollusionHost-B", Country: "UA", Bulletproof: true}, "198.51.100.0/24"))
	must(in.RegisterAS(AS{Number: 64510, Name: "ResidentialISP-IN", Country: "IN"}, "100.64.0.0/16"))
	return in
}

func TestRegisterASDuplicate(t *testing.T) {
	in := testInternet(t)
	err := in.RegisterAS(AS{Number: 64500, Name: "dup"}, "192.0.2.0/24")
	if err == nil {
		t.Fatal("duplicate ASN registration succeeded")
	}
}

func TestRegisterASOverlap(t *testing.T) {
	in := testInternet(t)
	err := in.RegisterAS(AS{Number: 64999, Name: "overlap"}, "203.0.113.128/25")
	if err == nil {
		t.Fatal("overlapping prefix registration succeeded")
	}
}

func TestRegisterASBadPrefix(t *testing.T) {
	in := NewInternet()
	if err := in.RegisterAS(AS{Number: 1}, "not-a-prefix"); err == nil {
		t.Fatal("invalid prefix accepted")
	}
}

func TestAllocateAndLookup(t *testing.T) {
	in := testInternet(t)
	addr, err := in.Allocate(64500)
	if err != nil {
		t.Fatal(err)
	}
	want := netip.MustParseAddr("203.0.113.1")
	if addr != want {
		t.Fatalf("first allocation = %v, want %v", addr, want)
	}
	as, ok := in.LookupAS(addr)
	if !ok {
		t.Fatalf("LookupAS(%v) not found", addr)
	}
	if as.Number != 64500 || !as.Bulletproof {
		t.Fatalf("LookupAS(%v) = %+v, want AS64500 bulletproof", addr, as)
	}
}

func TestAllocateSequentialUnique(t *testing.T) {
	in := testInternet(t)
	seen := make(map[netip.Addr]bool)
	addrs, err := in.AllocateN(64510, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate allocation %v", a)
		}
		seen[a] = true
		as, ok := in.LookupAS(a)
		if !ok || as.Number != 64510 {
			t.Fatalf("allocated %v not in AS64510", a)
		}
	}
}

func TestAllocateExhaustion(t *testing.T) {
	in := NewInternet()
	if err := in.RegisterAS(AS{Number: 1, Name: "tiny"}, "192.0.2.0/30"); err != nil {
		t.Fatal(err)
	}
	// /30 has 4 addresses; we skip the network address, so 3 are usable.
	for i := 0; i < 3; i++ {
		if _, err := in.Allocate(1); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := in.Allocate(1); err == nil {
		t.Fatal("allocation beyond pool size succeeded")
	}
}

func TestAllocateUnknownAS(t *testing.T) {
	in := NewInternet()
	if _, err := in.Allocate(42); err == nil {
		t.Fatal("allocation from unregistered AS succeeded")
	}
}

func TestLookupASString(t *testing.T) {
	in := testInternet(t)
	if _, ok := in.LookupASString("garbage"); ok {
		t.Fatal("LookupASString accepted garbage")
	}
	if _, ok := in.LookupASString("8.8.8.8"); ok {
		t.Fatal("LookupASString found AS for unregistered address")
	}
	as, ok := in.LookupASString("198.51.100.77")
	if !ok || as.Number != 64501 {
		t.Fatalf("LookupASString = %+v, %v; want AS64501", as, ok)
	}
}

func TestCountryMixSampleDistribution(t *testing.T) {
	m := NewCountryMix(map[string]float64{"IN": 80, "VN": 20})
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.Sample(rng)]++
	}
	inShare := float64(counts["IN"]) / n
	if inShare < 0.77 || inShare > 0.83 {
		t.Fatalf("IN share = %v, want ≈0.80", inShare)
	}
	if counts["IN"]+counts["VN"] != n {
		t.Fatalf("unexpected countries sampled: %v", counts)
	}
}

func TestCountryMixEmpty(t *testing.T) {
	m := NewCountryMix(nil)
	if got := m.Sample(rand.New(rand.NewSource(1))); got != "" {
		t.Fatalf("empty mix sampled %q", got)
	}
}

func TestCountryMixDropsNonPositive(t *testing.T) {
	m := NewCountryMix(map[string]float64{"IN": 1, "XX": 0, "YY": -3})
	got := m.countries
	if len(got) != 1 || got[0] != "IN" {
		t.Fatalf("Countries = %v, want [IN]", got)
	}
}

// Property: sampling always returns a country present in the mix.
func TestQuickCountryMixSampleMembership(t *testing.T) {
	f := func(seed int64, w1, w2, w3 uint8) bool {
		m := NewCountryMix(map[string]float64{
			"IN": float64(w1),
			"EG": float64(w2),
			"VN": float64(w3),
		})
		valid := map[string]bool{"": true}
		for _, c := range m.countries {
			valid[c] = true
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if !valid[m.Sample(rng)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every allocated address is covered by exactly its own AS.
func TestQuickAllocateLookupConsistent(t *testing.T) {
	in := testInternet(t)
	f := func(pick uint8) bool {
		asns := []ASN{64500, 64501, 64510}
		asn := asns[int(pick)%len(asns)]
		a, err := in.Allocate(asn)
		if err != nil {
			// Pool exhaustion under quick's many iterations is acceptable
			// only for the /24 pools; treat as pass to avoid flakiness.
			return true
		}
		as, ok := in.LookupAS(a)
		return ok && as.Number == asn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
