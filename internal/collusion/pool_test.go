package collusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

func filledPool(n int) *TokenPool {
	p := NewTokenPool()
	for i := 0; i < n; i++ {
		p.Put(fmt.Sprintf("acct-%d", i), fmt.Sprintf("tok-%d", i))
	}
	return p
}

func TestPoolPutRefreshes(t *testing.T) {
	p := NewTokenPool()
	p.Put("a", "tok-1")
	p.Put("a", "tok-2")
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want 1", p.Size())
	}
	tok, ok := p.Token("a")
	if !ok || tok != "tok-2" {
		t.Fatalf("Token = %q, %v", tok, ok)
	}
}

func TestPoolRemove(t *testing.T) {
	p := filledPool(3)
	if !p.Remove("acct-1") {
		t.Fatal("Remove existing = false")
	}
	if p.Remove("acct-1") {
		t.Fatal("Remove twice = true")
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d", p.Size())
	}
	if p.Contains("acct-1") {
		t.Fatal("removed member still present")
	}
	members := p.Members()
	if len(members) != 2 || members[0] != "acct-0" || members[1] != "acct-2" {
		t.Fatalf("Members = %v", members)
	}
}

// TestPoolRemoveInPlace pins Remove to an order-keeping, allocation-free
// delete: the survivors keep their insertion order, so a seeded Sample
// draws exactly what a pool that never held the member draws.
func TestPoolRemoveInPlace(t *testing.T) {
	p := filledPool(10)
	p.Remove("acct-4")
	never := NewTokenPool()
	for i := 0; i < 10; i++ {
		if i != 4 {
			never.Put(fmt.Sprintf("acct-%d", i), fmt.Sprintf("tok-%d", i))
		}
	}
	if got, want := p.Members(), never.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for seed := int64(0); seed < 5; seed++ {
		got := p.Sample(nil, rand.New(rand.NewSource(seed)), 4, nil, 0, 0, t0)
		want := never.Sample(nil, rand.New(rand.NewSource(seed)), 4, nil, 0, 0, t0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Sample = %v, want %v", seed, got, want)
		}
	}

	const runs = 100
	big := filledPool(4 * runs) // never removes the last member, whose delete copies nothing
	odd := big.Members()[1:]
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		big.Remove(odd[2*next])
		next++
	})
	if allocs != 0 {
		t.Errorf("Remove = %.0f allocs/run, want 0", allocs)
	}
}

func TestSampleDistinctAndExcluding(t *testing.T) {
	p := filledPool(50)
	rng := rand.New(rand.NewSource(1))
	exclude := map[string]bool{"acct-7": true}
	got := p.Sample(nil, rng, 10, exclude, 0, 0, t0)
	if len(got) != 10 {
		t.Fatalf("sampled %d, want 10", len(got))
	}
	seen := map[string]bool{}
	for _, s := range got {
		if s.AccountID == "acct-7" {
			t.Fatal("excluded member sampled")
		}
		if seen[s.AccountID] {
			t.Fatalf("duplicate sample %s", s.AccountID)
		}
		seen[s.AccountID] = true
	}
}

func TestSampleShortPool(t *testing.T) {
	p := filledPool(3)
	rng := rand.New(rand.NewSource(1))
	got := p.Sample(nil, rng, 10, nil, 0, 0, t0)
	if len(got) != 3 {
		t.Fatalf("sampled %d from pool of 3", len(got))
	}
}

func TestSampleHourlyCap(t *testing.T) {
	p := filledPool(5)
	rng := rand.New(rand.NewSource(1))
	// With a cap of 2 per hour, 3 consecutive draws of all 5 members can
	// only succeed twice per member.
	total := 0
	for i := 0; i < 3; i++ {
		total += len(p.Sample(nil, rng, 5, nil, 2, 0, t0.Add(time.Duration(i)*time.Minute)))
	}
	if total != 10 {
		t.Fatalf("sampled %d with cap 2/hour over 5 members, want 10", total)
	}
	// After the hour passes, members become available again.
	got := p.Sample(nil, rng, 5, nil, 2, 0, t0.Add(2*time.Hour))
	if len(got) != 5 {
		t.Fatalf("sampled %d after window reset, want 5", len(got))
	}
}

func TestSampleHotSetPrefersRecent(t *testing.T) {
	p := NewTokenPool()
	for i := 0; i < 100; i++ {
		p.Put(fmt.Sprintf("acct-%d", i), fmt.Sprintf("tok-%d", i))
	}
	rng := rand.New(rand.NewSource(1))
	got := p.Sample(nil, rng, 10, nil, 0, 10, t0.Add(time.Hour))
	for _, s := range got {
		var idx int
		if _, err := fmt.Sscanf(s.AccountID, "acct-%d", &idx); err != nil {
			t.Fatal(err)
		}
		if idx < 90 {
			t.Fatalf("hot-set sample drew old member %s", s.AccountID)
		}
	}
}

func TestSampleEmptyPool(t *testing.T) {
	p := NewTokenPool()
	rng := rand.New(rand.NewSource(1))
	if got := p.Sample(nil, rng, 10, nil, 0, 0, t0); len(got) != 0 {
		t.Fatalf("sampled %d from empty pool", len(got))
	}
}

// Property: samples are always distinct, never excluded, and at most n.
func TestQuickSampleInvariants(t *testing.T) {
	f := func(poolSize, n uint8, seed int64) bool {
		p := filledPool(int(poolSize) % 64)
		rng := rand.New(rand.NewSource(seed))
		exclude := map[string]bool{"acct-0": true}
		got := p.Sample(nil, rng, int(n)%32, exclude, 0, 0, t0)
		if len(got) > int(n)%32 {
			return false
		}
		seen := map[string]bool{}
		for _, s := range got {
			if s.AccountID == "acct-0" || seen[s.AccountID] {
				return false
			}
			seen[s.AccountID] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// permWalkSample is Sample as it drew before the reused permutation
// buffer: a fresh rng.Perm over the candidate index space, walked with one
// entries probe per candidate. It is the reference the buffered walk must
// match pick for pick and draw for draw.
func permWalkSample(p *TokenPool, rng *rand.Rand, n int, exclude map[string]bool, maxHourly, hotSet int, now time.Time) []Sampled {
	p.mu.Lock()
	defer p.mu.Unlock()
	var candidates []string
	for _, e := range p.order {
		candidates = append(candidates, e.accountID)
	}
	if hotSet > 0 && len(candidates) > hotSet {
		candidates = candidates[len(candidates)-hotSet:]
	}
	out := make([]Sampled, 0, n)
	cutoff := now.Add(-time.Hour)
	for _, i := range rng.Perm(len(candidates)) {
		if len(out) == n {
			break
		}
		id := candidates[i]
		if exclude[id] {
			continue
		}
		e := p.entries[id]
		live := e.usage[:0]
		for _, u := range e.usage {
			if u.After(cutoff) {
				live = append(live, u)
			}
		}
		e.usage = live
		if maxHourly > 0 && len(e.usage) >= maxHourly {
			continue
		}
		e.usage = append(e.usage, now)
		out = append(out, Sampled{AccountID: id, Token: e.token})
	}
	return out
}

// TestSampleMatchesPermWalk drives twin pools of several sizes through
// rounds of draws — uniform and hot-set, with exclusions, the hourly cap
// and removals between rounds — one through Sample, one through the
// rand.Perm reference, from twin rngs. Every round's picks must be
// identical, and so must each rng's next draw: the buffered permutation
// consumes exactly the stream rand.Perm does.
func TestSampleMatchesPermWalk(t *testing.T) {
	for _, size := range []int{0, 1, 2, 7, 64, 301} {
		for seed := int64(1); seed <= 4; seed++ {
			p, ref := filledPool(size), filledPool(size)
			rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			ctl := rand.New(rand.NewSource(seed * 7919))
			var dst []Sampled
			now := t0
			for round := 0; round < 12; round++ {
				now = now.Add(time.Duration(ctl.Intn(40)) * time.Minute)
				n := ctl.Intn(size + 3)
				hotSet := []int{0, 0, 3, size / 2}[ctl.Intn(4)]
				maxHourly := []int{0, 2, 10}[ctl.Intn(3)]
				exclude := map[string]bool{}
				for i := ctl.Intn(size/3 + 2); i > 0; i-- {
					exclude[fmt.Sprintf("acct-%d", ctl.Intn(size+1))] = true
				}
				dst = p.Sample(dst, rng, n, exclude, maxHourly, hotSet, now)
				want := permWalkSample(ref, refRng, n, exclude, maxHourly, hotSet, now)
				if len(dst) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dst, want)) {
					t.Fatalf("size %d seed %d round %d: Sample = %v, reference %v", size, seed, round, dst, want)
				}
				if got, want := rng.Int63(), refRng.Int63(); got != want {
					t.Fatalf("size %d seed %d round %d: next draw %d, reference %d", size, seed, round, got, want)
				}
				if size > 0 && ctl.Intn(3) == 0 {
					id := fmt.Sprintf("acct-%d", ctl.Intn(size))
					if p.Remove(id) != ref.Remove(id) {
						t.Fatalf("size %d seed %d round %d: Remove(%s) disagrees", size, seed, round, id)
					}
				}
			}
		}
	}
}
