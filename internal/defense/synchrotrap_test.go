package defense

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// GroupCount reports how many (object, window) groups have been recorded.
func (s *SynchroTrap) GroupCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

func TestSynchroTrapDetectsLockstep(t *testing.T) {
	// Ten accounts like the same five posts within the same minute each
	// time — the lockstep pattern SynchroTrap is built for.
	st := NewSynchroTrap(time.Minute, 0.5, 2, 3)
	base := t0
	for post := 0; post < 5; post++ {
		at := base.Add(time.Duration(post) * time.Hour)
		for acct := 0; acct < 10; acct++ {
			st.Record(fmt.Sprintf("bot-%d", acct), fmt.Sprintf("post-%d", post), at.Add(time.Duration(acct)*time.Second))
		}
	}
	clusters := st.Detect()
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	if len(clusters[0].Accounts) != 10 {
		t.Fatalf("cluster size = %d, want 10", len(clusters[0].Accounts))
	}
}

func TestSynchroTrapMissesSpreadOutActivity(t *testing.T) {
	// The collusion network evasion of Sec. 6.3: each target post is liked
	// by a *different* random subset of a large pool, and each account
	// appears in at most one or two groups. No sustained pairwise
	// similarity exists, so nothing is flagged.
	st := NewSynchroTrap(time.Minute, 0.5, 2, 3)
	rng := rand.New(rand.NewSource(42))
	const poolSize = 2000
	for post := 0; post < 30; post++ {
		at := t0.Add(time.Duration(post) * time.Hour)
		perm := rng.Perm(poolSize)[:100] // fresh random subset per post
		for i, idx := range perm {
			// Spread the likes of this subset over many minutes.
			st.Record(fmt.Sprintf("member-%d", idx), fmt.Sprintf("target-%d", post),
				at.Add(time.Duration(i)*3*time.Minute))
		}
	}
	clusters := st.Detect()
	if len(clusters) != 0 {
		t.Fatalf("spread-out activity produced %d clusters; evasion failed", len(clusters))
	}
}

func TestSynchroTrapSeparateComponents(t *testing.T) {
	st := NewSynchroTrap(time.Minute, 0.5, 2, 2)
	// Two disjoint pairs, each acting in lockstep on their own posts.
	for post := 0; post < 4; post++ {
		at := t0.Add(time.Duration(post) * time.Hour)
		st.Record("a1", fmt.Sprintf("pa-%d", post), at)
		st.Record("a2", fmt.Sprintf("pa-%d", post), at)
		st.Record("b1", fmt.Sprintf("pb-%d", post), at)
		st.Record("b2", fmt.Sprintf("pb-%d", post), at)
	}
	clusters := st.Detect()
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Accounts) != 2 {
			t.Fatalf("cluster = %v", c.Accounts)
		}
	}
}

func TestSynchroTrapMinSharedGate(t *testing.T) {
	// One shared burst is not "sustained": with MinShared=2, a single
	// co-occurrence must not link accounts.
	st := NewSynchroTrap(time.Minute, 0.1, 2, 2)
	st.Record("x", "post", t0)
	st.Record("y", "post", t0)
	if clusters := st.Detect(); len(clusters) != 0 {
		t.Fatalf("single burst created clusters: %v", clusters)
	}
}

func TestSynchroTrapWindowBoundary(t *testing.T) {
	st := NewSynchroTrap(time.Minute, 0.5, 1, 2)
	st.Record("x", "post", t0)
	st.Record("y", "post", t0.Add(10*time.Minute)) // different window
	if got := st.GroupCount(); got != 2 {
		t.Fatalf("GroupCount = %d, want 2", got)
	}
	if clusters := st.Detect(); len(clusters) != 0 {
		t.Fatalf("cross-window likes clustered: %v", clusters)
	}
}

func TestSynchroTrapDuplicateRecordIdempotent(t *testing.T) {
	st := NewSynchroTrap(time.Minute, 0.5, 2, 2)
	for i := 0; i < 5; i++ {
		st.Record("x", "post", t0)
	}
	if got := st.GroupCount(); got != 1 {
		t.Fatalf("GroupCount = %d, want 1", got)
	}
}

func TestSynchroTrapMaxGroupFanout(t *testing.T) {
	st := NewSynchroTrap(time.Minute, 0.1, 1, 2)
	st.MaxGroupFanout = 10
	// A group larger than the fanout cap is skipped entirely.
	for i := 0; i < 50; i++ {
		st.Record(fmt.Sprintf("m-%d", i), "huge-post", t0)
	}
	if clusters := st.Detect(); len(clusters) != 0 {
		t.Fatalf("oversized group clustered: %d clusters", len(clusters))
	}
}

func TestSynchroTrapReset(t *testing.T) {
	st := NewSynchroTrap(time.Minute, 0.5, 1, 2)
	st.Record("x", "post", t0)
	st.Reset()
	if st.GroupCount() != 0 {
		t.Fatal("Reset did not clear groups")
	}
}

// TestSynchroTrapMatchesReferenceLarge compares Detect with refTrap on
// streams shaped like a Figure 5 sweep's snapshot, with Figure 5's
// window, similarity threshold and MinShared: 2,000 members whose
// activity spans 1–40 groups (most in few), groups of 2–400 members
// with some above MaxGroupFanout, and lockstep teams that act together
// in their own groups and in busy member groups. Unlike the small
// differential, these streams give Detect a large account→group
// adjacency and accounts with thousands of co-members, so a count or a
// touched list cut short or carried over from one account to the next
// changes the pairs found.
func TestSynchroTrapMatchesReferenceLarge(t *testing.T) {
	const members, fanout = 2000, 300
	teams := []int{6, 12, 25}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewSynchroTrap(time.Minute, 0.5, 3, 5)
		st.MaxGroupFanout = fanout
		ref := newRefTrap(st)
		record := func(account string, group int) {
			object := fmt.Sprintf("post-%d", group)
			at := t0.Add(time.Duration(group)*time.Minute + time.Duration(rng.Intn(60))*time.Second)
			st.Record(account, object, at)
			ref.Record(account, object, at)
		}

		// Configuration model: member i holds 1–40 membership stubs, the
		// shuffled stubs are dealt into groups of 2–400 (a stub dealt
		// twice into one group collapses into one membership).
		var stubs []int
		for i := 0; i < members; i++ {
			for k := 1 + int(39*math.Pow(rng.Float64(), 6)); k > 0; k-- {
				stubs = append(stubs, i)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		groups, over := 0, 0
		var busy []int // member groups a team may join
		for len(stubs) > 0 {
			size := min(2+int(398*math.Pow(rng.Float64(), 5)), len(stubs))
			for _, i := range stubs[:size] {
				record(fmt.Sprintf("member-%d", i), groups)
			}
			switch {
			case size > fanout:
				over++
			case size >= 50:
				busy = append(busy, groups)
			}
			groups++
			stubs = stubs[size:]
		}
		if over == 0 || len(busy) == 0 {
			t.Fatalf("seed %d: %d groups above the fanout cap and %d busy ones; the stream needs both", seed, over, len(busy))
		}

		// Each team joins, with 90% of its bots, 10–20 groups of its own
		// and 5 busy member groups.
		for team, size := range teams {
			var joined []int
			for j := 10 + rng.Intn(11); j > 0; j-- {
				joined = append(joined, groups)
				groups++
			}
			for j := 0; j < 5; j++ {
				joined = append(joined, busy[rng.Intn(len(busy))])
			}
			for _, g := range joined {
				for b := 0; b < size; b++ {
					if rng.Intn(10) > 0 {
						record(fmt.Sprintf("bot%d-%d", team, b), g)
					}
				}
			}
		}

		got, want := st.Detect(), ref.Detect()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Detect = %d clusters %v\nreference = %d clusters %v", seed, len(got), got, len(want), want)
		}
		for team, size := range teams {
			var flagged []string // the cluster holding the team's first bot
			for _, c := range got {
				if slices.Contains(c.Accounts, fmt.Sprintf("bot%d-0", team)) {
					flagged = c.Accounts
				}
			}
			for b := 0; b < size; b++ {
				if bot := fmt.Sprintf("bot%d-%d", team, b); !slices.Contains(flagged, bot) {
					t.Errorf("seed %d: %s is not in its team's cluster %v", seed, bot, flagged)
				}
			}
		}
		t.Logf("seed %d: %d groups (%d above the cap) over %d memberships, %d clusters", seed, st.GroupCount(), over, len(st.joined), len(got))
	}
}
