package defense

import (
	"sort"
	"sync"
	"time"

	"repro/internal/simclock"
)

// The map-based implementations slidingWindow and SynchroTrap replaced,
// kept verbatim as differential references (differential_test.go).

// refWindow is the bucket-map sliding window: one map of bucket index to
// count per key, pruned of expired buckets on every call.
type refWindow struct {
	mu     sync.Mutex
	clock  simclock.Clock
	bucket time.Duration
	counts map[string]map[int64]int
}

func newRefWindow(clock simclock.Clock, window time.Duration) *refWindow {
	return &refWindow{clock: clock, bucket: window / 8, counts: map[string]map[int64]int{}}
}

func (s *refWindow) allow(key string, limit int) bool {
	now := s.clock.Now()
	cur := now.UnixNano() / int64(s.bucket)
	oldest := cur - 8
	s.mu.Lock()
	defer s.mu.Unlock()
	buckets := s.counts[key]
	if buckets == nil {
		buckets = map[int64]int{}
		s.counts[key] = buckets
	}
	total := 0
	for b, c := range buckets {
		if b <= oldest {
			delete(buckets, b)
			continue
		}
		total += c
	}
	if total >= limit {
		return false
	}
	buckets[cur]++
	return true
}

// refTrap is the string-keyed SynchroTrap: group membership as sets of
// account IDs, pairs counted in a map keyed by both IDs.
type refTrap struct {
	Window              time.Duration
	SimilarityThreshold float64
	MinShared           int
	MinActions          int
	MinClusterSize      int
	MaxGroupFanout      int

	groups        map[groupKey]map[string]bool
	accountGroups map[string]int
}

func newRefTrap(s *SynchroTrap) *refTrap {
	return &refTrap{
		Window:              s.Window,
		SimilarityThreshold: s.SimilarityThreshold,
		MinShared:           s.MinShared,
		MinActions:          s.MinActions,
		MinClusterSize:      s.MinClusterSize,
		MaxGroupFanout:      s.MaxGroupFanout,
		groups:              make(map[groupKey]map[string]bool),
		accountGroups:       make(map[string]int),
	}
}

func (s *refTrap) Record(accountID, objectID string, t time.Time) {
	key := groupKey{object: objectID, bucket: t.UnixNano() / int64(s.Window)}
	g := s.groups[key]
	if g == nil {
		g = make(map[string]bool)
		s.groups[key] = g
	}
	if !g[accountID] {
		g[accountID] = true
		s.accountGroups[accountID]++
	}
}

func (s *refTrap) Detect() []Cluster {
	memberships := make([][]string, 0, len(s.groups))
	for _, g := range s.groups {
		if s.MaxGroupFanout > 0 && len(g) > s.MaxGroupFanout {
			continue
		}
		members := make([]string, 0, len(g))
		for a := range g {
			members = append(members, a)
		}
		sort.Strings(members)
		memberships = append(memberships, members)
	}
	accountGroups := s.accountGroups

	type pair struct{ a, b string }
	shared := make(map[pair]int)
	for _, members := range memberships {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				shared[pair{members[i], members[j]}]++
			}
		}
	}

	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for p, n := range shared {
		if n < s.MinShared {
			continue
		}
		if accountGroups[p.a] < s.MinActions || accountGroups[p.b] < s.MinActions {
			continue
		}
		unionSize := accountGroups[p.a] + accountGroups[p.b] - n
		if unionSize <= 0 {
			continue
		}
		if float64(n)/float64(unionSize) >= s.SimilarityThreshold {
			union(p.a, p.b)
		}
	}

	comps := make(map[string][]string)
	for a := range parent {
		root := find(a)
		comps[root] = append(comps[root], a)
	}
	var out []Cluster
	for _, members := range comps {
		if len(members) >= s.MinClusterSize {
			sort.Strings(members)
			out = append(out, Cluster{Accounts: members})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Accounts) != len(out[j].Accounts) {
			return len(out[i].Accounts) > len(out[j].Accounts)
		}
		return out[i].Accounts[0] < out[j].Accounts[0]
	})
	return out
}
