package defense

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// SynchroTrap is a temporal-clustering detector in the spirit of Cao et
// al. (CCS 2014), which Facebook deployed and the paper evaluated against
// collusion networks in Sec. 6.3. It flags groups of accounts that act on
// the same objects at around the same time for a sustained period.
//
// Model: each action is bucketed into a (objectID, time-window) group.
// Two accounts are "synchronized" when the Jaccard similarity of their
// group sets meets SimilarityThreshold and they share at least MinShared
// groups. Connected components of synchronized accounts with at least
// MinClusterSize members are reported as clusters.
//
// The paper's negative result reproduces naturally: collusion networks
// pick a different random token subset per target post (so 76% of
// hublaa.me accounts appear in at most one group) and spread each
// account's activity over hours, so pairwise similarity stays below any
// usable threshold.
type SynchroTrap struct {
	// Window is the bucketing granularity for "around the same time".
	Window time.Duration
	// SimilarityThreshold is the minimum Jaccard similarity between two
	// accounts' group sets.
	SimilarityThreshold float64
	// MinShared is the minimum number of co-occurring groups before a pair
	// is even considered (sustained similarity, not one burst).
	MinShared int
	// MinActions is the per-account activity floor: accounts appearing in
	// fewer groups carry too little signal to judge and are skipped, as
	// in SynchroTrap's daily-similarity aggregation over a sustained
	// period. Without this floor, two accounts that each acted twice and
	// happened to co-occur both times would score Jaccard 1.0 by chance.
	MinActions int
	// MinClusterSize is the minimum connected-component size reported.
	MinClusterSize int
	// MaxGroupFanout skips pair enumeration inside pathologically large
	// groups to bound cost; 0 means no bound.
	MaxGroupFanout int

	mu sync.Mutex
	// ids interns account IDs to dense indices into names and actions.
	ids   map[string]int32
	names []string
	// actions[id] is the number of groups account id appears in.
	actions []int32
	// groups interns (object, window) keys to indices into members.
	groups map[groupKey]int32
	// members[g] lists group g's accounts in the order they joined it.
	members [][]int32
	// joined holds group<<32|account for every membership recorded.
	joined map[uint64]struct{}
}

type groupKey struct {
	object string
	bucket int64
}

// pairKey packs an unordered pair of dense indices into one map key.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// NewSynchroTrap returns a detector with the given parameters.
func NewSynchroTrap(window time.Duration, simThreshold float64, minShared, minClusterSize int) *SynchroTrap {
	s := &SynchroTrap{
		Window:              window,
		SimilarityThreshold: simThreshold,
		MinShared:           minShared,
		MinActions:          minShared + 2,
		MinClusterSize:      minClusterSize,
		MaxGroupFanout:      2000,
	}
	s.Reset()
	return s
}

// Record ingests one action (accountID acted on objectID at time t).
func (s *SynchroTrap) Record(accountID, objectID string, t time.Time) {
	key := groupKey{object: objectID, bucket: t.UnixNano() / int64(s.Window)}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[accountID]
	if !ok {
		id = int32(len(s.names))
		s.ids[accountID] = id
		s.names = append(s.names, accountID)
		s.actions = append(s.actions, 0)
	}
	g, ok := s.groups[key]
	if !ok {
		g = int32(len(s.members))
		s.groups[key] = g
		s.members = append(s.members, nil)
	}
	// One map assignment both tests and inserts the membership.
	n := len(s.joined)
	s.joined[uint64(g)<<32|uint64(id)] = struct{}{}
	if len(s.joined) == n {
		return
	}
	s.members[g] = append(s.members[g], id)
	s.actions[id]++
}

// Cluster is one detected group of synchronized accounts.
type Cluster struct {
	Accounts []string
}

// Detect runs the clustering over everything recorded so far and returns
// the flagged clusters, largest first.
func (s *SynchroTrap) Detect() []Cluster {
	// Snapshot, under the lock, every group within the fanout cap into
	// one flat buffer, keeping only members active in at least MinActions
	// groups: no pair with a less active member is ever synchronized.
	// names only grows, so the entries the snapshot indexes never change.
	s.mu.Lock()
	names := s.names
	actions := slices.Clone(s.actions)
	var flat []int32
	var ends []int
	for _, m := range s.members {
		if s.MaxGroupFanout > 0 && len(m) > s.MaxGroupFanout {
			continue
		}
		start := len(flat)
		for _, id := range m {
			if int(actions[id]) >= s.MinActions {
				flat = append(flat, id)
			}
		}
		if len(flat)-start < 2 {
			flat = flat[:start]
			continue
		}
		ends = append(ends, len(flat))
	}
	s.mu.Unlock()

	// Count shared groups per account pair.
	shared := make(map[uint64]int32)
	start := 0
	for _, end := range ends {
		m := flat[start:end]
		for i, a := range m {
			for _, b := range m[i+1:] {
				shared[pairKey(a, b)]++
			}
		}
		start = end
	}

	// Union-find over synchronized pairs; -1 marks an account in none.
	parent := make([]int32, len(actions))
	for i := range parent {
		parent[i] = -1
	}
	find := func(x int32) int32 {
		if parent[x] < 0 {
			parent[x] = x
		}
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for k, n := range shared {
		if int(n) < s.MinShared {
			continue
		}
		a, b := int32(k>>32), int32(uint32(k))
		// n counts groups both accounts are in, so the union is at least 1.
		unionSize := int(actions[a]) + int(actions[b]) - int(n)
		if float64(n)/float64(unionSize) >= s.SimilarityThreshold {
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}

	comps := make(map[int32][]string)
	for x, p := range parent {
		if p >= 0 {
			root := find(int32(x))
			comps[root] = append(comps[root], names[x])
		}
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

// Reset discards all recorded actions.
func (s *SynchroTrap) Reset() {
	s.mu.Lock()
	s.ids = make(map[string]int32)
	s.names = nil
	s.actions = nil
	s.groups = make(map[groupKey]int32)
	s.members = nil
	s.joined = make(map[uint64]struct{})
	s.mu.Unlock()
}

// GroupCount reports how many (object, window) groups have been recorded;
// exposed for tests and diagnostics.
func (s *SynchroTrap) GroupCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}
