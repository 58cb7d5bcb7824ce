package defense

import (
	"slices"
	"strings"
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
	// Group g is flat[bounds[g]:bounds[g+1]]. names only grows, so the
	// entries the snapshot indexes never change.
	s.mu.Lock()
	names := s.names
	actions := slices.Clone(s.actions)
	flat := make([]int32, 0, len(s.joined))
	bounds := []int32{0}
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
		bounds = append(bounds, int32(len(flat)))
	}
	s.mu.Unlock()

	// Account a's snapshot groups are adj[off[a]:off[a+1]]: count each
	// account's memberships, turn the counts into starts, place every
	// group at its account's cursor, then shift the cursors (each now an
	// end) back into starts.
	n := len(actions)
	off := make([]int32, n+1)
	for _, id := range flat {
		off[id+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]int32, len(flat))
	for g := range len(bounds) - 1 {
		for _, id := range flat[bounds[g]:bounds[g+1]] {
			adj[off[id]] = int32(g)
			off[id]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0

	// Union-find over synchronized pairs; -1 marks an account in none.
	parent := make([]int32, n)
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

	// For each account a, count[b] is the number of groups a shares with
	// each co-member b > a; touched lists those b so that testing the
	// pairs also zeroes count for the next a.
	count := make([]int32, n)
	var touched []int32
	for a := range int32(n) {
		for _, g := range adj[off[a]:off[a+1]] {
			for _, b := range flat[bounds[g]:bounds[g+1]] {
				if b <= a {
					continue
				}
				if count[b] == 0 {
					touched = append(touched, b)
				}
				count[b]++
			}
		}
		for _, b := range touched {
			shared := count[b]
			count[b] = 0
			if int(shared) < s.MinShared {
				continue
			}
			// shared counts groups both accounts are in, so the union is at least 1.
			unionSize := int(actions[a]) + int(actions[b]) - int(shared)
			if float64(shared)/float64(unionSize) >= s.SimilarityThreshold {
				ra, rb := find(a), find(b)
				if ra != rb {
					parent[ra] = rb
				}
			}
		}
		touched = touched[:0]
	}

	// Size each component at its root (count is all zeros again), then
	// name only the members of components large enough to report; at
	// maps each such root to its cluster in out.
	size := count
	for x, p := range parent {
		if p >= 0 {
			size[find(int32(x))]++
		}
	}
	var out []Cluster
	at := make(map[int32]int)
	for x, p := range parent {
		if p < 0 {
			continue
		}
		r := find(int32(x))
		if int(size[r]) < s.MinClusterSize {
			continue
		}
		i, ok := at[r]
		if !ok {
			i = len(out)
			at[r] = i
			out = append(out, Cluster{Accounts: make([]string, 0, size[r])})
		}
		out[i].Accounts = append(out[i].Accounts, names[x])
	}
	for _, c := range out {
		slices.Sort(c.Accounts)
	}
	slices.SortFunc(out, func(x, y Cluster) int {
		if len(x.Accounts) != len(y.Accounts) {
			return len(y.Accounts) - len(x.Accounts)
		}
		return strings.Compare(x.Accounts[0], y.Accounts[0])
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
