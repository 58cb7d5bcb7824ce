package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// Scale profile: a platform populated to millions of accounts, the
// regime the ROADMAP north-star targets. Unlike BuildScenario — which
// instantiates the paper's 22 collusion networks over a Table-4-sized
// population — BuildScale constructs only the substrate the open-loop
// load generator (loadgen.go) drives: a large account graph with a
// power-law-ish degree distribution, a set of fan pages, and a pool of
// hot posts that concentrate like traffic the way viral content does.
//
// Construction is memory-lean: accounts are registered through
// Store.CreateAccountBatch in fixed-size chunks (one lock scope per
// stripe per chunk), names are empty (the load generator never reads
// them), countries come from a small shared-string rotation, and member
// IDs are reconstructed arithmetically from the first minted ID instead
// of being held in a million-entry slice.

// ScaleConfig parameterises BuildScale.
type ScaleConfig struct {
	// Accounts is the population size (the ROADMAP regime is 1e6–1e7;
	// tests use a few thousand). Minimum 100.
	Accounts int
	// Pages is the number of fan pages; 0 derives Accounts/1000 (min 8).
	Pages int
	// HotPosts is the pool of posts the load generator targets; 0
	// derives 4*Pages (min 64).
	HotPosts int
	// AvgFriends is the mean friend degree; friendship endpoints are
	// drawn from a Zipf distribution over the population, so early
	// accounts become hubs and the degree distribution is heavy-tailed.
	// 0 disables friendship edges entirely (they are not needed by the
	// load generator and dominate memory at full scale).
	AvgFriends float64
	// ZipfS is the skew (> 1) of the popularity distributions (hub
	// selection, hot-post targeting); 0 selects 1.2.
	ZipfS float64
	// MaxHubIndex caps how deep into the population the Zipf hub/actor
	// sampling reaches; 0 means the whole population.
	MaxHubIndex int
	// Shards pins the store's stripe count; 0 selects the default.
	Shards int
	// BatchSize is the account-construction chunk; 0 selects 8192.
	BatchSize int
	// RetentionWindow bounds the store's edge-history retention; 0 keeps
	// the default infinite window.
	RetentionWindow time.Duration
	// Start is the simulation epoch; zero means November 1, 2015.
	Start time.Time
	// Seed drives all randomness.
	Seed int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Accounts < 100 {
		c.Accounts = 100
	}
	if c.Pages <= 0 {
		c.Pages = c.Accounts / 1000
		if c.Pages < 8 {
			c.Pages = 8
		}
	}
	if c.HotPosts <= 0 {
		c.HotPosts = 4 * c.Pages
		if c.HotPosts < 64 {
			c.HotPosts = 64
		}
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.MaxHubIndex <= 0 || c.MaxHubIndex > c.Accounts {
		c.MaxHubIndex = c.Accounts
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8192
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaleCountries is the shared-string country rotation; roughly the
// paper's Table 2 visitor geography.
var scaleCountries = []string{"IN", "EG", "TR", "VN", "BD", "PK", "ID", "DZ", "US", "BR"}

// ScaleWorld is a built scale profile.
type ScaleWorld struct {
	Config   ScaleConfig
	Clock    *simclock.Simulated
	Platform *platform.Platform
	Graph    *socialgraph.Store

	// Pages and Posts are the pre-built target pools.
	Pages []string
	Posts []string
	// FriendEdges is the number of friendship edges actually inserted.
	FriendEdges int

	// firstAccount is the numeric value of the first minted account ID;
	// AccountID reconstructs every member ID from it.
	firstAccount uint64
	// ids interns the population's ID strings for populations up to
	// idCacheMax, so the load generator's per-op actor lookup formats
	// nothing. One string header plus digits per account costs ~24 MiB at
	// the 1M cap — noise next to the graph itself — while a 10M-account
	// run skips the cache and falls back to formatting on demand.
	ids []string
}

// idCacheMax bounds the interned-ID table (1M accounts).
const idCacheMax = 1 << 20

// AccountID returns the ID of the i-th account (0-based): interned for
// populations within idCacheMax, otherwise reconstructed from the
// minter's consecutive numbering (the i-th ID is firstAccount+i).
func (w *ScaleWorld) AccountID(i int) string {
	if i >= 0 && i < len(w.ids) {
		return w.ids[i]
	}
	return strconv.FormatUint(w.firstAccount+uint64(i), 10)
}

// BuildScale constructs the world.
func BuildScale(cfg ScaleConfig) (*ScaleWorld, error) {
	cfg = cfg.withDefaults()
	clock := simclock.NewSimulated(cfg.Start)
	p := platform.NewWithConfig(clock, nil, platform.Config{Provider: provider.Default(), Shards: cfg.Shards, AccountHint: cfg.Accounts})
	if cfg.RetentionWindow > 0 {
		p.Graph.SetRetentionWindow(cfg.RetentionWindow)
	}
	w := &ScaleWorld{Config: cfg, Clock: clock, Platform: p, Graph: p.Graph}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Accounts, in batches. One seed slice is reused across chunks so
	// construction memory is O(BatchSize), not O(Accounts).
	seeds := make([]socialgraph.AccountSeed, cfg.BatchSize)
	created := 0
	for created < cfg.Accounts {
		n := cfg.Accounts - created
		if n > cfg.BatchSize {
			n = cfg.BatchSize
		}
		for j := 0; j < n; j++ {
			seeds[j] = socialgraph.AccountSeed{Country: scaleCountries[(created+j)%len(scaleCountries)]}
		}
		batch := p.Graph.CreateAccountBatch(seeds[:n], cfg.Start)
		if created == 0 {
			first, err := strconv.ParseUint(batch[0].ID, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: unparseable account ID %q: %w", batch[0].ID, err)
			}
			w.firstAccount = first
		}
		if cfg.Accounts <= idCacheMax {
			// Intern the store's own ID strings (no second copy per
			// account) — see ScaleWorld.ids.
			if w.ids == nil {
				w.ids = make([]string, 0, cfg.Accounts)
			}
			for j := 0; j < n; j++ {
				w.ids = append(w.ids, batch[j].ID)
			}
		}
		created += n
	}

	// Fan pages, owned by Zipf-sampled hub accounts, and the hot posts
	// the load generator concentrates likes on (posted by the pages, as
	// viral fan-page content is).
	owners := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.MaxHubIndex-1))
	for i := 0; i < cfg.Pages; i++ {
		page, err := p.Graph.CreatePage(w.AccountID(int(owners.Uint64())), "page", cfg.Start)
		if err != nil {
			return nil, fmt.Errorf("workload: scale page %d: %w", i, err)
		}
		w.Pages = append(w.Pages, page.ID)
	}
	for i := 0; i < cfg.HotPosts; i++ {
		post, err := p.Graph.CreatePost(w.Pages[i%len(w.Pages)], "p", socialgraph.WriteMeta{At: cfg.Start})
		if err != nil {
			return nil, fmt.Errorf("workload: scale post %d: %w", i, err)
		}
		w.Posts = append(w.Posts, post.ID)
	}

	// Friendship edges: one endpoint uniform, the other Zipf-skewed
	// toward the hubs, so in-degree is heavy-tailed. Duplicate and self
	// edges are simply skipped, as in organic graph growth.
	if cfg.AvgFriends > 0 {
		attempts := int(cfg.AvgFriends * float64(cfg.Accounts) / 2)
		for i := 0; i < attempts; i++ {
			a := rng.Intn(cfg.Accounts)
			b := int(owners.Uint64())
			if err := p.Graph.AddFriendship(w.AccountID(a), w.AccountID(b)); err == nil {
				w.FriendEdges++
			}
		}
	}
	return w, nil
}
