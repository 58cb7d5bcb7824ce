// Package workload generates the scenarios the experiments run against:
// the top-100 application registry (Table 1), the 22 measured collusion
// networks with their paper-reported parameters (Tables 2–4), per-network
// comment dictionaries (Table 6), member populations with country mixes,
// and the IP/AS footprints (Figure 8).
//
// All quantities lifted from the paper are recorded at full scale; the
// Scenario builder divides population-scale numbers by a configurable
// Scale factor so the suite runs on a laptop while preserving shapes.
package workload

// NetworkSpec captures one collusion network's published measurements and
// the operational parameters inferred from them.
type NetworkSpec struct {
	Name string
	// AlexaRank and TopCountry/TopCountryShare come from Table 2.
	AlexaRank       int
	TopCountry      string
	TopCountryShare float64 // 0..1

	// Membership is the Table 4 membership estimate (unique accounts).
	Membership int
	// LikesPerRequest is the Table 4 average likes per post (the paper
	// observes a fixed per-request quota).
	LikesPerRequest int
	// PostsSubmitted is how many posts the honeypot submitted (Table 4).
	PostsSubmitted int

	// CommentsPerRequest is the Table 6 average comments per post; 0 when
	// the network offers no auto-comment service.
	CommentsPerRequest int
	// CommentPostsSubmitted is the Table 6 post count for the comment
	// milking runs.
	CommentPostsSubmitted int
	// UniqueComments is the Table 6 dictionary size.
	UniqueComments int

	// DailyRequestLimit reproduces the 10-requests/day cap of djliker.com
	// and monkeyliker.com; 0 = unlimited.
	DailyRequestLimit int
	// Intermittent marks networks with observed outages (arabfblike.com
	// and others did not respond to some requests).
	Intermittent bool

	// App is which exploited application the network uses (Table 3 /
	// Table 5): one of AppHTCSense, AppNokiaAccount, AppSonyXperia,
	// AppPageManager.
	App string

	// IPCount is the delivery IP pool size; hublaa.me used >6,000
	// addresses in two bulletproof ASes, most others a handful (Fig. 8).
	IPCount int
	// Bulletproof marks networks hosted in bulletproof ASes.
	Bulletproof bool

	// HotSet marks networks whose engines initially reuse a small token
	// working set and therefore feel (and adapt to) token rate limits —
	// the official-liker.net behaviour of Figure 5.
	HotSet bool
}

// Exploited application labels (Table 3).
const (
	AppHTCSense     = "HTC Sense"
	AppNokiaAccount = "Nokia Account"
	AppSonyXperia   = "Sony Xperia smartphone"
	AppPageManager  = "Page Manager For iOS"
)

// Networks returns the 22 milked collusion networks of Table 4, in the
// paper's descending-membership order, with parameters from Tables 2–6.
func Networks() []NetworkSpec {
	return []NetworkSpec{
		{Name: "hublaa.me", AlexaRank: 8_000, TopCountry: "IN", TopCountryShare: 0.18,
			Membership: 294_949, LikesPerRequest: 350, PostsSubmitted: 1_421,
			App: AppHTCSense, IPCount: 6_000, Bulletproof: true},
		{Name: "official-liker.net", AlexaRank: 17_000, TopCountry: "IN", TopCountryShare: 0.26,
			Membership: 233_161, LikesPerRequest: 390, PostsSubmitted: 1_757,
			App: AppHTCSense, IPCount: 4, HotSet: true},
		{Name: "mg-likers.com", AlexaRank: 56_000, TopCountry: "IN", TopCountryShare: 0.50,
			Membership: 177_665, LikesPerRequest: 247, PostsSubmitted: 1_537,
			CommentsPerRequest: 17, CommentPostsSubmitted: 120, UniqueComments: 16,
			App: AppHTCSense, IPCount: 3, HotSet: true},
		{Name: "monkeyliker.com", AlexaRank: 410_000, TopCountry: "IN", TopCountryShare: 0.80,
			Membership: 137_048, LikesPerRequest: 233, PostsSubmitted: 710,
			CommentsPerRequest: 9, CommentPostsSubmitted: 115, UniqueComments: 45,
			DailyRequestLimit: 10, App: AppHTCSense, IPCount: 2},
		{Name: "f8-autoliker.com", AlexaRank: 136_000, TopCountry: "IN", TopCountryShare: 0.74,
			Membership: 72_157, LikesPerRequest: 253, PostsSubmitted: 1_311,
			App: AppHTCSense, IPCount: 3},
		{Name: "djliker.com", AlexaRank: 39_000, TopCountry: "IN", TopCountryShare: 0.55,
			Membership: 61_450, LikesPerRequest: 149, PostsSubmitted: 471,
			CommentsPerRequest: 9, CommentPostsSubmitted: 104, UniqueComments: 52,
			DailyRequestLimit: 10, App: AppHTCSense, IPCount: 2},
		{Name: "autolikesgroups.com", AlexaRank: 54_000, TopCountry: "IN", TopCountryShare: 0.30,
			Membership: 41_015, LikesPerRequest: 261, PostsSubmitted: 774,
			App: AppHTCSense, IPCount: 2},
		{Name: "4liker.com", AlexaRank: 81_000, TopCountry: "IN", TopCountryShare: 0.33,
			Membership: 23_110, LikesPerRequest: 264, PostsSubmitted: 269,
			App: AppHTCSense, IPCount: 2},
		{Name: "myliker.com", AlexaRank: 55_000, TopCountry: "IN", TopCountryShare: 0.45,
			Membership: 18_514, LikesPerRequest: 102, PostsSubmitted: 320,
			CommentsPerRequest: 19, CommentPostsSubmitted: 128, UniqueComments: 42,
			App: AppHTCSense, IPCount: 2},
		{Name: "kdliker.com", AlexaRank: 154_000, TopCountry: "IN", TopCountryShare: 0.80,
			Membership: 18_421, LikesPerRequest: 138, PostsSubmitted: 599,
			CommentsPerRequest: 47, CommentPostsSubmitted: 119, UniqueComments: 31,
			App: AppHTCSense, IPCount: 2},
		{Name: "oneliker.com", AlexaRank: 136_000, TopCountry: "IN", TopCountryShare: 0.58,
			Membership: 18_013, LikesPerRequest: 72, PostsSubmitted: 334,
			App: AppHTCSense, IPCount: 1},
		{Name: "fb-autolikers.com", AlexaRank: 99_000, TopCountry: "IN", TopCountryShare: 0.44,
			Membership: 16_234, LikesPerRequest: 80, PostsSubmitted: 244,
			App: AppNokiaAccount, IPCount: 1},
		{Name: "autolike.vn", AlexaRank: 969_000, TopCountry: "VN", TopCountryShare: 0.94,
			Membership: 14_892, LikesPerRequest: 254, PostsSubmitted: 139,
			App: AppPageManager, IPCount: 2},
		{Name: "monsterlikes.com", AlexaRank: 509_000, TopCountry: "IN", TopCountryShare: 0.82,
			Membership: 5_168, LikesPerRequest: 146, PostsSubmitted: 495,
			CommentsPerRequest: 9, CommentPostsSubmitted: 100, UniqueComments: 41,
			App: AppHTCSense, IPCount: 1},
		{Name: "postlikers.com", AlexaRank: 148_000, TopCountry: "IN", TopCountryShare: 0.83,
			Membership: 4_656, LikesPerRequest: 89, PostsSubmitted: 96,
			App: AppHTCSense, IPCount: 1},
		{Name: "facebook-autoliker.com", AlexaRank: 312_000, TopCountry: "IN", TopCountryShare: 0.87,
			Membership: 3_108, LikesPerRequest: 33, PostsSubmitted: 132,
			App: AppNokiaAccount, IPCount: 1},
		{Name: "realliker.com", AlexaRank: 1_379_000, TopCountry: "IN", TopCountryShare: 0.50,
			Membership: 2_860, LikesPerRequest: 187, PostsSubmitted: 105,
			App: AppHTCSense, IPCount: 1},
		{Name: "autolikesub.com", AlexaRank: 603_000, TopCountry: "VN", TopCountryShare: 0.92,
			Membership: 2_379, LikesPerRequest: 88, PostsSubmitted: 286,
			App: AppSonyXperia, IPCount: 1},
		{Name: "kingliker.com", AlexaRank: 351_000, TopCountry: "IN", TopCountryShare: 0.72,
			Membership: 2_243, LikesPerRequest: 47, PostsSubmitted: 107,
			App: AppHTCSense, IPCount: 1},
		{Name: "rockliker.net", AlexaRank: 530_000, TopCountry: "IN", TopCountryShare: 0.92,
			Membership: 1_480, LikesPerRequest: 44, PostsSubmitted: 99,
			App: AppHTCSense, IPCount: 1},
		{Name: "arabfblike.com", AlexaRank: 1_221_000, TopCountry: "EG", TopCountryShare: 0.43,
			Membership: 1_328, LikesPerRequest: 14, PostsSubmitted: 311,
			CommentsPerRequest: 2, CommentPostsSubmitted: 130, UniqueComments: 37,
			Intermittent: true, App: AppSonyXperia, IPCount: 1},
		{Name: "fast-liker.com", AlexaRank: 1_208_000, TopCountry: "IN", TopCountryShare: 0.50,
			Membership: 834, LikesPerRequest: 44, PostsSubmitted: 232,
			App: AppHTCSense, IPCount: 1},
	}
}

// RankedSite is a Table 2 entry for a collusion network the paper ranked
// but did not milk (no honeypot, so no membership estimate).
type RankedSite struct {
	Name            string
	AlexaRank       int
	TopCountry      string
	TopCountryShare float64
}

// RankedOnlySites returns the Table 2 networks outside the 22-network
// milking campaign, completing the paper's top-50 roster.
func RankedOnlySites() []RankedSite {
	return []RankedSite{
		{Name: "autolikerfb.com", AlexaRank: 109_000, TopCountry: "IN", TopCountryShare: 0.62},
		{Name: "cyberlikes.com", AlexaRank: 119_000, TopCountry: "IN", TopCountryShare: 0.78},
		{Name: "postliker.net", AlexaRank: 132_000, TopCountry: "IN", TopCountryShare: 0.63},
		{Name: "fblikess.com", AlexaRank: 150_000, TopCountry: "IN", TopCountryShare: 0.64},
		{Name: "way2likes.com", AlexaRank: 154_000, TopCountry: "IN", TopCountryShare: 0.74},
		{Name: "topautolike.com", AlexaRank: 192_000, TopCountry: "IN", TopCountryShare: 0.60},
		{Name: "royaliker.net", AlexaRank: 201_000, TopCountry: "IN", TopCountryShare: 0.86},
		{Name: "begeniyor.com", AlexaRank: 205_000, TopCountry: "TR", TopCountryShare: 0.85},
		// The paper's Table 2 lists royaliker.net twice (two ranked
		// mirrors); both entries are kept to preserve the 50-row roster.
		{Name: "royaliker.net (mirror)", AlexaRank: 210_000, TopCountry: "IN", TopCountryShare: 0.59},
		{Name: "autolike-us.com", AlexaRank: 227_000, TopCountry: "IN", TopCountryShare: 0.52},
		{Name: "autolike.in", AlexaRank: 216_000, TopCountry: "IN", TopCountryShare: 0.74},
		{Name: "likelikego.com", AlexaRank: 232_000, TopCountry: "IN", TopCountryShare: 0.52},
		{Name: "myfbliker.com", AlexaRank: 238_000, TopCountry: "IN", TopCountryShare: 0.58},
		{Name: "vliker.com", AlexaRank: 273_000, TopCountry: "IN", TopCountryShare: 0.43},
		{Name: "likermoo.com", AlexaRank: 296_000, TopCountry: "IN", TopCountryShare: 0.62},
		{Name: "f8liker.com", AlexaRank: 296_000, TopCountry: "IN", TopCountryShare: 0.80},
		{Name: "likeslo.net", AlexaRank: 373_000, TopCountry: "IN", TopCountryShare: 0.61},
		{Name: "machineliker.com", AlexaRank: 386_000, TopCountry: "IN", TopCountryShare: 0.59},
		{Name: "likerty.com", AlexaRank: 393_000, TopCountry: "IN", TopCountryShare: 0.60},
		{Name: "vipautoliker.com", AlexaRank: 448_000, TopCountry: "IN", TopCountryShare: 0.64},
		{Name: "likelo.me", AlexaRank: 479_000, TopCountry: "IN", TopCountryShare: 0.16},
		{Name: "loveliker.com", AlexaRank: 491_000, TopCountry: "IN", TopCountryShare: 0.59},
		{Name: "autoliker.com", AlexaRank: 496_000, TopCountry: "IN", TopCountryShare: 0.56},
		{Name: "likerhub.com", AlexaRank: 498_000, TopCountry: "IN", TopCountryShare: 0.69},
		{Name: "hacklike.net", AlexaRank: 514_000, TopCountry: "VN", TopCountryShare: 0.57},
		{Name: "likepana.com", AlexaRank: 545_000, TopCountry: "IN", TopCountryShare: 0.57},
		{Name: "extreamliker.com", AlexaRank: 687_000, TopCountry: "IN", TopCountryShare: 0.50},
		{Name: "autolikesub.com (mirror)", AlexaRank: 721_000, TopCountry: "VN", TopCountryShare: 0.84},
	}
}

// ExploitedAppSpec describes one of the Table 3 applications.
type ExploitedAppSpec struct {
	Name string
	DAU  int
	MAU  int
}

// ExploitedApps returns the Table 3 applications (order-of-magnitude
// DAU/MAU as reported).
func ExploitedApps() []ExploitedAppSpec {
	return []ExploitedAppSpec{
		{Name: AppHTCSense, DAU: 1_000_000, MAU: 1_000_000},
		{Name: AppNokiaAccount, DAU: 100_000, MAU: 1_000_000},
		{Name: AppSonyXperia, DAU: 10_000, MAU: 100_000},
		{Name: AppPageManager, DAU: 10_000, MAU: 100_000},
	}
}

// Table1AppSpec is one of the nine susceptible long-term-token apps among
// the top 100 (Table 1).
type Table1AppSpec struct {
	Name string
	MAU  int
}

// Table1Apps returns the Table 1 rows.
func Table1Apps() []Table1AppSpec {
	return []Table1AppSpec{
		{Name: "Spotify", MAU: 50_000_000},
		{Name: "PlayStation Network", MAU: 5_000_000},
		{Name: "Deezer", MAU: 5_000_000},
		{Name: "Pandora", MAU: 5_000_000},
		{Name: "HTC Sense", MAU: 1_000_000},
		{Name: "Flipagram", MAU: 1_000_000},
		{Name: "TownShip", MAU: 1_000_000},
		{Name: "Tango", MAU: 1_000_000},
		{Name: "HTC Sense 2", MAU: 1_000_000},
	}
}

// ShortURLSpec is one Table 5 row.
type ShortURLSpec struct {
	CreatedDay  int // days after the oldest URL's creation (June 11, 2014)
	ShortClicks int
	App         string
	Referrer    string
}

// ShortURLs returns the Table 5 rows. Several specs share the same App;
// their long URLs coincide, which is how the paper's 236M long-URL click
// count arises.
func ShortURLs() []ShortURLSpec {
	return []ShortURLSpec{
		{CreatedDay: 0, ShortClicks: 147_959_735, App: AppHTCSense, Referrer: "mg-likers.com"},
		{CreatedDay: 19, ShortClicks: 64_493_698, App: AppHTCSense, Referrer: "djliker.com"},
		{CreatedDay: 326, ShortClicks: 28_511_756, App: AppHTCSense, Referrer: "sys.hublaa.me"},
		{CreatedDay: 115, ShortClicks: 7_000_579, App: AppPageManager, Referrer: "autolike.vn"},
		{CreatedDay: 161, ShortClicks: 7_582_494, App: AppHTCSense, Referrer: "m.machineliker.com"},
		{CreatedDay: 2, ShortClicks: 2_269_148, App: AppHTCSense, Referrer: "begeniyor.com"},
		{CreatedDay: 346, ShortClicks: 2_721_864, App: AppHTCSense, Referrer: "www.royaliker.net"},
		{CreatedDay: 201, ShortClicks: 1_288_801, App: AppHTCSense, Referrer: "oneliker.com"},
		{CreatedDay: 10, ShortClicks: 1_005_471, App: AppNokiaAccount, Referrer: "adf.ly"},
		{CreatedDay: 452, ShortClicks: 1_009_801, App: AppSonyXperia, Referrer: "refer.autolikerfb.com"},
		{CreatedDay: 227, ShortClicks: 297_915, App: AppHTCSense, Referrer: "realliker.com"},
		{CreatedDay: 235, ShortClicks: 355_405, App: AppSonyXperia, Referrer: "unknown"},
		{CreatedDay: 229, ShortClicks: 165_345, App: AppHTCSense, Referrer: "postlikers.com"},
	}
}
