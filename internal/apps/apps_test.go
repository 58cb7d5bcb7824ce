package apps

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func cfg(name string, mau, dau int) Config {
	return Config{
		Name:              name,
		RedirectURI:       "https://example.test/callback",
		ClientFlowEnabled: true,
		Lifetime:          LongTerm,
		Permissions:       []string{PermPublicProfile, PermPublishActions},
		MAU:               mau,
		DAU:               dau,
	}
}

func TestRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	app := r.Register(cfg("HTC Sense", 1_000_000, 1_000_000))
	got, err := r.Get(app.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "HTC Sense" || got.Secret == "" || got.ID == "" {
		t.Fatalf("Get = %+v", got)
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing app error = %v", err)
	}
}

func TestSusceptibility(t *testing.T) {
	cases := []struct {
		name          string
		clientFlow    bool
		requireSecret bool
		perms         []string
		want          bool
	}{
		{"exploitable", true, false, []string{PermPublishActions}, true},
		{"server-side only", false, false, []string{PermPublishActions}, false},
		{"secret required", true, true, []string{PermPublishActions}, false},
		{"read-only perms", true, false, []string{PermPublicProfile}, false},
	}
	for _, tc := range cases {
		app := App{
			ClientFlowEnabled: tc.clientFlow,
			RequireAppSecret:  tc.requireSecret,
			Permissions:       tc.perms,
		}
		if got := app.Susceptible(); got != tc.want {
			t.Errorf("%s: Susceptible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTokenLifetime(t *testing.T) {
	if ShortTerm.Duration() != 90*time.Minute {
		t.Fatalf("short-term duration = %v", ShortTerm.Duration())
	}
	if LongTerm.Duration() != 60*24*time.Hour {
		t.Fatalf("long-term duration = %v", LongTerm.Duration())
	}
	if ShortTerm.String() != "short-term" || LongTerm.String() != "long-term" {
		t.Fatal("lifetime names wrong")
	}
}

func TestLeaderboardOrder(t *testing.T) {
	r := NewRegistry()
	r.Register(cfg("Small", 1000, 10))
	big := r.Register(cfg("Big", 50_000_000, 500_000))
	mid := r.Register(cfg("Mid", 5_000_000, 5_000))
	all := r.All()
	if len(all) != 3 {
		t.Fatalf("len(All) = %d", len(all))
	}
	if all[0].ID != big.ID || all[1].ID != mid.ID {
		t.Fatalf("leaderboard order wrong: %v %v", all[0].Name, all[1].Name)
	}
	top2 := r.Top(2)
	if len(top2) != 2 || top2[0].ID != big.ID {
		t.Fatalf("Top(2) = %+v", top2)
	}
	if got := r.Top(10); len(got) != 3 {
		t.Fatalf("Top(10) returned %d", len(got))
	}
}

func TestRanks(t *testing.T) {
	r := NewRegistry()
	a := r.Register(cfg("A", 100, 1000))
	b := r.Register(cfg("B", 200, 100))
	c := r.Register(cfg("C", 300, 10))
	for _, tc := range []struct {
		id       string
		dau, mau int
	}{
		{a.ID, 1, 3},
		{b.ID, 2, 2},
		{c.ID, 3, 1},
	} {
		gotDAU, err := r.RankByDAU(tc.id)
		if err != nil || gotDAU != tc.dau {
			t.Fatalf("RankByDAU(%s) = %d, %v; want %d", tc.id, gotDAU, err, tc.dau)
		}
		gotMAU, err := r.RankByMAU(tc.id)
		if err != nil || gotMAU != tc.mau {
			t.Fatalf("RankByMAU(%s) = %d, %v; want %d", tc.id, gotMAU, err, tc.mau)
		}
	}
	if _, err := r.RankByDAU("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("RankByDAU(missing) error = %v", err)
	}
	if _, err := r.RankByMAU("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("RankByMAU(missing) error = %v", err)
	}
}

func TestSuspension(t *testing.T) {
	r := NewRegistry()
	app := r.Register(cfg("X", 1, 1))
	if err := r.SetSuspended(app.ID, true); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(app.ID)
	if !got.Suspended {
		t.Fatal("app not suspended")
	}
	if err := r.SetSuspended("missing", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("suspend missing error = %v", err)
	}
}

func TestSetSecuritySettings(t *testing.T) {
	r := NewRegistry()
	app := r.Register(cfg("X", 1, 1))
	got, _ := r.Get(app.ID)
	if !got.Susceptible() {
		t.Fatal("app should start susceptible")
	}
	if err := r.SetSecuritySettings(app.ID, true, true); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Get(app.ID)
	if got.Susceptible() {
		t.Fatal("app still susceptible after requiring secret")
	}
	if err := r.SetSecuritySettings("missing", true, true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("settings on missing error = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	r := NewRegistry()
	app := r.Register(cfg("X", 1, 1))
	got, _ := r.Get(app.ID)
	got.Name = "tampered"
	got.Suspended = true
	fresh, _ := r.Get(app.ID)
	if fresh.Name == "tampered" || fresh.Suspended {
		t.Fatal("Get leaked scalar state")
	}
	// Permissions is shared deliberately: it is immutable after Register
	// (Get runs once per authenticated API call, and the deep copy it
	// used to make was a fifth of the like pipeline's allocations), so
	// both lookups must see the same backing array.
	if &got.Permissions[0] != &fresh.Permissions[0] {
		t.Fatal("Get should share the immutable Permissions array")
	}
}

func TestHasPermission(t *testing.T) {
	app := App{Permissions: []string{PermEmail, PermPublishActions}}
	if !app.HasPermission(PermPublishActions) {
		t.Fatal("HasPermission(publish_actions) = false")
	}
	if app.HasPermission(PermUserFriends) {
		t.Fatal("HasPermission(user_friends) = true")
	}
}

// Property: every registered app's ID is unique and the registry holds
// one entry per app.
func TestQuickRegistryUniqueIDs(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRegistry()
		seen := make(map[string]bool)
		for i := 0; i < int(n)%64; i++ {
			app := r.Register(cfg(fmt.Sprintf("app%d", i), i, i))
			if seen[app.ID] {
				return false
			}
			seen[app.ID] = true
		}
		return len(r.byID) == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Top(n) is always a prefix of All() and sorted by MAU desc.
func TestQuickTopPrefixSorted(t *testing.T) {
	f := func(maus []uint16, n uint8) bool {
		r := NewRegistry()
		for i, m := range maus {
			r.Register(cfg(fmt.Sprintf("a%d", i), int(m), i))
		}
		top := r.Top(int(n)%16 + 1)
		for i := 1; i < len(top); i++ {
			if top[i-1].MAU < top[i].MAU {
				return false
			}
		}
		all := r.All()
		for i := range top {
			if top[i].ID != all[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterUnreviewedStripsSensitive(t *testing.T) {
	r := NewRegistry()
	app := r.RegisterUnreviewed(Config{
		Name:              "Collusion Own App",
		RedirectURI:       "https://own.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          LongTerm,
		Permissions:       []string{PermPublicProfile, PermPublishActions, PermEmail},
	})
	if app.HasPermission(PermPublishActions) {
		t.Fatal("unreviewed app granted publish_actions")
	}
	if !app.HasPermission(PermPublicProfile) || !app.HasPermission(PermEmail) {
		t.Fatalf("basic permissions stripped: %v", app.Permissions)
	}
	// Without the write scope the app is useless for manipulation.
	if app.Susceptible() {
		t.Fatal("unreviewed app counted susceptible")
	}
}
