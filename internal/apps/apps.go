// Package apps models the third-party application ecosystem of Section 2:
// every application has an ID, a secret, a permission scope approved by the
// platform, usage statistics (MAU/DAU), and — decisive for the paper — two
// security settings:
//
//   - ClientFlowEnabled: whether the OAuth 2.0 implicit (client-side) flow
//     may be used to obtain tokens for this app (Figure 2a);
//   - RequireAppSecret: whether Graph API calls with this app's tokens must
//     carry an appsecret_proof (Figure 2b).
//
// An application is *susceptible* to token leakage and abuse exactly when
// the client-side flow is enabled and the secret is not required (paper
// Sec. 2.2). Among the top 100 apps the paper found 55 susceptible, of
// which 9 were issued long-term (~2 month) tokens — those are the apps
// collusion networks exploited.
package apps

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
)

// Permission names used in the reproduction. publish_actions is the
// sensitive write permission that requires platform approval and lets an
// app like/comment/post on the user's behalf.
const (
	PermPublicProfile  = "public_profile"
	PermEmail          = "email"
	PermUserFriends    = "user_friends"
	PermPublishActions = "publish_actions"
)

// TokenLifetime classifies the tokens an app is issued.
type TokenLifetime int

// Token classes and their durations as reported in Section 2.1.
const (
	// ShortTerm tokens expire after 1–2 hours.
	ShortTerm TokenLifetime = iota
	// LongTerm tokens expire after approximately two months.
	LongTerm
)

// Durations for the two token classes.
const (
	ShortTermDuration = 90 * time.Minute
	LongTermDuration  = 60 * 24 * time.Hour
)

// String names the lifetime class.
func (l TokenLifetime) String() string {
	if l == LongTerm {
		return "long-term"
	}
	return "short-term"
}

// Duration returns the expiration duration of the class.
func (l TokenLifetime) Duration() time.Duration {
	if l == LongTerm {
		return LongTermDuration
	}
	return ShortTermDuration
}

// App is one third-party application.
type App struct {
	ID     string
	Name   string
	Secret string
	// RedirectURI is the OAuth redirection endpoint configured in the
	// application settings.
	RedirectURI string
	// ClientFlowEnabled allows the implicit grant (response_type=token).
	ClientFlowEnabled bool
	// RequireAppSecret demands an appsecret_proof on Graph API calls.
	RequireAppSecret bool
	// Lifetime is the token class issued to this app.
	Lifetime TokenLifetime
	// Permissions the platform has approved for this app.
	Permissions []string
	// MAU and DAU are monthly/daily active user counts used for the
	// leaderboard (Tables 1 and 3).
	MAU int
	DAU int
	// Suspended apps are denied all OAuth and Graph API operations — the
	// countermeasure the paper explicitly declined (Sec. 6) because of the
	// collateral damage to legitimate users.
	Suspended bool
}

// Susceptible reports whether the app can be exploited for token leakage
// and abuse: client-side flow on, secret not required, and write permission
// approved.
func (a App) Susceptible() bool {
	return a.ClientFlowEnabled && !a.RequireAppSecret && a.HasPermission(PermPublishActions)
}

// HasPermission reports whether the app was approved for the permission.
func (a App) HasPermission(perm string) bool {
	for _, p := range a.Permissions {
		if p == perm {
			return true
		}
	}
	return false
}

// ErrNotFound is returned by the registry for an unknown application.
var ErrNotFound = errors.New("apps: application not found")

// Registry is the platform's application directory. It is safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	minter *ids.Minter
	byID   map[string]*App
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		minter: ids.NewMinter(),
		byID:   make(map[string]*App),
	}
}

// Config carries the developer-controlled settings when registering an app.
type Config struct {
	Name              string
	RedirectURI       string
	ClientFlowEnabled bool
	RequireAppSecret  bool
	Lifetime          TokenLifetime
	Permissions       []string
	MAU               int
	DAU               int
}

// SensitivePermissions are the write scopes that require platform review
// before an application may request them.
var SensitivePermissions = map[string]bool{
	PermPublishActions: true,
}

// RegisterUnreviewed creates an application without platform review:
// sensitive permissions are stripped. This models the constraint the
// paper highlights in Section 3 — collusion networks cannot simply
// create their own applications, because Facebook's manual review would
// never grant write permissions to them; they must hijack existing
// reviewed apps instead.
func (r *Registry) RegisterUnreviewed(cfg Config) App {
	var granted []string
	for _, p := range cfg.Permissions {
		if !SensitivePermissions[p] {
			granted = append(granted, p)
		}
	}
	cfg.Permissions = granted
	return r.Register(cfg)
}

// Register creates an application with a fresh ID and secret, with every
// requested permission approved (the post-review state all Table 1/3
// apps are in).
func (r *Registry) Register(cfg Config) App {
	r.mu.Lock()
	defer r.mu.Unlock()
	app := &App{
		ID:                r.minter.Next(ids.KindApp),
		Name:              cfg.Name,
		Secret:            ids.NewSecret(),
		RedirectURI:       cfg.RedirectURI,
		ClientFlowEnabled: cfg.ClientFlowEnabled,
		RequireAppSecret:  cfg.RequireAppSecret,
		Lifetime:          cfg.Lifetime,
		Permissions:       append([]string(nil), cfg.Permissions...),
		MAU:               cfg.MAU,
		DAU:               cfg.DAU,
	}
	r.byID[app.ID] = app
	return *app
}

// Get returns the app with the given ID.
func (r *Registry) Get(id string) (App, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	app, ok := r.byID[id]
	if !ok {
		return App{}, fmt.Errorf("app %q: %w", id, ErrNotFound)
	}
	// The Permissions slice is built once at Register and never mutated
	// in place (suspension and security settings touch scalar fields
	// only), so Get shares it instead of deep-copying: this lookup runs
	// once per authenticated API call, and the clone was ~20% of the like
	// pipeline's allocation count. Callers must treat it as read-only.
	return *app, nil
}

// SetSuspended suspends or reinstates an app.
func (r *Registry) SetSuspended(id string, suspended bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	app, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("app %q: %w", id, ErrNotFound)
	}
	app.Suspended = suspended
	return nil
}

// SetSecuritySettings updates the two security settings of Figure 2; it is
// what a third-party developer (or a mandated platform policy) would change
// to close the leak.
func (r *Registry) SetSecuritySettings(id string, clientFlow, requireSecret bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	app, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("app %q: %w", id, ErrNotFound)
	}
	app.ClientFlowEnabled = clientFlow
	app.RequireAppSecret = requireSecret
	return nil
}

// All returns every registered app, ordered by descending MAU then name —
// the leaderboard order used to pick the "top 100" of Table 1.
func (r *Registry) All() []App {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]App, 0, len(r.byID))
	for _, app := range r.byID {
		out = append(out, cloneApp(app))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MAU != out[j].MAU {
			return out[i].MAU > out[j].MAU
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Top returns the n highest-MAU apps (fewer if the registry is smaller).
func (r *Registry) Top(n int) []App {
	all := r.All()
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// RankByDAU returns the 1-based DAU rank of the app among all registered
// apps, as reported in Table 3.
func (r *Registry) RankByDAU(id string) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	target, ok := r.byID[id]
	if !ok {
		return 0, fmt.Errorf("app %q: %w", id, ErrNotFound)
	}
	rank := 1
	for _, app := range r.byID {
		if app.DAU > target.DAU {
			rank++
		}
	}
	return rank, nil
}

// RankByMAU returns the 1-based MAU rank of the app.
func (r *Registry) RankByMAU(id string) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	target, ok := r.byID[id]
	if !ok {
		return 0, fmt.Errorf("app %q: %w", id, ErrNotFound)
	}
	rank := 1
	for _, app := range r.byID {
		if app.MAU > target.MAU {
			rank++
		}
	}
	return rank, nil
}

func cloneApp(a *App) App {
	out := *a
	out.Permissions = append([]string(nil), a.Permissions...)
	return out
}
