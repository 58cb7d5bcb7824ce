package platform

import (
	"net/http"
	"sort"

	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/simclock"
)

// Multi is a registry of platforms, one per provider, sharing a clock and
// an Internet model. It models the world a cross-platform collusion
// network operates in: the same residential IPs and member accounts exist
// on every platform, but each platform runs its own graph, OAuth server,
// API surface, and (unless deliberately shared) its own defenses.
type Multi struct {
	Clock    simclock.Clock
	Internet *netsim.Internet

	platforms map[string]*Platform
	order     []string // default provider first, then the rest sorted
}

// NewMulti assembles one Platform per provider over a shared clock and
// Internet. The default provider need not be included; when it is, it is
// mounted at the HTTP root.
func NewMulti(clock simclock.Clock, internet *netsim.Internet, provs ...provider.Provider) *Multi {
	m := &Multi{
		Clock:     clock,
		Internet:  internet,
		platforms: make(map[string]*Platform, len(provs)),
	}
	def := provider.Default().Name()
	rest := make([]string, 0, len(provs))
	for _, prov := range provs {
		name := prov.Name()
		if _, dup := m.platforms[name]; dup {
			continue
		}
		m.platforms[name] = NewWithConfig(clock, internet, Config{Provider: prov})
		if name == def {
			m.order = append([]string{name}, m.order...)
			continue
		}
		rest = append(rest, name)
	}
	sort.Strings(rest)
	m.order = append(m.order, rest...)
	return m
}

// Get returns the platform for the named provider, or nil.
func (m *Multi) Get(name string) *Platform { return m.platforms[name] }

// Default returns the platform for the default provider, or — when the
// registry was built without it — the first registered platform.
func (m *Multi) Default() *Platform {
	if len(m.order) == 0 {
		return nil
	}
	return m.platforms[m.order[0]]
}

// Names lists the registered provider names, default first.
func (m *Multi) Names() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Handler serves every registered platform from one mux. The default
// provider keeps the historical root mount — existing clients work
// unchanged — and every platform (default included) is also reachable
// under /<provider>/, which is the prefix NewHTTPClientFor clients use
// for provider selection on both single-op and /batch paths.
func (m *Multi) Handler() http.Handler {
	mux := http.NewServeMux()
	for i, name := range m.order {
		p := m.platforms[name]
		h := p.Handler()
		mux.Handle("/"+name+"/", http.StripPrefix("/"+name, h))
		if i == 0 && name == provider.Default().Name() {
			mux.Handle("/", h)
		}
	}
	return mux
}
