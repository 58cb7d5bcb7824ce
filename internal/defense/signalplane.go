package defense

import (
	"sort"
	"sync"

	"repro/internal/graphapi"
)

// Cross-platform signal sharing (the Sec. 6.3 detection pipeline extended
// to a multi-platform world). A collusion network that amplifies on two
// platforms reuses its infrastructure — the same residential IP pool
// fires likes at both. Account-keyed detectors cannot see this: account
// namespaces are disjoint across platforms. IP-keyed detectors can, but
// only if the platforms pool their signals; each platform alone sees half
// the activity and the synchronization score stays under threshold.
//
// SignalPlane models exactly that wiring choice. In SignalSiloed mode
// every platform gets its own detector (the status quo: operators do not
// share abuse telemetry). In SignalShared mode all platforms feed one
// detector, with object IDs namespaced by platform so cross-platform
// co-occurrence counts as distinct groups on the same IP.

// SignalMode selects whether platforms share abuse signals.
type SignalMode int

const (
	// SignalSiloed gives each platform an independent detector.
	SignalSiloed SignalMode = iota
	// SignalShared feeds every platform's activity into one detector.
	SignalShared
)

// String returns the mode's table label.
func (m SignalMode) String() string {
	if m == SignalShared {
		return "shared"
	}
	return "siloed"
}

// IPSynchroTap is a pass-through policy that feeds like requests into a
// SynchroTrap keyed by *source IP* rather than account: the group key is
// (platform-namespaced object, window) and the clustered entities are
// IPs. It never denies anything itself.
type IPSynchroTap struct {
	platform string
	trap     *SynchroTrap
}

// NewIPSynchroTap wraps a detector as a chain policy for one platform.
func NewIPSynchroTap(platformName string, trap *SynchroTrap) *IPSynchroTap {
	return &IPSynchroTap{platform: platformName, trap: trap}
}

// Name implements graphapi.Policy.
func (t *IPSynchroTap) Name() string { return "ip-synchro-tap" }

// Evaluate implements graphapi.Policy.
func (t *IPSynchroTap) Evaluate(req graphapi.Request) graphapi.Decision {
	if req.Verb == graphapi.VerbLike && req.SourceIP != "" {
		t.trap.Record(req.SourceIP, t.platform+"/"+req.ObjectID, req.At)
	}
	return graphapi.Allowed()
}

// Trap returns the wrapped detector.
func (t *IPSynchroTap) Trap() *SynchroTrap { return t.trap }

// SignalPlane hands out per-platform IP-keyed taps backed by either one
// shared detector or one detector per platform, per its mode.
type SignalPlane struct {
	mode    SignalMode
	newTrap func() *SynchroTrap

	mu     sync.Mutex
	shared *SynchroTrap
	traps  map[string]*SynchroTrap
}

// NewSignalPlane returns a plane in the given mode; newTrap constructs
// identically-parameterized detectors so the siloed/shared comparison
// isolates the wiring, not the thresholds.
func NewSignalPlane(mode SignalMode, newTrap func() *SynchroTrap) *SignalPlane {
	return &SignalPlane{
		mode:    mode,
		newTrap: newTrap,
		traps:   make(map[string]*SynchroTrap),
	}
}

// TapFor returns the chain policy for the named platform. In shared mode
// every platform's tap writes into the same detector instance; in siloed
// mode each platform gets its own.
func (p *SignalPlane) TapFor(platformName string) *IPSynchroTap {
	return NewIPSynchroTap(platformName, p.trapFor(platformName))
}

func (p *SignalPlane) trapFor(platformName string) *SynchroTrap {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mode == SignalShared {
		if p.shared == nil {
			p.shared = p.newTrap()
		}
		return p.shared
	}
	t := p.traps[platformName]
	if t == nil {
		t = p.newTrap()
		p.traps[platformName] = t
	}
	return t
}

// Detect runs clustering over every detector the plane owns. In shared
// mode that is one detector; in siloed mode each platform's detector is
// run independently (in platform-name order) and the results are
// concatenated — exactly the evidence each operator could act on alone.
func (p *SignalPlane) Detect() []Cluster {
	p.mu.Lock()
	var traps []*SynchroTrap
	if p.mode == SignalShared {
		if p.shared != nil {
			traps = append(traps, p.shared)
		}
	} else {
		names := make([]string, 0, len(p.traps))
		for name := range p.traps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			traps = append(traps, p.traps[name])
		}
	}
	p.mu.Unlock()

	var out []Cluster
	for _, t := range traps {
		out = append(out, t.Detect()...)
	}
	return out
}
