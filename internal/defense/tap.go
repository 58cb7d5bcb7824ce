package defense

import (
	"repro/internal/graphapi"
)

// SynchroTap is a pass-through policy that feeds every like request into a
// SynchroTrap detector. Deployed on the policy chain it gives the
// clustering pipeline the same (account, object, time) stream Facebook's
// production systems observe; it never denies anything itself — detection
// and enforcement are separate stages, as in Sec. 6.3.
type SynchroTap struct {
	trap *SynchroTrap
}

// NewSynchroTap wraps a detector as a chain policy.
func NewSynchroTap(trap *SynchroTrap) *SynchroTap {
	return &SynchroTap{trap: trap}
}

// Name implements graphapi.Policy.
func (t *SynchroTap) Name() string { return "synchrotrap-tap" }

// Evaluate implements graphapi.Policy.
func (t *SynchroTap) Evaluate(req graphapi.Request) graphapi.Decision {
	if req.Verb == graphapi.VerbLike {
		t.trap.Record(req.Token.AccountID, req.ObjectID, req.At)
	}
	return graphapi.Allowed()
}

// Trap returns the wrapped detector.
func (t *SynchroTap) Trap() *SynchroTrap { return t.trap }
