package defense

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graphapi"
)

// feedCross replays the same cross-platform burst pattern into a plane's
// taps for platforms "a" and "b": nIPs IPs each like nPerPlatform objects
// on each platform, every IP hitting the same objects in the same
// windows (maximal synchronization).
func feedCross(p *SignalPlane, nIPs, nPerPlatform int) {
	start := time.Unix(1700000000, 0)
	for _, plat := range []string{"a", "b"} {
		tap := p.TapFor(plat)
		for obj := 0; obj < nPerPlatform; obj++ {
			at := start.Add(time.Duration(obj) * time.Hour)
			for ip := 0; ip < nIPs; ip++ {
				tap.Evaluate(graphapi.Request{
					Verb:      graphapi.VerbLike,
					ObjectID:  fmt.Sprintf("%s-post-%d", plat, obj),
					SourceIP:  fmt.Sprintf("10.0.0.%d", ip),
					At:        at,
					AccountID: fmt.Sprintf("acct-%s-%d", plat, ip),
				})
			}
		}
	}
}

func newTestTrap() *SynchroTrap {
	// MinShared 8 with MinActions = MinShared+2: six groups per platform
	// stay invisible to a siloed detector, twelve pooled groups do not.
	return NewSynchroTrap(10*time.Minute, 0.5, 8, 3)
}

func TestSignalPlaneSiloedMissesCrossPlatform(t *testing.T) {
	p := NewSignalPlane(SignalSiloed, newTestTrap)
	feedCross(p, 5, 6)
	if got := p.Detect(); len(got) != 0 {
		t.Fatalf("siloed plane detected %d clusters from 6 groups/platform; want 0", len(got))
	}
}

func TestSignalPlaneSharedCatchesCrossPlatform(t *testing.T) {
	p := NewSignalPlane(SignalShared, newTestTrap)
	feedCross(p, 5, 6)
	got := p.Detect()
	if len(got) != 1 {
		t.Fatalf("shared plane detected %d clusters; want 1", len(got))
	}
	if len(got[0].Accounts) != 5 {
		t.Fatalf("cluster has %d IPs; want all 5", len(got[0].Accounts))
	}
}

// The shared detector must not merge distinct infrastructures: IPs that
// act on disjoint object sets stay unclustered even in shared mode.
func TestSignalPlaneSharedKeepsUnrelatedIPsApart(t *testing.T) {
	p := NewSignalPlane(SignalShared, newTestTrap)
	feedCross(p, 5, 6)
	tap := p.TapFor("a")
	start := time.Unix(1700000000, 0)
	for obj := 0; obj < 12; obj++ {
		tap.Evaluate(graphapi.Request{
			Verb:      graphapi.VerbLike,
			ObjectID:  fmt.Sprintf("lonely-post-%d", obj),
			SourceIP:  "192.168.9.9",
			At:        start.Add(time.Duration(obj) * time.Hour),
			AccountID: "loner",
		})
	}
	got := p.Detect()
	if len(got) != 1 {
		t.Fatalf("detected %d clusters; want 1", len(got))
	}
	for _, ip := range got[0].Accounts {
		if ip == "192.168.9.9" {
			t.Fatalf("unrelated IP clustered with the collusion pool")
		}
	}
}

func TestSignalPlaneModeString(t *testing.T) {
	if SignalSiloed.String() != "siloed" || SignalShared.String() != "shared" {
		t.Fatalf("mode labels: %q %q", SignalSiloed, SignalShared)
	}
}

func TestSignalPlaneTapIgnoresNonLikes(t *testing.T) {
	p := NewSignalPlane(SignalShared, newTestTrap)
	tap := p.TapFor("a")
	tap.Evaluate(graphapi.Request{Verb: graphapi.VerbRead, ObjectID: "x", SourceIP: "1.2.3.4", At: time.Unix(0, 0)})
	tap.Evaluate(graphapi.Request{Verb: graphapi.VerbLike, ObjectID: "x", At: time.Unix(0, 0)}) // no IP
	if n := tap.trap.GroupCount(); n != 0 {
		t.Fatalf("tap recorded %d groups from non-like / IP-less requests; want 0", n)
	}
}
