package defense

import (
	"testing"
	"time"

	"repro/internal/graphapi"
)

func TestSynchroTapRecordsLikes(t *testing.T) {
	trap := NewSynchroTrap(time.Minute, 0.5, 1, 2)
	tap := NewSynchroTap(trap)
	if tap.Name() != "synchrotrap-tap" {
		t.Fatalf("Name = %q", tap.Name())
	}
	req := graphapi.Request{
		Verb:      graphapi.VerbLike,
		ObjectID:  "post-1",
		AccountID: "acct-1",
		At:        t0,
	}
	if d := tap.Evaluate(req); !d.Allow {
		t.Fatal("tap denied a request")
	}
	if trap.GroupCount() != 1 {
		t.Fatalf("GroupCount = %d", trap.GroupCount())
	}
	// Non-like verbs are not recorded.
	req.Verb = graphapi.VerbComment
	req.ObjectID = "post-2"
	_ = tap.Evaluate(req)
	if trap.GroupCount() != 1 {
		t.Fatalf("comment recorded: GroupCount = %d", trap.GroupCount())
	}
	if tap.Trap() != trap {
		t.Fatal("Trap() identity")
	}
}
