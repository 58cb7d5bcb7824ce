// Differential test across the retention boundary and the defense stack:
// an eviction-enabled sharded store (finite window, periodic sweeps) and a
// reference store that retains everything are driven with the same
// scenario whose activity all falls inside the window. The sweeps must
// evict nothing, the like crawls must stay identical, and — the property
// the mitigation pipeline depends on — SynchroTrap clustering fed from
// either store must return bit-for-bit identical verdicts.
//
// This lives in the external test package because defense imports
// socialgraph (purge.go): an internal test importing defense would be an
// import cycle.
package socialgraph_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/socialgraph"
)

func TestRetentionPreservesSynchroTrapVerdicts(t *testing.T) {
	const (
		window     = 24 * time.Hour
		colluders  = 25
		organics   = 35
		posts      = 6
		trapWindow = 30 * time.Minute
	)
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

	swept := socialgraph.New(8, 0)
	swept.SetRetentionWindow(window)
	oracle := socialgraph.NewTestReferenceStore() // infinite retention, never swept

	stores := []socialgraph.GraphStore{swept, oracle}
	var accounts [2][]string
	var postIDs [2][]string
	for si, st := range stores {
		for i := 0; i < colluders+organics; i++ {
			a := st.CreateAccount(fmt.Sprintf("acct-%d", i), "IN", epoch)
			accounts[si] = append(accounts[si], a.ID)
		}
		for i := 0; i < posts; i++ {
			p, err := st.CreatePost(accounts[si][0], fmt.Sprintf("post %d", i), socialgraph.WriteMeta{At: epoch})
			if err != nil {
				t.Fatal(err)
			}
			postIDs[si] = append(postIDs[si], p.ID)
		}
	}

	// One like burst per post, an hour apart: the colluders hit the post
	// within two minutes (same SynchroTrap bucket, every burst), the
	// organic accounts trickle in at scattered offsets.
	for pi := 0; pi < posts; pi++ {
		burst := epoch.Add(time.Duration(pi) * time.Hour)
		for si, st := range stores {
			for c := 0; c < colluders; c++ {
				at := burst.Add(time.Duration(c) * 2 * time.Second)
				if err := st.AddLike(accounts[si][c], postIDs[si][pi], socialgraph.WriteMeta{At: at}); err != nil {
					t.Fatal(err)
				}
			}
			for o := 0; o < organics; o++ {
				if (o+pi)%3 != 0 { // only some organics like each post
					continue
				}
				at := burst.Add(time.Duration(1+o*13%50) * time.Minute)
				if err := st.AddLike(accounts[si][colluders+o], postIDs[si][pi], socialgraph.WriteMeta{At: at}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Sweep the eviction-enabled store every burst. All activity is
		// within the 24h window, so nothing may go.
		if res := swept.RetentionSweep(burst.Add(time.Hour)); res != (socialgraph.SweepResult{}) {
			t.Fatalf("sweep at burst %d evicted %+v inside the window", pi, res)
		}
	}

	// The crawls the defense layer feeds from must be identical.
	for pi := range postIDs[0] {
		gl, wl := swept.Likes(postIDs[0][pi]), oracle.Likes(postIDs[1][pi])
		if len(gl) != len(wl) {
			t.Fatalf("post %d: %d likes vs %d retained", pi, len(gl), len(wl))
		}
		for i := range gl {
			if gl[i] != wl[i] {
				t.Fatalf("post %d like %d: %+v vs %+v", pi, i, gl[i], wl[i])
			}
		}
	}
	if g, w := swept.RetainedEdges(), oracle.RetainedEdges(); g != w {
		t.Fatalf("RetainedEdges = %+v, oracle %+v", g, w)
	}

	// Identical clustering verdicts, bit for bit.
	verdicts := make([][]defense.Cluster, 2)
	for si, st := range stores {
		trap := defense.NewSynchroTrap(trapWindow, 0.5, 2, 5)
		for _, pid := range postIDs[si] {
			for _, l := range st.Likes(pid) {
				trap.Record(l.AccountID, pid, l.At)
			}
		}
		verdicts[si] = trap.Detect()
	}
	if len(verdicts[0]) == 0 {
		t.Fatal("SynchroTrap detected no clusters; the differential would pass vacuously")
	}
	if !reflect.DeepEqual(verdicts[0], verdicts[1]) {
		t.Fatalf("verdicts diverge:\n  swept:  %+v\n  oracle: %+v", verdicts[0], verdicts[1])
	}
	// The colluding ring must actually be the verdict.
	if got := len(verdicts[0][0].Accounts); got != colluders {
		t.Fatalf("largest cluster has %d accounts, want the %d colluders", got, colluders)
	}
}
