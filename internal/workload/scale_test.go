package workload

import (
	"reflect"
	"testing"
	"time"
)

func TestBuildScaleSmall(t *testing.T) {
	w, err := BuildScale(ScaleConfig{Accounts: 2000, AvgFriends: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Graph.AccountCount(); got != 2000 {
		t.Fatalf("AccountCount = %d, want 2000", got)
	}
	if len(w.Pages) != 8 || len(w.Posts) != 64 { // derived minimums
		t.Fatalf("pages=%d posts=%d, want derived minimums 8/64", len(w.Pages), len(w.Posts))
	}
	// AccountID reconstructs every minted ID arithmetically.
	for _, i := range []int{0, 1, 999, 1999} {
		a, err := w.Graph.Account(w.AccountID(i))
		if err != nil {
			t.Fatalf("AccountID(%d) = %s not in store: %v", i, w.AccountID(i), err)
		}
		if want := scaleCountries[i%len(scaleCountries)]; a.Country != want {
			t.Fatalf("account %d country = %s, want %s", i, a.Country, want)
		}
	}
	if w.FriendEdges == 0 {
		t.Fatal("no friendship edges inserted")
	}
	if w.Graph.RetentionWindow() != 0 {
		t.Fatal("retention window set without being asked for")
	}

	// The ID stream must match what sequential creation would mint: a
	// second build with identical config mints identical IDs.
	w2, err := BuildScale(ScaleConfig{Accounts: 2000, AvgFriends: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if w.AccountID(1234) != w2.AccountID(1234) || w.Posts[63] != w2.Posts[63] {
		t.Fatal("two builds with the same config minted different IDs")
	}
}

func TestBuildScaleAppliesRetentionWindow(t *testing.T) {
	w, err := BuildScale(ScaleConfig{Accounts: 200, RetentionWindow: time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Graph.RetentionWindow(); got != time.Hour {
		t.Fatalf("RetentionWindow = %v, want 1h", got)
	}
}

// TestRunLoadDeterministicTotals is the loadgen determinism guarantee:
// two independent worlds driven at the same RPS and seed produce
// bit-identical reports (like totals, eviction counts, SLO quantiles),
// regardless of worker interleaving.
func TestRunLoadDeterministicTotals(t *testing.T) {
	run := func(workers int) LoadReport {
		w, err := BuildScale(ScaleConfig{Accounts: 1500, RetentionWindow: 40 * time.Second, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return w.RunLoad(LoadConfig{
			TargetRPS:  300,
			Duration:   30 * time.Second,
			Workers:    workers,
			SweepEvery: 10 * time.Second,
			Seed:       11,
		})
	}
	a, b := run(2), run(8)
	if a.Offered != 300*30 {
		t.Fatalf("Offered = %d, want %d", a.Offered, 300*30)
	}
	if a.Likes == 0 || a.Comments == 0 || a.Posts == 0 {
		t.Fatalf("degenerate mix: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverge across worker counts:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestRunLoadRaceStress hammers the worker pool; its value is running
// under -race in CI (the scale-smoke job), where any unsynchronized
// store or histogram access trips the detector. Sweeps drain the pool,
// so they never race the appliers here; TestRetentionSweepRacesWriters
// (internal/socialgraph) races a sweeper against writers instead.
func TestRunLoadRaceStress(t *testing.T) {
	w, err := BuildScale(ScaleConfig{Accounts: 1000, RetentionWindow: 20 * time.Second, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := w.RunLoad(LoadConfig{
		TargetRPS:  500,
		Duration:   12 * time.Second,
		Workers:    8,
		SweepEvery: 5 * time.Second,
		Seed:       5,
	})
	if got := rep.Likes + rep.DuplicateLikes + rep.Comments + rep.Posts; got != rep.Offered {
		t.Fatalf("applied %d of %d offered", got, rep.Offered)
	}
	if rep.Sweeps == 0 {
		t.Fatal("no sweeps ran")
	}
}

// TestRunLoadRetentionPlateau demonstrates the memory plateau: with a
// finite window the retained like history is bounded by the arrival rate
// times (window + sweep period), no matter how long the run, while the
// cumulative applied volume keeps growing.
func TestRunLoadRetentionPlateau(t *testing.T) {
	const (
		rps    = 100
		window = 60 * time.Second
		sweep  = 30 * time.Second
	)
	w, err := BuildScale(ScaleConfig{Accounts: 3000, RetentionWindow: window, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep := w.RunLoad(LoadConfig{
		TargetRPS:  rps,
		Duration:   10 * time.Minute,
		SweepEvery: sweep,
		Seed:       9,
	})
	if rep.Evicted.Likes == 0 {
		t.Fatal("nothing evicted; plateau claim is vacuous")
	}
	// Hard bound: at most rps*(window+sweep) arrivals can be inside the
	// window at any sweep instant.
	bound := int64(rps * (window + sweep) / time.Second)
	for _, s := range rep.Samples {
		if s.Retained.Likes > bound {
			t.Fatalf("sweep at %v retained %d likes, bound %d", s.At, s.Retained.Likes, bound)
		}
	}
	if rep.Retained.Likes > bound {
		t.Fatalf("final retained %d likes, bound %d", rep.Retained.Likes, bound)
	}
	if rep.Likes <= bound {
		t.Fatalf("applied only %d likes; run too short to show a plateau past bound %d", rep.Likes, bound)
	}
	// The plateau is visible in the sample series: the later half of the
	// sweeps hover at the same level, not a growing one.
	n := len(rep.Samples)
	if n < 6 {
		t.Fatalf("only %d sweep samples", n)
	}
	mid, last := rep.Samples[n/2].Retained.Likes, rep.Samples[n-1].Retained.Likes
	if last > mid*2 {
		t.Fatalf("retained likes still growing: mid %d -> last %d", mid, last)
	}
}
