package defense

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// checkSlidingWindow drives slidingWindow and refWindow through one
// stream decoded from data and fails on the first admission they
// disagree on. data[0] picks the window; every following byte triple is
// one event (key, limit, clock advance). Advances land exactly on bucket
// edges, one nanosecond short of them, and past the whole window. It
// returns how many events were admitted and denied.
func checkSlidingWindow(t *testing.T, data []byte) (admitted, denied int) {
	if len(data) == 0 {
		return 0, 0
	}
	// 1001ns does not split into eight whole-nanosecond buckets.
	windows := []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 1001, 80}
	window := windows[int(data[0])%len(windows)]
	bucket := int64(window / 8)
	clock := simclock.NewSimulated(t0)
	got, want := newSlidingWindow(clock, window), newRefWindow(clock, window)
	for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
		key := fmt.Sprintf("k%d", ops[0]%3)
		limit := int(ops[1]%7) - 1
		now := clock.Now().UnixNano()
		edge := (now/bucket + 1) * bucket
		switch adv := ops[2]; adv % 8 {
		case 1:
			clock.Advance(1)
		case 2:
			clock.AdvanceTo(time.Unix(0, edge))
		case 3:
			clock.AdvanceTo(time.Unix(0, edge-1))
		case 4:
			clock.Advance(time.Duration(bucket))
		case 5:
			clock.Advance(window)
		case 6:
			clock.Advance(window + time.Duration(int64(adv>>3)*bucket))
		case 7:
			clock.Advance(time.Duration(int64(adv) * bucket / 37))
		}
		g, w := got.allow(key, limit), want.allow(key, limit)
		if g != w {
			t.Fatalf("window %v, t=%d, key %s, limit %d: ring allow = %v, reference %v",
				window, clock.Now().UnixNano(), key, limit, g, w)
		}
		if g {
			admitted++
		} else {
			denied++
		}
	}
	return admitted, denied
}

func TestSlidingWindowMatchesReference(t *testing.T) {
	admitted, denied := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+3*rng.Intn(200))
		rng.Read(data)
		a, d := checkSlidingWindow(t, data)
		admitted += a
		denied += d
	}
	t.Logf("%d events admitted, %d denied", admitted, denied)
	if admitted == 0 || denied == 0 {
		t.Fatalf("streams admitted %d and denied %d events; both must occur", admitted, denied)
	}
}

func FuzzSlidingWindow(f *testing.F) {
	f.Add([]byte{0, 0, 3, 2, 1, 3, 2, 1, 3, 5, 2, 3, 3})
	f.Add([]byte{3, 1, 2, 2, 1, 2, 3, 1, 2, 6, 0, 5, 0})
	f.Add([]byte{4, 2, 6, 4, 2, 6, 0, 2, 1, 7, 2, 6, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSlidingWindow(t, data)
	})
}

// checkSynchroTrap records one stream decoded from data into a
// SynchroTrap and into refTrap and fails unless both detect the same
// clusters, in the same order, with the same member order. The first six
// bytes set MinShared, the threshold, MinClusterSize, MaxGroupFanout,
// MinActions and how often each action is recorded; every following byte
// triple is either a lockstep burst (a team of bots acting on one object
// within one window) or one spread-out member action. It returns the
// number of clusters detected.
func checkSynchroTrap(t *testing.T, data []byte) int {
	if len(data) < 6 {
		return 0
	}
	st := NewSynchroTrap(time.Minute, float64(data[1]%10+1)/10, 1+int(data[0]%4), 1+int(data[2]%5))
	st.MaxGroupFanout = []int{0, 4, 8, 2000}[data[3]%4]
	st.MinActions = st.MinShared + int(data[4]%4) - 1
	repeats := 1 + int(data[5]%3)
	ref := newRefTrap(st)
	record := func(account, object string, at time.Time) {
		for r := 0; r < repeats; r++ {
			st.Record(account, object, at)
			ref.Record(account, object, at)
		}
	}
	for ops := data[6:]; len(ops) >= 3; ops = ops[3:] {
		object := fmt.Sprintf("post-%d", ops[1]%8)
		if ops[0]&0x80 != 0 {
			team, size := ops[0]>>6&1, 2+int(ops[0]%6)
			at := t0.Add(time.Duration(ops[2]%16) * time.Minute)
			for i := 0; i < size; i++ {
				record(fmt.Sprintf("bot%d-%d", team, i), object, at.Add(time.Duration(i)*time.Second))
			}
		} else {
			record(fmt.Sprintf("member-%d", ops[0]%32), object, t0.Add(time.Duration(ops[2])*37*time.Second))
		}
	}
	if g, w := st.GroupCount(), len(ref.groups); g != w {
		t.Fatalf("GroupCount = %d, reference %d", g, w)
	}
	got, want := st.Detect(), ref.Detect()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MinShared %d, threshold %v, MinClusterSize %d, fanout %d, MinActions %d, repeats %d:\nDetect    = %v\nreference = %v",
			st.MinShared, st.SimilarityThreshold, st.MinClusterSize, st.MaxGroupFanout, st.MinActions, repeats, got, want)
	}
	return len(got)
}

func TestSynchroTrapMatchesReference(t *testing.T) {
	flagged := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 6+3*rng.Intn(120))
		rng.Read(data)
		if checkSynchroTrap(t, data) > 0 {
			flagged++
		}
	}
	t.Logf("%d of 200 streams flagged a cluster", flagged)
	if flagged == 0 {
		t.Fatal("no stream produced a cluster; the differential compared only empty results")
	}
}

func FuzzSynchroTrapDetect(f *testing.F) {
	f.Add([]byte{1, 4, 1, 0, 1, 0, 0x85, 0, 0, 0x85, 1, 1, 0x85, 2, 2, 0x85, 3, 3, 5, 1, 9})
	f.Add([]byte{0, 9, 2, 1, 2, 2, 0xc3, 0, 1, 0x83, 0, 1, 0xc3, 1, 2, 0x83, 1, 2, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSynchroTrap(t, data)
	})
}

// TestSynchroTrapRecordDuringDetect records from several goroutines while
// Detect runs. Every intermediate result may flag only the lockstep bots,
// and once the writers finish, Detect must match a reference fed the
// same actions.
func TestSynchroTrapRecordDuringDetect(t *testing.T) {
	const writers, bots, posts = 4, 8, 40
	st := NewSynchroTrap(time.Minute, 0.5, 2, 3)
	ref := newRefTrap(st)
	type action struct {
		account, object string
		at              time.Time
	}
	// Writer w owns every writers-th post; all writers intern the same
	// bot IDs, and each post also draws one spread-out member.
	work := make([][]action, writers)
	for p := 0; p < posts; p++ {
		w := p % writers
		at := t0.Add(time.Duration(p) * time.Hour)
		object := fmt.Sprintf("post-%d", p)
		for b := 0; b < bots; b++ {
			work[w] = append(work[w], action{fmt.Sprintf("bot-%d", b), object, at.Add(time.Duration(b) * time.Second)})
		}
		work[w] = append(work[w], action{fmt.Sprintf("member-%d", p), object, at.Add(30 * time.Minute)})
	}
	for _, acts := range work {
		for _, a := range acts {
			ref.Record(a.account, a.object, a.at)
		}
	}

	var wg sync.WaitGroup
	for _, acts := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range acts {
				st.Record(a.account, a.object, a.at)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, c := range st.Detect() {
			for _, a := range c.Accounts {
				if !strings.HasPrefix(a, "bot-") {
					t.Fatalf("intermediate Detect flagged %s: %v", a, c.Accounts)
				}
			}
		}
	}
	got, want := st.Detect(), ref.Detect()
	if !reflect.DeepEqual(got, want) || len(got) != 1 || len(got[0].Accounts) != bots {
		t.Fatalf("Detect = %v, reference %v, want one cluster of %d bots", got, want, bots)
	}
}
