package detection

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// buildWorld simulates a few days of mixed collusion and organic
// activity and returns the store plus ground-truth labels.
func buildWorld(t *testing.T) (*socialgraph.Store, []Labeled) {
	t.Helper()
	s, err := workload.BuildScenario(workload.Options{
		Scale:      2000,
		MinMembers: 80,
		Networks:   []string{"mg-likers.com", "oneliker.com"},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	organic, err := s.AddOrganicUsers(200, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.BuildFriendGraph(6, 9)
	for day := 0; day < 4; day++ {
		organic.SimulateDay(0.5, 4)
		for hour := 0; hour < 24; hour++ {
			for _, ni := range s.Networks {
				if hour%3 == 0 {
					ni.BackgroundRequests(2)
				}
			}
			s.Clock.Advance(time.Hour)
		}
	}
	var labeled []Labeled
	for _, ni := range s.Networks {
		for _, m := range ni.Members {
			labeled = append(labeled, Labeled{AccountID: m.ID, Colluding: true})
		}
	}
	for _, u := range organic.Users {
		labeled = append(labeled, Labeled{AccountID: u.ID, Colluding: false})
	}
	return s.Platform.Graph, labeled
}

func TestEndToEndDetection(t *testing.T) {
	store, labeled := buildWorld(t)
	ds := BuildDataset(store, labeled)
	train, test := ds.Split(0.3)
	if len(test.X) == 0 || len(train.X) == 0 {
		t.Fatalf("split sizes: train=%d test=%d", len(train.X), len(test.X))
	}
	model, err := Train(train, TrainConfig{Epochs: 300, LearningRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(model, test, 0.5)
	// The separating signals (third-party writes, shared delivery IPs)
	// are strong; the classifier should be excellent on held-out data.
	if m.AUC < 0.95 {
		t.Fatalf("AUC = %.3f, want ≥0.95 (metrics %+v)", m.AUC, m)
	}
	if m.F1 < 0.9 {
		t.Fatalf("F1 = %.3f (metrics %+v)", m.F1, m)
	}
	// False positives on organic users are the collateral damage the
	// paper's countermeasures were designed to avoid; require few.
	if m.FP > len(test.X)/20 {
		t.Fatalf("false positives = %d of %d", m.FP, len(test.X))
	}
}

func TestFeatureExtractionSignals(t *testing.T) {
	store, labeled := buildWorld(t)
	ids := make([]string, len(labeled))
	for i, l := range labeled {
		ids[i] = l.AccountID
	}
	sharing := BuildIPSharing(store, ids)

	var colluding, organic []float64
	colN, orgN := 0, 0
	for _, l := range labeled {
		f := Extract(store, sharing, l.AccountID)
		if f[0] == 0 && f[4] == 0 {
			continue // inactive account
		}
		if l.Colluding {
			if colluding == nil {
				colluding = make([]float64, NumFeatures)
			}
			for j := range f {
				colluding[j] += f[j]
			}
			colN++
		} else {
			if organic == nil {
				organic = make([]float64, NumFeatures)
			}
			for j := range f {
				organic[j] += f[j]
			}
			orgN++
		}
	}
	if colN == 0 || orgN == 0 {
		t.Fatalf("activity missing: colluding=%d organic=%d", colN, orgN)
	}
	avgCol := colluding[4] / float64(colN)
	avgOrg := organic[4] / float64(orgN)
	// IP-sharing degree separates the classes by orders of magnitude.
	if avgCol < 10*avgOrg {
		t.Fatalf("ip-sharing: colluding %.1f vs organic %.1f", avgCol, avgOrg)
	}
	// Third-party share: colluding ≈ 1, organic ≈ 0.
	if colluding[3]/float64(colN) < 0.9 {
		t.Fatalf("colluding third-party share = %.2f", colluding[3]/float64(colN))
	}
	if organic[3]/float64(orgN) > 0.1 {
		t.Fatalf("organic third-party share = %.2f", organic[3]/float64(orgN))
	}
}

func TestExtractInactiveAccount(t *testing.T) {
	store := socialgraph.New(0, 0)
	acct := store.CreateAccount("idle", "IN", time.Now())
	f := Extract(store, IPSharing{}, acct.ID)
	for j, v := range f {
		if v != 0 {
			t.Fatalf("feature %d = %v for inactive account", j, v)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(Dataset{}, TrainConfig{}); err == nil {
		t.Fatal("empty dataset trained")
	}
	single := Dataset{X: [][]float64{{1}, {2}}, Y: []int{1, 1}, IDs: []string{"a", "b"}}
	if _, err := Train(single, TrainConfig{}); err == nil {
		t.Fatal("single-class dataset trained")
	}
}

func TestLogisticOnSyntheticSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ds Dataset
	for i := 0; i < 400; i++ {
		y := i % 2
		x := []float64{rng.NormFloat64() + float64(y)*4, rng.NormFloat64()}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
		ds.IDs = append(ds.IDs, fmt.Sprintf("s%d", i))
	}
	m, err := Train(ds, TrainConfig{Epochs: 500, LearningRate: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mt := Evaluate(m, ds, 0.5)
	if mt.Accuracy < 0.95 {
		t.Fatalf("accuracy = %.3f on separable data", mt.Accuracy)
	}
	if mt.AUC < 0.98 {
		t.Fatalf("AUC = %.3f on separable data", mt.AUC)
	}
}

func TestAUCProperties(t *testing.T) {
	// Perfect ranking → 1; inverted → 0; constant → handled via ties.
	if got := auc([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	if got := auc([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	if got := auc([]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %v", got)
	}
	if got := auc([]float64{0.5}, []int{1}); got != 0 {
		t.Fatalf("single-class AUC = %v", got)
	}
}

func TestSplitDeterministicAndDisjoint(t *testing.T) {
	var ds Dataset
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%2)
		ds.IDs = append(ds.IDs, fmt.Sprintf("acct-%d", i))
	}
	tr1, te1 := ds.Split(0.25)
	tr2, te2 := ds.Split(0.25)
	if len(te1.X) != 25 || len(tr1.X) != 75 {
		t.Fatalf("split sizes: %d/%d", len(tr1.X), len(te1.X))
	}
	for i := range te1.IDs {
		if te1.IDs[i] != te2.IDs[i] {
			t.Fatal("split not deterministic")
		}
	}
	seen := map[string]bool{}
	for _, id := range tr1.IDs {
		seen[id] = true
	}
	for _, id := range te1.IDs {
		if seen[id] {
			t.Fatalf("ID %s in both splits", id)
		}
	}
	_ = tr2
}

// Property: Score is always a valid probability.
func TestQuickScoreBounded(t *testing.T) {
	m := &LogisticModel{
		Weights: []float64{2, -3},
		Bias:    0.5,
		Means:   []float64{0, 0},
		Stds:    []float64{1, 1},
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Clamp to a physical range: feature magnitudes above 1e9 would
		// overflow the linear term (Inf-Inf = NaN), which real extracted
		// features (counts and ratios) can never reach.
		clamp := func(v float64) float64 { return math.Mod(v, 1e9) }
		s := m.Score([]float64{clamp(a), clamp(b)})
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
