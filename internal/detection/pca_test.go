package detection

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/socialgraph"
	"repro/internal/workload"
)

func TestTrainPCAInputValidation(t *testing.T) {
	if _, err := TrainPCA(nil, 2, 0.95); err == nil {
		t.Fatal("empty input trained")
	}
	if _, err := TrainPCA([][]float64{{1, 2}}, 2, 0.95); err == nil {
		t.Fatal("single sample trained")
	}
	if _, err := TrainPCA([][]float64{{1, 2}, {1}}, 2, 0.95); err == nil {
		t.Fatal("ragged input trained")
	}
}

func TestPCARecoversDominantAxis(t *testing.T) {
	// Points along the (1,1)/√2 direction with small noise: the first
	// principal component must align with it.
	rng := rand.New(rand.NewSource(3))
	var data [][]float64
	for i := 0; i < 500; i++ {
		tv := rng.NormFloat64() * 10
		data = append(data, []float64{tv + rng.NormFloat64()*0.1, tv + rng.NormFloat64()*0.1})
	}
	det, err := TrainPCA(data, 1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Components) != 1 {
		t.Fatalf("components = %d", len(det.Components))
	}
	c := det.Components[0]
	want := 1 / math.Sqrt2
	if math.Abs(math.Abs(c[0])-want) > 0.02 || math.Abs(math.Abs(c[1])-want) > 0.02 {
		t.Fatalf("component = %v, want ±(%.3f, %.3f)", c, want, want)
	}
}

func TestPCAFlagsOffSubspaceAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var normal [][]float64
	for i := 0; i < 400; i++ {
		tv := rng.NormFloat64() * 5
		normal = append(normal, []float64{tv, tv * 2, tv * -1})
	}
	det, err := TrainPCA(normal, 1, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// In-subspace point: tiny residual.
	if det.Residual([]float64{3, 6, -3}) > det.Threshold {
		t.Fatal("in-subspace point flagged")
	}
	// Orthogonal departure: flagged.
	if det.Residual([]float64{3, -6, 3}) <= det.Threshold {
		t.Fatal("off-subspace point not flagged")
	}
}

func TestPCAResidualProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var normal [][]float64
	for i := 0; i < 200; i++ {
		normal = append(normal, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	det, err := TrainPCA(normal, 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Residuals are non-negative and the mean itself has residual 0.
	if r := det.Residual(det.Mean); r > 1e-9 {
		t.Fatalf("mean residual = %v", r)
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		if det.Residual(x) < 0 {
			t.Fatal("negative residual")
		}
	}
	// Components are orthonormal.
	for i, a := range det.Components {
		na := 0.0
		for _, v := range a {
			na += v * v
		}
		if math.Abs(na-1) > 1e-6 {
			t.Fatalf("component %d norm² = %v", i, na)
		}
		for j := i + 1; j < len(det.Components); j++ {
			dotp := 0.0
			for k := range a {
				dotp += a[k] * det.Components[j][k]
			}
			if math.Abs(dotp) > 1e-4 {
				t.Fatalf("components %d,%d dot = %v", i, j, dotp)
			}
		}
	}
	// ~5% of training points exceed the 0.95-quantile threshold.
	over := 0
	for _, x := range normal {
		if det.Residual(x) > det.Threshold {
			over++
		}
	}
	frac := float64(over) / float64(len(normal))
	if frac > 0.08 {
		t.Fatalf("training anomaly rate = %v", frac)
	}
}

func TestDailyLikeSeries(t *testing.T) {
	store, labeled := buildWorld(t)
	origin := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	for _, l := range labeled[:5] {
		series := DailyLikeSeries(store, l.AccountID, origin, 4)
		if len(series) != 4 {
			t.Fatalf("series length = %d", len(series))
		}
		for _, v := range series {
			if v < 0 {
				t.Fatal("negative count")
			}
		}
	}
}

// buildOverlapWorld simulates the regime the paper emphasises: colluding
// accounts' like volumes overlap organic users' (large pools spread the
// fake activity thin), so volume-based detection has little signal while
// structural features still separate.
func buildOverlapWorld(t *testing.T) (*socialgraph.Store, []Labeled) {
	t.Helper()
	s, err := workload.BuildScenario(workload.Options{
		Scale:      3, // kingliker: 747 members vs quota 47 → ~0.5 fake likes/member/day
		MinMembers: 100,
		Networks:   []string{"kingliker.com", "rockliker.net"},
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	organic, err := s.AddOrganicUsers(300, 17)
	if err != nil {
		t.Fatal(err)
	}
	s.BuildFriendGraph(6, 17)
	for day := 0; day < 4; day++ {
		organic.SimulateDay(0.5, 3)
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

// TestPCABaselineVsLogistic reproduces the comparison of the extension:
// the volume-only PCA baseline separates worse than the structural
// logistic features, because colluding accounts mix real and fake
// activity at volumes similar to organic users (the paper's Sec. 7.3
// observation).
func TestPCABaselineVsLogistic(t *testing.T) {
	store, labeled := buildOverlapWorld(t)
	origin := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

	// PCA trains on organic users' daily like series only.
	var normalSeries [][]float64
	for _, l := range labeled {
		if !l.Colluding {
			normalSeries = append(normalSeries, DailyLikeSeries(store, l.AccountID, origin, 4))
		}
	}
	pca, err := TrainPCA(normalSeries, 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Score every account by residual; compute AUC against ground truth.
	var scores []float64
	var ys []int
	for _, l := range labeled {
		scores = append(scores, pca.Residual(DailyLikeSeries(store, l.AccountID, origin, 4)))
		y := 0
		if l.Colluding {
			y = 1
		}
		ys = append(ys, y)
	}
	pcaAUC := auc(scores, ys)

	ds := BuildDataset(store, labeled)
	train, test := ds.Split(0.3)
	model, err := Train(train, TrainConfig{Epochs: 300, LearningRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	logAUC := Evaluate(model, test, 0.5).AUC

	if logAUC <= pcaAUC {
		t.Fatalf("structural features (AUC %.3f) should beat volume-only PCA (AUC %.3f)", logAUC, pcaAUC)
	}
	t.Logf("PCA baseline AUC=%.3f, logistic AUC=%.3f", pcaAUC, logAUC)
}
