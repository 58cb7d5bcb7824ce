package detection

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// LogisticModel is a standardized-feature logistic regression.
type LogisticModel struct {
	Weights []float64
	Bias    float64
	// Means and Stds standardize inputs at prediction time.
	Means []float64
	Stds  []float64
}

// TrainConfig parameterises training.
type TrainConfig struct {
	Epochs       int
	LearningRate float64
	Seed         int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ErrEmptyDataset is returned when training data is missing or
// single-class.
var ErrEmptyDataset = errors.New("detection: dataset empty or single-class")

// Train fits a logistic regression with full-batch gradient descent on
// standardized features.
func Train(ds Dataset, cfg TrainConfig) (*LogisticModel, error) {
	cfg = cfg.withDefaults()
	n := len(ds.X)
	if n == 0 {
		return nil, ErrEmptyDataset
	}
	pos := 0
	for _, y := range ds.Y {
		pos += y
	}
	if pos == 0 || pos == n {
		return nil, ErrEmptyDataset
	}
	d := len(ds.X[0])

	m := &LogisticModel{
		Weights: make([]float64, d),
		Means:   make([]float64, d),
		Stds:    make([]float64, d),
	}
	// Standardization parameters.
	for j := 0; j < d; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += ds.X[i][j]
		}
		m.Means[j] = sum / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			diff := ds.X[i][j] - m.Means[j]
			ss += diff * diff
		}
		m.Stds[j] = math.Sqrt(ss / float64(n))
		if m.Stds[j] < 1e-9 {
			m.Stds[j] = 1 // constant feature: contributes nothing
		}
	}
	// Pre-standardize the training matrix.
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			xs[i][j] = (ds.X[i][j] - m.Means[j]) / m.Stds[j]
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for j := range m.Weights {
		m.Weights[j] = rng.NormFloat64() * 0.01
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		gradW := make([]float64, d)
		gradB := 0.0
		for i := 0; i < n; i++ {
			p := sigmoid(dot(m.Weights, xs[i]) + m.Bias)
			err := p - float64(ds.Y[i])
			for j := 0; j < d; j++ {
				gradW[j] += err * xs[i][j]
			}
			gradB += err
		}
		for j := 0; j < d; j++ {
			m.Weights[j] -= cfg.LearningRate * (gradW[j] / float64(n))
		}
		m.Bias -= cfg.LearningRate * gradB / float64(n)
	}
	return m, nil
}

// Score returns the colluding probability for a raw feature vector.
func (m *LogisticModel) Score(x []float64) float64 {
	s := m.Bias
	for j, w := range m.Weights {
		s += w * (x[j] - m.Means[j]) / m.Stds[j]
	}
	return sigmoid(s)
}

// Predict classifies at the given threshold.
func (m *LogisticModel) Predict(x []float64, threshold float64) bool {
	return m.Score(x) >= threshold
}

// Metrics summarises classifier performance.
type Metrics struct {
	TP, FP, TN, FN int
	Precision      float64
	Recall         float64
	F1             float64
	Accuracy       float64
	AUC            float64
}

// Evaluate scores a dataset at the threshold and computes the confusion
// matrix, point metrics, and ROC AUC.
func Evaluate(m *LogisticModel, ds Dataset, threshold float64) Metrics {
	var mt Metrics
	scores := make([]float64, len(ds.X))
	for i, x := range ds.X {
		scores[i] = m.Score(x)
		predicted := scores[i] >= threshold
		actual := ds.Y[i] == 1
		switch {
		case predicted && actual:
			mt.TP++
		case predicted && !actual:
			mt.FP++
		case !predicted && !actual:
			mt.TN++
		default:
			mt.FN++
		}
	}
	if mt.TP+mt.FP > 0 {
		mt.Precision = float64(mt.TP) / float64(mt.TP+mt.FP)
	}
	if mt.TP+mt.FN > 0 {
		mt.Recall = float64(mt.TP) / float64(mt.TP+mt.FN)
	}
	if mt.Precision+mt.Recall > 0 {
		mt.F1 = 2 * mt.Precision * mt.Recall / (mt.Precision + mt.Recall)
	}
	if n := len(ds.X); n > 0 {
		mt.Accuracy = float64(mt.TP+mt.TN) / float64(n)
	}
	mt.AUC = auc(scores, ds.Y)
	return mt
}

// AUCOf computes ROC AUC for arbitrary scores against binary labels —
// exported so baseline detectors (e.g. the PCA residual) can be compared
// on the same footing as the logistic model.
func AUCOf(scores []float64, labels []int) float64 {
	return auc(scores, labels)
}

// auc computes ROC AUC via the rank statistic (ties averaged).
func auc(scores []float64, labels []int) float64 {
	type pair struct {
		s float64
		y int
	}
	ps := make([]pair, len(scores))
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Average ranks over ties.
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	nPos, nNeg := 0, 0
	rankSum := 0.0
	for i, p := range ps {
		if p.y == 1 {
			nPos++
			rankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0
	}
	return (rankSum - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
