package detection

import (
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/socialgraph"
)

// PCA anomaly detection in the spirit of Viswanath et al. (USENIX
// Security 2014), which the paper's related work discusses: model normal
// user behaviour with the top principal components of like-activity
// timeseries and flag accounts whose behaviour has a large residual
// outside that subspace.
//
// The paper observes that colluding accounts "mix real and fake
// activity" and are hard to detect this way; the extension experiment
// uses this detector as the classical baseline the feature-based
// logistic model is compared against.

// PCADetector holds a trained principal-subspace model.
type PCADetector struct {
	// Mean is the training mean vector.
	Mean []float64
	// Components are the top-k orthonormal principal axes.
	Components [][]float64
	// Threshold is the residual above which a point is anomalous.
	Threshold float64
}

// ErrPCAInput is returned for degenerate training input.
var ErrPCAInput = errors.New("detection: PCA needs at least 2 samples of equal dimension")

// TrainPCA fits the detector on normal behaviour: it keeps k principal
// components and sets the anomaly threshold at the given quantile
// (e.g. 0.95) of the training residuals.
func TrainPCA(normal [][]float64, k int, quantile float64) (*PCADetector, error) {
	n := len(normal)
	if n < 2 {
		return nil, ErrPCAInput
	}
	d := len(normal[0])
	for _, x := range normal {
		if len(x) != d {
			return nil, ErrPCAInput
		}
	}
	if k <= 0 || k > d {
		k = 1
	}
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.95
	}

	det := &PCADetector{Mean: make([]float64, d)}
	for _, x := range normal {
		for j, v := range x {
			det.Mean[j] += v
		}
	}
	for j := range det.Mean {
		det.Mean[j] /= float64(n)
	}
	// Covariance matrix.
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, x := range normal {
		for i := 0; i < d; i++ {
			xi := x[i] - det.Mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += xi * (x[j] - det.Mean[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= float64(n - 1)
			cov[j][i] = cov[i][j]
		}
	}
	// Top-k eigenvectors via power iteration with deflation.
	work := make([][]float64, d)
	for i := range work {
		work[i] = append([]float64(nil), cov[i]...)
	}
	for c := 0; c < k; c++ {
		vec, val := powerIterate(work, 200+17*c)
		if val < 1e-12 {
			break // remaining variance is numerically zero
		}
		det.Components = append(det.Components, vec)
		// Deflate: work -= val * vec vecᵀ.
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				work[i][j] -= val * vec[i] * vec[j]
			}
		}
	}

	residuals := make([]float64, n)
	for i, x := range normal {
		residuals[i] = det.Residual(x)
	}
	sort.Float64s(residuals)
	idx := int(quantile * float64(n))
	if idx >= n {
		idx = n - 1
	}
	det.Threshold = residuals[idx]
	return det, nil
}

// powerIterate returns the dominant eigenvector/value of a symmetric
// matrix. The seed varies deterministically with the deflation round so
// successive components do not start parallel.
func powerIterate(m [][]float64, seed int) ([]float64, float64) {
	d := len(m)
	v := make([]float64, d)
	for i := range v {
		v[i] = 1 + float64((i*31+seed)%7)/7
	}
	normalize(v)
	var val float64
	for iter := 0; iter < 300; iter++ {
		next := make([]float64, d)
		for i := 0; i < d; i++ {
			s := 0.0
			for j := 0; j < d; j++ {
				s += m[i][j] * v[j]
			}
			next[i] = s
		}
		val = norm(next)
		if val < 1e-15 {
			return v, 0
		}
		for i := range next {
			next[i] /= val
		}
		delta := 0.0
		for i := range v {
			delta += math.Abs(next[i] - v[i])
		}
		v = next
		if delta < 1e-12 {
			break
		}
	}
	return v, val
}

// Residual is the distance from x to the principal subspace (anchored at
// the training mean) — the anomaly score.
func (p *PCADetector) Residual(x []float64) float64 {
	d := len(p.Mean)
	centered := make([]float64, d)
	for i := range centered {
		centered[i] = x[i] - p.Mean[i]
	}
	// Subtract the projection onto each component.
	for _, comp := range p.Components {
		dotp := 0.0
		for i := range centered {
			dotp += centered[i] * comp[i]
		}
		for i := range centered {
			centered[i] -= dotp * comp[i]
		}
	}
	return norm(centered)
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// DailyLikeSeries extracts an account's like-count timeseries — the
// feature Viswanath et al. modelled — as one value per day over the
// window [origin, origin+days).
func DailyLikeSeries(store *socialgraph.Store, accountID string, origin time.Time, days int) []float64 {
	out := make([]float64, days)
	for _, act := range store.ActivityLog(accountID) {
		if act.Verb != socialgraph.VerbLike {
			continue
		}
		day := int(act.At.Sub(origin) / (24 * time.Hour))
		if day >= 0 && day < days {
			out[day]++
		}
	}
	return out
}
