package netsim

import (
	"math/rand"
	"sort"
)

// CountryMix is a discrete distribution over country labels. Tables 2 and 5
// of the paper report collusion network visitor populations dominated by
// India, with Egypt, Turkey, Vietnam, Bangladesh, Pakistan, Indonesia, and
// Algeria following; each collusion network has its own mix.
type CountryMix struct {
	countries []string
	cum       []float64 // cumulative weights, last element == total
}

// NewCountryMix builds a distribution from country→weight pairs. Weights
// need not sum to 1. Countries with non-positive weight are dropped; an
// empty mix samples the empty string.
func NewCountryMix(weights map[string]float64) CountryMix {
	countries := make([]string, 0, len(weights))
	for c, w := range weights {
		if w > 0 {
			countries = append(countries, c)
		}
	}
	sort.Strings(countries) // deterministic order for reproducible sampling
	cum := make([]float64, len(countries))
	total := 0.0
	for i, c := range countries {
		total += weights[c]
		cum[i] = total
	}
	return CountryMix{countries: countries, cum: cum}
}

// Sample draws a country using rng.
func (m CountryMix) Sample(rng *rand.Rand) string {
	if len(m.countries) == 0 {
		return ""
	}
	x := rng.Float64() * m.cum[len(m.cum)-1]
	i := sort.SearchFloat64s(m.cum, x)
	if i >= len(m.countries) {
		i = len(m.countries) - 1
	}
	return m.countries[i]
}
