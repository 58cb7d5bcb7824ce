package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Output is what an experiment run produces: tables and/or figures.
type Output struct {
	Tables  []Table
	Figures []Figure
}

// String renders everything.
func (o Output) String() string {
	var b strings.Builder
	for _, t := range o.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, f := range o.Figures {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner executes one experiment at the given population scale.
type Runner func(scale int, seed int64) (Output, error)

// Registry maps experiment IDs (table1..table6, figure4..figure8) to
// runners with sensible default parameters.
var Registry = map[string]Runner{
	"table1": func(scale int, seed int64) (Output, error) {
		res, err := Table1(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"table2": func(scale int, seed int64) (Output, error) {
		res := Table2(seed)
		return Output{Tables: []Table{res.Table}}, nil
	},
	"table3": func(scale int, seed int64) (Output, error) {
		res, err := Table3(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"table4": func(scale int, seed int64) (Output, error) {
		res, err := Table4(Table4Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"table5": func(scale int, seed int64) (Output, error) {
		res := Table5(Table5Config{Seed: seed})
		return Output{Tables: []Table{res.Table}}, nil
	},
	"table6": func(scale int, seed int64) (Output, error) {
		res, err := Table6(Table6Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"figure4": func(scale int, seed int64) (Output, error) {
		res, err := Figure4(Figure4Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Figures: res.Figures}, nil
	},
	"figure5": func(scale int, seed int64) (Output, error) {
		res, err := Figure5(Figure5Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Figures: []Figure{res.Figure}}, nil
	},
	"figure5-all": func(scale int, seed int64) (Output, error) {
		res, err := Figure5AllNetworks(Figure5Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}, Figures: []Figure{res.Fig.Figure}}, nil
	},
	"figure6": func(scale int, seed int64) (Output, error) {
		res, err := Figure6(Figure6Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Figures: res.Figures}, nil
	},
	"figure7": func(scale int, seed int64) (Output, error) {
		res, err := Figure7(Figure7Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Figures: res.Figures}, nil
	},
	"figure8": func(scale int, seed int64) (Output, error) {
		res, err := Figure8(Figure8Config{Scale: scale, Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Figures: res.Figures}, nil
	},
	"ablation-ratelimit": func(scale int, seed int64) (Output, error) {
		tbl, err := AblationRateLimit(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{tbl}}, nil
	},
	"ablation-invalidation": func(scale int, seed int64) (Output, error) {
		tbl, err := AblationInvalidation(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{tbl}}, nil
	},
	"ablation-clustering": func(scale int, seed int64) (Output, error) {
		tbl, err := AblationClustering(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{tbl}}, nil
	},
	"ablation-ip-vs-as": func(scale int, seed int64) (Output, error) {
		tbl, err := AblationIPvsAS(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{tbl}}, nil
	},
	"ablation-rejected": func(scale int, seed int64) (Output, error) {
		tbl, err := AblationRejectedCountermeasures(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{tbl}}, nil
	},
	"ablation-honeypot-evasion": func(scale int, seed int64) (Output, error) {
		tbl, err := AblationHoneypotEvasion(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{tbl}}, nil
	},
	"extension-privacy": func(scale int, seed int64) (Output, error) {
		res, err := ExtensionPrivacy(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"extension-detection": func(scale int, seed int64) (Output, error) {
		res, err := ExtensionDetection(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"scale-slo": func(scale int, seed int64) (Output, error) {
		// The population flag is a divisor for the paper experiments; the
		// scale profile wants an absolute account count, so only an
		// explicit larger-than-default value is passed through.
		cfg := ScaleSLOConfig{Seed: seed}
		if scale > 5000 {
			cfg.Accounts = scale
		}
		res, err := ScaleSLO(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"cross-platform": func(scale int, seed int64) (Output, error) {
		res, err := CrossPlatform(CrossPlatformConfig{Seed: seed})
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
	"extension-economics": func(scale int, seed int64) (Output, error) {
		res, err := ExtensionEconomics(seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: []Table{res.Table}}, nil
	},
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, scale int, seed int64) (Output, error) {
	r, ok := Registry[id]
	if !ok {
		return Output{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(scale, seed)
}
