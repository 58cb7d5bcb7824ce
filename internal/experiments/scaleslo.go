package experiments

import (
	"time"

	"repro/internal/workload"
)

// ScaleSLO exercises the scale profile end to end in deterministic mode:
// build a small population with BuildScale, drive the open-loop load
// generator on the frozen timing clock, sweep retention on a finite
// window, and render the resulting throughput/retention/SLO counters.
// Because timing is frozen and sweeps drain the apply pool first, every
// cell is a pure function of (config, seed) — the golden test pins the
// rendered bytes.

// ScaleSLOConfig parameterises the run. The zero value is the golden
// profile.
type ScaleSLOConfig struct {
	Accounts int
	Seed     int64
}

// The golden profile's load: offered rate, simulated length, sweep
// period and retention window.
const (
	sloTargetRPS       = 200
	sloDuration        = 90 * time.Second
	sloSweepEvery      = 20 * time.Second
	sloRetentionWindow = 30 * time.Second
)

func (c ScaleSLOConfig) withDefaults() ScaleSLOConfig {
	if c.Accounts <= 0 {
		c.Accounts = 5000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScaleSLOResult carries the rendered table plus the raw report.
type ScaleSLOResult struct {
	Table  Table
	World  *workload.ScaleWorld
	Report workload.LoadReport
}

// ScaleSLO runs the deterministic scale/load/retention profile.
func ScaleSLO(cfg ScaleSLOConfig) (ScaleSLOResult, error) {
	cfg = cfg.withDefaults()
	w, err := workload.BuildScale(workload.ScaleConfig{
		Accounts:        cfg.Accounts,
		RetentionWindow: sloRetentionWindow,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return ScaleSLOResult{}, err
	}
	rep := w.RunLoad(workload.LoadConfig{
		TargetRPS:        sloTargetRPS,
		Duration:         sloDuration,
		SweepEvery:       sloSweepEvery,
		DrainBeforeSweep: true,
		Seed:             cfg.Seed,
	})

	table := Table{
		ID:      "scale-slo",
		Title:   "Scale profile: open-loop load + per-shard retention (deterministic mode)",
		Columns: []string{"Metric", "Value"},
		Notes: []string{
			"accounts " + fmtInt(cfg.Accounts) +
				", target " + fmtInt(sloTargetRPS) + " rps over " + sloDuration.String() +
				", retention " + sloRetentionWindow.String() +
				", sweep every " + sloSweepEvery.String(),
			"timing clock frozen: latency quantiles collapse to the histogram floor",
		},
	}
	add := func(metric, value string) {
		table.Rows = append(table.Rows, []string{metric, value})
	}
	add("Offered requests", fmtInt(int(rep.Offered)))
	add("Likes applied", fmtInt(int(rep.Likes)))
	add("Duplicate likes", fmtInt(int(rep.DuplicateLikes)))
	add("Comments", fmtInt(int(rep.Comments)))
	add("Posts", fmtInt(int(rep.Posts)))
	add("Retention sweeps", fmtInt(int(rep.Sweeps)))
	add("Likes evicted", fmtInt(int(rep.Evicted.Likes)))
	add("Comments evicted", fmtInt(int(rep.Evicted.Comments)))
	add("Activities evicted", fmtInt(int(rep.Evicted.Activities)))
	add("Likes retained (end)", fmtInt(int(rep.Retained.Likes)))
	add("Comments retained (end)", fmtInt(int(rep.Retained.Comments)))
	add("Like p50", rep.P50.String())
	add("Like p99", rep.P99.String())
	return ScaleSLOResult{Table: table, World: w, Report: rep}, nil
}
