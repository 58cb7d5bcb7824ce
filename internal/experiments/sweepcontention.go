package experiments

// Contention-aware performance sweep. Not a paper artifact — this is the
// reproduction's own instrumentation experiment: it sweeps the store's
// shard count, the milking driver's worker count, and the delivery mode
// (batched vs one call per like) against the same fleet, and reports
// throughput next to the contended fraction of shard-lock acquisitions
// from Store.Contention(). The table is how we verify that lock striping
// (PR 1) and batched delivery keep buying throughput as parallelism
// grows, and where the returns flatten.

import (
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// sweepNetworks is the fleet used by the sweep: the same eight
// no-daily-limit networks the milking benchmarks drive, so the sweep's
// likes/round agrees with the benchmark's invariant (464 at the default
// scale).
var sweepNetworks = []string{
	"mg-likers.com", "fast-liker.com", "autolikesgroups.com", "4liker.com",
	"f8-autoliker.com", "myliker.com", "kdliker.com", "oneliker.com",
}

// SweepContentionConfig parameterizes the sweep.
type SweepContentionConfig struct {
	// Scale is the population divisor; 0 selects 4000 (the benchmark
	// fleet's scale — small memberships, so the sweep runs in seconds).
	Scale int
	Seed  int64
}

// sweepRounds is how many hourly milking rounds each cell runs.
const sweepRounds = 4

// sweepShards and sweepWorkers are the sweep's axes.
var (
	sweepShards  = []int{1, 4, 16, 64}
	sweepWorkers = []int{1, 4, 8}
)

// SweepContention runs the shards × workers × delivery-mode grid and
// returns one row per cell: likes per round (which must not move across
// cells — delivery semantics are mode-independent), wall-clock rounds per
// second, and the contended fraction of shard-lock acquisitions.
func SweepContention(cfg SweepContentionConfig) (Table, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 4000
	}
	table := Table{
		ID:      "sweep-contention",
		Title:   "Parallel milking: shards × workers × delivery mode vs throughput and lock contention",
		Columns: []string{"Shards", "Workers", "Delivery", "Likes/round", "Rounds/s", "Contended %"},
		Notes: []string{
			"likes/round is invariant across cells: delivery semantics do not depend on sharding, workers, or batching",
			"rounds/s is wall-clock and varies with the host; compare within one run",
			"contended % is contended shard-lock acquisitions / total, from socialgraph.Store.Contention()",
		},
	}
	modes := []struct {
		name  string
		batch int
	}{
		{"per-call", -1},
		{"batched", 0},
	}
	for _, shards := range sweepShards {
		for _, workers := range sweepWorkers {
			for _, mode := range modes {
				study, err := core.NewStudy(workload.Options{
					Scale:             cfg.Scale,
					MinMembers:        60,
					Networks:          sweepNetworks,
					Seed:              cfg.Seed,
					Shards:            shards,
					DeliveryBatchSize: mode.batch,
				})
				if err != nil {
					return Table{}, err
				}
				likes := 0
				start := time.Now() //collusionvet:allow simclock -- rounds/s measures host wall-clock, not simulated time
				for r := 0; r < sweepRounds; r++ {
					for _, res := range study.MilkAllParallel(1, workers) {
						if res.Err != nil {
							return Table{}, res.Err
						}
						likes += res.Delivered
					}
					study.Scenario.Clock.Advance(time.Hour)
				}
				elapsed := time.Since(start) //collusionvet:allow simclock -- wall-clock throughput measurement
				roundsPerSec := 0.0
				if elapsed > 0 {
					roundsPerSec = float64(sweepRounds) / elapsed.Seconds()
				}
				contended := 0.0
				if acq, cont := study.Scenario.Platform.Graph.Contention().Totals(); acq > 0 {
					contended = 100 * float64(cont) / float64(acq)
				}
				table.Rows = append(table.Rows, []string{
					fmtInt(study.Scenario.Platform.Graph.ShardCount()),
					fmtInt(workers),
					mode.name,
					fmtFloat(float64(likes)/float64(sweepRounds), 1),
					fmtFloat(roundsPerSec, 1),
					fmtFloat(contended, 2),
				})
			}
		}
	}
	return table, nil
}
