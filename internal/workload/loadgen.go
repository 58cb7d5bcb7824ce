package workload

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/runtimestats"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// Open-loop load generator. The milking campaigns advance in lockstep
// rounds — every hour the whole fleet acts, then time jumps. Real
// platform load is open-loop: requests arrive on a schedule regardless
// of whether earlier ones have finished. RunLoad reproduces that on the
// simulated clock: a single generator goroutine advances simulated time
// to each arrival instant and enqueues the operation; a pool of workers
// applies operations against the sharded store concurrently, measuring
// wall latency per like into an obs histogram, from which the p50/p99
// SLO report is computed.
//
// Determinism: the generator samples every operation (actor, target,
// kind, arrival time) from one seeded RNG before handing it to the
// worker pool, and likes are idempotent per (account, object) — so the
// number of successful likes equals the number of distinct sampled
// pairs, independent of worker count and interleaving. Two runs at the
// same target RPS and seed therefore report identical like totals.

// LoadConfig parameterises RunLoad.
type LoadConfig struct {
	// TargetRPS is the offered arrival rate per simulated second.
	TargetRPS int
	// Duration is the simulated length of the run.
	Duration time.Duration
	// Workers is the apply-pool size; 0 selects GOMAXPROCS.
	Workers int
	// SweepEvery triggers a retention sweep each time simulated time
	// crosses a multiple of it; 0 disables sweeping.
	SweepEvery time.Duration
	// DrainBeforeSweep makes the generator wait for the worker pool to
	// drain before each sweep, so exactly which edges a sweep evicts is
	// deterministic (the golden SLO report needs this; a production-style
	// run does not).
	DrainBeforeSweep bool
	// Timing is the clock latencies are measured on. nil freezes timing
	// at the simulation epoch so every observed latency is exactly zero —
	// the deterministic mode golden tests use. cmd/repro passes
	// simclock.Real{} to measure wall-clock SLOs.
	Timing simclock.Clock
	// Seed drives the operation mix; 0 selects the world's seed.
	Seed int64
	// Warmup is the leading stretch of simulated time excluded from the
	// steady-state window. OnSteadyState fires once, just before the
	// first arrival at or past start+Warmup is enqueued (immediately on
	// the first arrival when Warmup is 0) — `repro scale -profile-dir`
	// starts its CPU profile here so warmup allocation noise stays out
	// of the capture.
	Warmup        time.Duration
	OnSteadyState func()
	// OnLoadEnd fires after the worker pool has drained, closing the
	// steady-state window (profiles are stopped and written here).
	OnLoadEnd func()
	// Runtime, when set, is sampled after every retention sweep and at
	// the end of the run, attaching runtime/GC snapshots to the report.
	Runtime *runtimestats.Sampler
}

func (c LoadConfig) withDefaults(w *ScaleWorld) LoadConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Timing == nil {
		c.Timing = frozenClock{t: epoch}
	}
	if c.Seed == 0 {
		c.Seed = w.Config.Seed
	}
	return c
}

const (
	// commentPermille and postPermille set the operation mix per thousand
	// arrivals (comments on hot posts, background posts); the rest are
	// likes.
	commentPermille = 50
	postPermille    = 20
	// queueDepth bounds the arrival queue: how far the open-loop schedule
	// may run ahead of the appliers.
	queueDepth = 4096
)

// RetentionSample is one post-sweep observation of the retained edge
// history — the series whose flattening demonstrates the memory plateau.
type RetentionSample struct {
	At       time.Time
	Evicted  socialgraph.SweepResult
	Retained socialgraph.EdgeStats
	// Runtime is the runtime snapshot taken right after the sweep (zero
	// unless LoadConfig.Runtime was set).
	Runtime runtimestats.Snapshot
}

// LoadReport summarises one RunLoad.
type LoadReport struct {
	Offered        int64 // arrivals generated
	Likes          int64 // likes applied
	DuplicateLikes int64 // likes rejected as already-liked
	Comments       int64
	Posts          int64

	Sweeps   int64
	Evicted  socialgraph.SweepResult // summed over sweeps
	Retained socialgraph.EdgeStats   // at end of run
	Samples  []RetentionSample

	// P50 and P99 are like-latency quantiles on the Timing clock,
	// estimated from the loadgen_like_seconds obs histogram.
	P50, P99 time.Duration
	// WallElapsed is the run's span on the Timing clock (zero in
	// deterministic mode).
	WallElapsed time.Duration
	// RuntimeEnd is the runtime snapshot after the pool drained (zero
	// unless LoadConfig.Runtime was set).
	RuntimeEnd runtimestats.Snapshot
}

// AchievedRPS is the applied like+comment+post throughput per Timing
// second, or 0 in deterministic (frozen-clock) mode.
func (r LoadReport) AchievedRPS() float64 {
	if r.WallElapsed <= 0 {
		return 0
	}
	return float64(r.Offered) / r.WallElapsed.Seconds()
}

// job kinds.
const (
	opLike = iota
	opComment
	opPost
)

// job is one pre-sampled arrival.
type job struct {
	kind   int
	actor  int // account index
	target int // index into w.Posts (unused for opPost)
	at     time.Time
}

// frozenClock is a Clock pinned at one instant; under it every measured
// latency is exactly zero, making histogram contents a pure function of
// the sampled operation stream.
type frozenClock struct{ t time.Time }

func (c frozenClock) Now() time.Time { return c.t }
func (c frozenClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.t
	return ch
}
func (c frozenClock) Sleep(time.Duration) {}

// loadIPPool is the small shared pool of synthetic client addresses
// arrivals are attributed to.
var loadIPPool = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = "198.51.100." + itoa(i)
	}
	return out
}()

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// RunLoad drives the open-loop workload against the world and reports
// totals, retention behaviour, and the like-latency SLO quantiles.
func (w *ScaleWorld) RunLoad(cfg LoadConfig) LoadReport {
	cfg = cfg.withDefaults(w)
	var rep LoadReport
	if cfg.TargetRPS <= 0 || cfg.Duration <= 0 || len(w.Posts) == 0 {
		return rep
	}
	total := int64(cfg.TargetRPS) * int64(cfg.Duration/time.Second)
	hist := w.Platform.Obs.M().Histogram("loadgen_like_seconds",
		"Open-loop load generator like latency in seconds, on the configured timing clock.",
		nil).With()

	var likes, dups, comments, posts atomic.Int64
	var pending atomic.Int64
	jobs := make(chan job, queueDepth)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				w.apply(j, cfg.Timing, hist, &likes, &dups, &comments, &posts)
				pending.Add(-1)
			}
		}()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	targets := rand.NewZipf(rng, scaleZipfS, 1, uint64(len(w.Posts)-1))
	start := epoch
	wallStart := cfg.Timing.Now()
	steadyAt := start.Add(cfg.Warmup)
	steady := false
	nextSweep := start.Add(cfg.SweepEvery)
	drain := func() {
		for pending.Load() != 0 {
			runtime.Gosched()
		}
	}
	for i := int64(0); i < total; i++ {
		at := start.Add(time.Duration(i) * time.Second / time.Duration(cfg.TargetRPS))
		for cfg.SweepEvery > 0 && !at.Before(nextSweep) {
			if cfg.DrainBeforeSweep {
				drain()
			}
			w.Clock.AdvanceTo(nextSweep)
			res := w.Graph.RetentionSweep(nextSweep)
			rep.Sweeps++
			rep.Evicted.Likes += res.Likes
			rep.Evicted.Comments += res.Comments
			rep.Evicted.Activities += res.Activities
			rep.Samples = append(rep.Samples, RetentionSample{
				At: nextSweep, Evicted: res, Retained: w.Graph.RetainedEdges(),
				Runtime: cfg.Runtime.Sample(),
			})
			nextSweep = nextSweep.Add(cfg.SweepEvery)
		}
		w.Clock.AdvanceTo(at)
		if !steady && !at.Before(steadyAt) {
			steady = true
			if cfg.OnSteadyState != nil {
				cfg.OnSteadyState()
			}
		}
		j := job{kind: opLike, at: at, actor: rng.Intn(w.Config.Accounts)}
		switch roll := rng.Intn(1000); {
		case roll < commentPermille:
			j.kind = opComment
		case roll < commentPermille+postPermille:
			j.kind = opPost
		}
		if j.kind != opPost {
			j.target = int(targets.Uint64())
		}
		pending.Add(1)
		jobs <- j
		rep.Offered++
	}
	close(jobs)
	wg.Wait()
	if cfg.OnLoadEnd != nil {
		cfg.OnLoadEnd()
	}
	rep.RuntimeEnd = cfg.Runtime.Sample()

	rep.Likes = likes.Load()
	rep.DuplicateLikes = dups.Load()
	rep.Comments = comments.Load()
	rep.Posts = posts.Load()
	rep.Retained = w.Graph.RetainedEdges()
	snap := hist.Snapshot()
	rep.P50 = time.Duration(snap.Quantile(0.50) * float64(time.Second))
	rep.P99 = time.Duration(snap.Quantile(0.99) * float64(time.Second))
	rep.WallElapsed = cfg.Timing.Now().Sub(wallStart)
	return rep
}

// apply executes one arrival against the store, timing likes on the
// Timing clock. With the interned ID table and the store's pooled edge
// history, the like branch allocates nothing at steady state, so the
// measured quantiles (and the loadgen.like allocs_per_op series below)
// reflect the server, not the harness.
func (w *ScaleWorld) apply(j job, timing simclock.Clock, hist *obs.BoundHistogram,
	likes, dups, comments, posts *atomic.Int64) {
	actor := w.AccountID(j.actor)
	meta := socialgraph.WriteMeta{SourceIP: loadIPPool[j.actor%len(loadIPPool)], At: j.at}
	switch j.kind {
	case opLike:
		as := w.Platform.Obs.A().Begin(nil, "loadgen.like")
		t0 := timing.Now()
		err := w.Graph.AddLike(actor, w.Posts[j.target], meta)
		hist.Observe(timing.Now().Sub(t0).Seconds())
		as.End(1)
		if err == nil {
			likes.Add(1)
		} else {
			dups.Add(1)
		}
	case opComment:
		if _, err := w.Graph.AddComment(actor, w.Posts[j.target], "c", meta); err == nil {
			comments.Add(1)
		}
	case opPost:
		if _, err := w.Graph.CreatePost(actor, "p", meta); err == nil {
			posts.Add(1)
		}
	}
}
