package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/honeypot"
	"repro/internal/workload"
)

// milk: the Table 4 measurement campaign, closed loop and in-process.
// Honeypots milk all 22 collusion networks once per simulated hour; the
// driver goroutines share each round's 22 milk operations and meet at a
// barrier, as core.Study.MilkAllParallel does. The unit operation is one
// core.Study.MilkVia call: one honeypot post, one RequestLikes, one crawl.
//
// One driver runs, not two. On two CPUs, two drivers milked no faster
// than one, and a round waits at its barrier for the slower driver, so any
// other process on the host stalled whole rounds: the 99th percentile
// spread twice as far between runs.
const (
	milkScale        = 100
	milkWorkers      = 1
	milkWarmupRounds = 24 // one simulated day
	// A finite retention window keeps the heap flat over thousands of
	// rounds; one sweep per simulated day recycles the edge chunks.
	milkRetention  = 48 * time.Hour
	milkSweepEvery = 24 // rounds
	milkSetups     = 5  // least worlds built per run; setup_s is the median
	// A world milks for 5 simulated days; the window continues on a fresh
	// world built from the same seed, so each day of a campaign repeats a
	// dozen times in a 30 s window and the timing metrics can take the
	// quietest of them (see quiet). Members join only at build time and
	// their long-term tokens expire after 60 days, so a campaign may not
	// run much longer than 30 days in any case.
	milkCampaignRounds = 5 * 24
)

// milkPinnedWarmup is the likes delivered over the warm-up rounds for the
// default seed.
var milkPinnedWarmup = map[int64]int64{1: 66820}

// milkWorld is a built milk world with its running driver.
type milkWorld struct {
	study *core.Study
	names []string
	hps   []*honeypot.Honeypot
	// requestLikes times Site.RequestLikes; set only in traced worlds.
	requestLikes *boundary
	sweeps       *boundary

	driver          *milkDriver
	rounds          int
	firstBytesPerOp float64
	warmup          milkTally
}

// milkTally counts milk outcomes.
type milkTally struct {
	delivered  int64 // likes honeypots were told they received
	refused    int64 // daily-cap and outage refusals: correct outcomes
	failed     int64 // any other error
	mismatched int64 // delivered ≠ crawled likers or ≠ LikeCount
}

func (t *milkTally) add(o milkTally) {
	t.delivered += o.delivered
	t.refused += o.refused
	t.failed += o.failed
	t.mismatched += o.mismatched
}

func (t milkTally) minus(o milkTally) milkTally {
	return milkTally{t.delivered - o.delivered, t.refused - o.refused, t.failed - o.failed, t.mismatched - o.mismatched}
}

// milkDriver runs rounds on milkWorkers persistent goroutines.
type milkDriver struct {
	w      *milkWorld
	tasks  chan int
	round  sync.WaitGroup
	exited sync.WaitGroup
	// Written by the coordinating goroutine before a round's tasks are
	// sent, read by the workers after receiving them.
	roundStart time.Time
	record     bool
	per        [milkWorkers]milkWorkerState
	firstErr   error
	errOnce    sync.Once
}

type milkWorkerState struct {
	tally    milkTally
	lat, lag []time.Duration
}

func newMilkDriver(w *milkWorld) *milkDriver {
	d := &milkDriver{w: w, tasks: make(chan int)}
	for k := range d.per {
		d.per[k].lat = make([]time.Duration, 0, 1<<16)
		d.per[k].lag = make([]time.Duration, 0, 1<<16)
		d.exited.Add(1)
		go d.work(k)
	}
	return d
}

func (d *milkDriver) work(k int) {
	defer d.exited.Done()
	st := &d.per[k]
	graph := d.w.study.Scenario.Platform.Graph
	for i := range d.tasks {
		start := time.Now()
		res := d.w.study.MilkVia(d.w.hps[i], d.w.names[i])
		end := time.Now()
		if d.record {
			st.lat = append(st.lat, end.Sub(start))
			st.lag = append(st.lag, start.Sub(d.roundStart))
		}
		switch {
		case res.Err == nil:
			st.tally.delivered += int64(res.Delivered)
			if res.Delivered != len(res.Likers) || graph.LikeCount(res.PostID) != res.Delivered {
				st.tally.mismatched++
			}
		case errors.Is(res.Err, collusion.ErrDailyLimit), errors.Is(res.Err, collusion.ErrOutage):
			st.tally.refused++
		default:
			st.tally.failed++
			d.errOnce.Do(func() { d.firstErr = res.Err })
		}
		d.round.Done()
	}
}

// runRound milks every network once, then advances the simulated hour and
// sweeps retention once per simulated day.
func (d *milkDriver) runRound(record bool) {
	d.record = record
	d.roundStart = time.Now()
	d.round.Add(len(d.w.names))
	for i := range d.w.names {
		d.tasks <- i
	}
	d.round.Wait()
	d.w.rounds++
	d.w.study.AdvanceHour()
	if d.w.rounds%milkSweepEvery == 0 {
		t0 := time.Now()
		d.w.study.SweepRetention()
		d.w.sweeps.observe(time.Since(t0))
	}
}

func (d *milkDriver) tally() milkTally {
	var t milkTally
	for k := range d.per {
		t.add(d.per[k].tally)
	}
	return t
}

func (d *milkDriver) stop() {
	close(d.tasks)
	d.exited.Wait()
}

func buildMilk(seed int64, traced bool) (*milkWorld, error) {
	study, err := core.NewStudy(workload.Options{Scale: milkScale, Seed: seed, RetentionWindow: milkRetention})
	if err != nil {
		return nil, err
	}
	w := &milkWorld{study: study, sweeps: &boundary{}}
	if traced {
		w.requestLikes = &boundary{}
	}
	sc := study.Scenario
	for _, ni := range sc.Networks {
		var site honeypot.Site = ni.Net
		if traced {
			site = &tracedSite{next: ni.Net, requestLikes: w.requestLikes}
		}
		hp := honeypot.New(honeypot.Config{
			Clock:   sc.Clock,
			Graph:   sc.Platform.Graph,
			Client:  sc.Client,
			Site:    site,
			App:     sc.Apps[ni.Spec.App],
			Name:    "perfbench-honeypot-" + ni.Spec.Name,
			Country: "US",
		})
		if err := hp.Join(); err != nil {
			return nil, fmt.Errorf("honeypot join %s: %w", ni.Spec.Name, err)
		}
		w.names = append(w.names, ni.Spec.Name)
		w.hps = append(w.hps, hp)
	}
	w.driver = newMilkDriver(w)
	// The first round is measured on its own: it pays the first-use fill
	// of the store's chunk pools and every lazily built structure.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.driver.runRound(false)
	runtime.ReadMemStats(&m1)
	w.firstBytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(w.names))
	for r := 1; r < milkWarmupRounds; r++ {
		w.driver.runRound(false)
	}
	w.warmup = w.driver.tally()
	return w, nil
}

// collusionTotals sums the networks' like counters.
func (w *milkWorld) collusionTotals() (attempted, delivered, failures int64) {
	for _, ni := range w.study.Scenario.Networks {
		st := ni.Net.Stats()
		attempted += st.LikesAttempted
		delivered += st.LikesDelivered
		for _, n := range st.FailuresByCode {
			failures += n
		}
	}
	return
}

// milkWindow is one measured stretch of rounds.
type milkWindow struct {
	rounds                         int
	tally                          milkTally
	attempted, delivered, failures int64
	lockAcquired, lockContended    int64
	lat, lag                       []time.Duration
	// slices holds one per simulated day, placed by its day in the
	// campaign.
	slices []slice
	// requestLikes and sweeps are the window's boundary samples.
	requestLikes, sweeps []time.Duration
	win                  windowStats
}

// milkDay is one measured simulated day, recorded inside the window
// without allocating; its latencies are gathered after the window closes.
type milkDay struct {
	pos   int
	wall  time.Duration
	likes int64
	end   [milkWorkers]int // each worker's sample count at the end of the day
}

// measure runs whole simulated days of rounds while more(elapsed, rounds)
// holds.
func (w *milkWorld) measure(more func(elapsed time.Duration, rounds int) bool) milkWindow {
	d := w.driver
	t0 := d.tally()
	a0, dl0, f0 := w.collusionTotals()
	acq0, con0 := w.study.Scenario.Platform.Graph.Contention().Totals()
	for k := range d.per {
		d.per[k].lat, d.per[k].lag = d.per[k].lat[:0], d.per[k].lag[:0]
	}
	reqFrom, sweepFrom := 0, len(w.sweeps.samples())
	if w.requestLikes != nil {
		reqFrom = len(w.requestLikes.samples())
	}
	days := make([]milkDay, 0, milkCampaignRounds/milkSweepEvery)
	attempted := a0
	win := openWindow()
	var m milkWindow
	for more(time.Since(win.start), m.rounds) {
		s0 := time.Now()
		for r := 0; r < milkSweepEvery; r++ {
			d.runRound(true)
			m.rounds++
		}
		day := milkDay{pos: w.rounds / milkSweepEvery, wall: time.Since(s0)}
		a, _, _ := w.collusionTotals()
		day.likes, attempted = a-attempted, a
		for k := range d.per {
			day.end[k] = len(d.per[k].lat)
		}
		days = append(days, day)
	}
	m.win = win.close()
	m.tally = d.tally().minus(t0)
	a1, dl1, f1 := w.collusionTotals()
	m.attempted, m.delivered, m.failures = a1-a0, dl1-dl0, f1-f0
	acq1, con1 := w.study.Scenario.Platform.Graph.Contention().Totals()
	m.lockAcquired, m.lockContended = acq1-acq0, con1-con0
	for k := range d.per {
		m.lat = append(m.lat, d.per[k].lat...)
		m.lag = append(m.lag, d.per[k].lag...)
	}
	var from [milkWorkers]int
	for _, day := range days {
		s := slice{pos: day.pos, wall: day.wall, cost: day.wall, likes: day.likes}
		for k := range d.per {
			s.lat = append(s.lat, d.per[k].lat[from[k]:day.end[k]]...)
		}
		from = day.end
		m.slices = append(m.slices, s)
	}
	m.sweeps = w.sweeps.samples()[sweepFrom:]
	if w.requestLikes != nil {
		m.requestLikes = w.requestLikes.samples()[reqFrom:]
	}
	return m
}

// check adds the milk correctness checks for one world and window.
func (w *milkWorld) check(res *result, m milkWindow, seed int64) {
	all := w.driver.tally()
	res.checkf(all.mismatched == 0, "%d milk rounds delivered a count other than the crawled likers or LikeCount", all.mismatched)
	res.checkf(all.failed == 0, "%d milk rounds failed unexpectedly (first: %v)", all.failed, w.driver.firstErr)
	res.checkf(m.tally.delivered == m.delivered,
		"honeypots saw %d likes delivered, collusion networks counted %d", m.tally.delivered, m.delivered)
	if want, ok := milkPinnedWarmup[seed]; ok {
		res.checkf(w.warmup.delivered == want, "warm-up delivered %d likes, pinned %d for seed %d", w.warmup.delivered, want, seed)
	}
	res.infof("warm-up: %d rounds, %d likes delivered, %d refusals", milkWarmupRounds, w.warmup.delivered, w.warmup.refused)
	res.infof("window: %d rounds, %d milk ops, %d likes delivered, %d refusals (daily cap, outage)",
		m.rounds, len(m.lat), m.tally.delivered, m.tally.refused)
}

func runMilk(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceMilk(cfg)
	}
	res := &result{metrics: newTable(endToEndMetrics)}
	var setups []float64
	var win windowStats
	var slices []slice
	var campaigns int64
	var firstBytes float64
	host := newMachine()
	for win.wall < cfg.seconds || len(setups) < milkSetups {
		runtime.GC()
		host.sample()
		t0 := time.Now()
		w, err := buildMilk(cfg.seed, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if win.wall >= cfg.seconds {
			w.driver.stop() // an extra build for the setup median only
			continue
		}
		m := w.measure(func(elapsed time.Duration, rounds int) bool {
			return win.wall+elapsed < cfg.seconds && rounds < milkCampaignRounds
		})
		w.driver.stop()
		w.check(res, m, cfg.seed)
		win.add(m.win)
		slices = append(slices, m.slices...)
		res.attempted += int64(len(m.lat))
		res.failed += m.tally.failed
		campaigns++
		firstBytes = w.firstBytesPerOp
	}
	t := res.metrics
	t.set("setup_s", median(setups))
	q := quiet(slices)
	t.set("like_attempts_per_s", quietRate(q))
	info, err := reportLatency(t, q, slices)
	if err != nil {
		return nil, err
	}
	res.infof("%s; a slice is one simulated day, %d campaigns of up to %d days", info, campaigns, milkCampaignRounds/milkSweepEvery)
	host.scale(res, "like_attempts_per_s", "p50_ms")
	win.reportMemory(t, res.attempted)
	res.infof("first-round bytes/op %.0f (steady state: bytes_per_op below)", firstBytes)
	return res, nil
}

// traceMilk runs the same rounds twice from the same seed, untraced then
// traced, checks that both deliver identical counts, and reports the
// per-layer table from the traced pass.
func traceMilk(cfg runConfig) (*result, error) {
	a, err := buildMilk(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	ma := a.measure(func(elapsed time.Duration, rounds int) bool {
		return elapsed < cfg.seconds/2 && rounds < milkCampaignRounds
	})
	a.driver.stop()
	a = nil
	runtime.GC()

	b, err := buildMilk(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer b.driver.stop()
	mb := b.measure(func(_ time.Duration, rounds int) bool { return rounds < ma.rounds })

	res := &result{attempted: int64(len(mb.lat)), failed: mb.tally.failed, metrics: newTable(perLayerMetrics)}
	b.check(res, mb, cfg.seed)
	res.checkf(ma.tally == mb.tally && ma.attempted == mb.attempted && ma.delivered == mb.delivered,
		"traced and untraced passes differ: %+v/%d/%d vs %+v/%d/%d",
		ma.tally, ma.attempted, ma.delivered, mb.tally, mb.attempted, mb.delivered)

	t := res.metrics
	rounds := &boundary{d: mb.lat}
	rounds.report(t, "core.milk_round", "count", "busy_ms", "p99_us")
	(&boundary{d: mb.requestLikes}).report(t, "collusion.request_likes", "count", "busy_ms", "p50_us", "p99_us")
	t.set("core.milk_round.self_ms", ms(sum(mb.lat)-sum(mb.requestLikes)))
	t.set("core.milk_round.first_bytes_per_op", b.firstBytesPerOp)
	reportCollusion(t, mb.attempted, mb.delivered, mb.failures)
	reportStore(t, b.study.Scenario.Platform.Graph, mb.lockAcquired, mb.lockContended, res.attempted)
	(&boundary{d: mb.sweeps}).report(t, "socialgraph.retention_sweep", "count", "busy_ms", "max_ms")
	t.set("oauthsim.live_tokens", float64(b.study.Scenario.Platform.OAuth.LiveTokenCount()))
	lag, _ := percentile(sortedCopy(mb.lag), 0.99)
	t.set("workload.queue_wait_p99_us", us(lag))
	t.set("workload.error_rate", float64(mb.tally.failed)/float64(res.attempted))
	reportAllocGauges(t, b.study.Observer())
	reportRuntime(t, mb.win)
	t.set("trace.overhead_frac", float64(sum(mb.lat))/float64(sum(ma.lat))-1)
	t.set("trace.residual_ms", ms(time.Duration(milkWorkers)*mb.win.wall-sum(mb.lat)-sum(mb.sweeps)))
	res.infof("traced pass: %d rounds, same as the untraced pass", mb.rounds)
	return res, nil
}
