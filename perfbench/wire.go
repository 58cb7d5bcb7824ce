package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/oauthsim"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// wire: the Graph API over loopback HTTP, open loop. platform.HTTPClient
// on two connections sends a fixed-rate schedule of single likes, some
// deliberate duplicates (answered with the code-520 error envelope), some
// 50-op /batch likes and paged GET /{post}/likes reads to
// Platform.Handler() on a 127.0.0.1 listener. The unit operation is one
// client call; latency runs from its due time.
const (
	wireRate     = 2000.0 // arrivals per second
	wireWorkers  = 2      // client connections
	wireQueue    = 64
	wireSetups   = 5 // worlds built per run; setup_s is the median
	wireWarmup   = time.Second
	wireAccounts = 4000
	wireBatchOps = 50
	// Traffic targets a window of wireActive consecutive posts that moves
	// one post ahead every wireStride arrivals, so each post takes likes
	// for a while and then goes quiet: likes per post, and so the cost of
	// a paged read, stay level however long the run. wirePosts covers a
	// 60 s run.
	wirePosts  = 10000
	wireActive = 250
	wireStride = 20
	// Simulated time follows the schedule, and edge history older than
	// wireRetention is swept every wireSweep, so the store, the heap and
	// the garbage collector's work stay level through the run. A post
	// is active for wireActive×wireStride arrivals (2.5 s). A duplicate
	// repeats the latest single like, so it never meets an evicted one;
	// the check counts evicted likes beside the readable ones.
	wireRetention = 2500 * time.Millisecond
	wireSweep     = time.Second
	// Mix, per thousand arrivals; the rest are single likes.
	wireReadPermille  = 100
	wireDupPermille   = 30
	wireBatchPermille = 30
)

// wireOp kinds.
const (
	wireLike = iota
	wireDup
	wireBatch
	wireRead
)

// wireOp is one pre-generated arrival.
type wireOp struct {
	kind int
	post int
	// tok is the token index of a like, duplicate or read; a batch uses
	// batchToks.
	tok       int
	batchToks []int
}

// wireTok is the token index of the k-th like on post p: distinct for
// k < wireAccounts, so only deliberate duplicates repeat a pair.
func wireTok(p, k int) int { return (p*7919 + k) % wireAccounts }

// genWire generates n arrivals from seed.
func genWire(seed int64, n int) ([]wireOp, error) {
	rng := rand.New(rand.NewSource(seed))
	used := make([]int, wirePosts)
	ops := make([]wireOp, n)
	last := -1 // index of the latest single like, which a duplicate repeats
	for i := range ops {
		p := (i/wireStride + rng.Intn(wireActive)) % wirePosts
		// The mix is a fixed interleaving, the same for every seed, so
		// seeds vary which posts and tokens are used but not how much
		// work a run holds. 7919 is prime to 1000: every roll comes up
		// once per thousand arrivals.
		roll := i * 7919 % 1000
		switch {
		case roll < wireReadPermille:
			ops[i] = wireOp{kind: wireRead, post: p, tok: rng.Intn(wireAccounts)}
		case roll < wireReadPermille+wireDupPermille && last >= 0:
			ops[i] = wireOp{kind: wireDup, post: ops[last].post, tok: ops[last].tok}
		case roll < wireReadPermille+wireDupPermille+wireBatchPermille:
			op := wireOp{kind: wireBatch, post: p, batchToks: make([]int, wireBatchOps)}
			for j := range op.batchToks {
				op.batchToks[j] = wireTok(p, used[p])
				used[p]++
			}
			ops[i] = op
		default:
			ops[i] = wireOp{kind: wireLike, post: p, tok: wireTok(p, used[p])}
			used[p]++
			last = i
		}
		if used[p] > wireAccounts {
			return nil, fmt.Errorf("post %d needs more than %d distinct likers", p, wireAccounts)
		}
	}
	return ops, nil
}

// likes is how many like attempts op carries.
func (op wireOp) likes() int64 {
	switch op.kind {
	case wireLike, wireDup:
		return 1
	case wireBatch:
		return int64(len(op.batchToks))
	}
	return 0
}

// wireWorld is a platform served over loopback with its member tokens.
type wireWorld struct {
	clock    *simclock.Simulated
	epoch    time.Time
	p        *platform.Platform
	accounts []string
	tokens   []string
	posts    []string
	srv      *http.Server
	served   chan error
	client   *platform.HTTPClient
	handler  *tracedHandler // nil untraced
	// authorize times OAuth.Authorize during the build.
	authorize *boundary
}

func buildWire(traced bool) (*wireWorld, error) {
	epoch := time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSimulated(epoch)
	p := platform.New(clock, nil)
	p.Graph.SetRetentionWindow(wireRetention)
	app := p.Apps.Register(apps.Config{
		Name:              "perfbench-wire",
		RedirectURI:       "https://perfbench-wire.example/callback",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	w := &wireWorld{clock: clock, epoch: epoch, p: p, authorize: &boundary{}}
	for i := 0; i < wireAccounts; i++ {
		acct := p.Graph.CreateAccount(fmt.Sprintf("wire-member-%d", i), "US", clock.Now())
		t0 := time.Now()
		res, err := p.OAuth.Authorize(oauthsim.AuthorizeRequest{
			AppID:        app.ID,
			RedirectURI:  app.RedirectURI,
			ResponseType: oauthsim.ResponseToken,
			Scopes:       []string{apps.PermPublicProfile, apps.PermPublishActions},
			AccountID:    acct.ID,
		})
		if traced {
			w.authorize.observe(time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("authorize member %d: %w", i, err)
		}
		w.accounts = append(w.accounts, acct.ID)
		w.tokens = append(w.tokens, res.AccessToken)
	}
	for i := 0; i < wirePosts; i++ {
		post, err := p.Graph.CreatePost(w.accounts[i%wireAccounts], "wire post", socialgraph.WriteMeta{At: clock.Now()})
		if err != nil {
			return nil, fmt.Errorf("post %d: %w", i, err)
		}
		w.posts = append(w.posts, post.ID)
	}
	var h http.Handler = p.Handler()
	if traced {
		w.handler = newTracedHandler(h)
		h = w.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.client = platform.NewHTTPClient("http://" + ln.Addr().String())
	return w, nil
}

// close stops the server, waits for it, and drops the client's idle
// connections.
func (w *wireWorld) close() {
	_ = w.srv.Close() // the Serve error below reports how it ended
	<-w.served
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// wireOutcome is what one worker saw.
type wireOutcome struct {
	dup520  int64 // code-520 duplicate-like answers
	failed  int64
	firstEr error
	// applied lists the (post, token) pairs the platform accepted.
	applied [][2]int
}

// wireRun is one open-loop pass over the schedule.
type wireRun struct {
	timings []opTiming
	out     [wireWorkers]wireOutcome
	from    int // first arrival inside the measured window
	win     windowStats
	acq     int64
	con     int64
	sweeps  *sweeper
}

func (w *wireWorld) drive(ops []wireOp, from int) *wireRun {
	r := &wireRun{from: from}
	batches := make([][]platform.BatchLike, len(ops))
	for i, op := range ops {
		if op.kind == wireBatch {
			b := make([]platform.BatchLike, len(op.batchToks))
			for j, t := range op.batchToks {
				b[j] = platform.BatchLike{Token: w.tokens[t]}
			}
			batches[i] = b
		}
	}
	for k := range r.out {
		r.out[k].applied = make([][2]int, 0, 2*len(ops))
	}
	ctx := context.Background()
	var win *window
	var acq0, con0 int64
	start := time.Now()
	sw := startSweeper(w.p.Graph, w.epoch, start, wireSweep)
	r.timings = runOpenLoop(openLoopConfig{
		rate: wireRate, n: len(ops), workers: wireWorkers, queue: wireQueue, start: start,
		before: func(i int, due time.Duration) {
			w.clock.AdvanceTo(w.epoch.Add(due))
			sw.due(due)
			if i == from {
				if w.handler != nil {
					for _, b := range w.handler.classes {
						b.reset()
					}
				}
				acq0, con0 = w.p.Graph.Contention().Totals()
				win = openWindow()
			}
		},
	}, func(k, i int) {
		o := &r.out[k]
		op := ops[i]
		post := w.posts[op.post]
		switch op.kind {
		case wireLike, wireDup:
			err := w.client.Like(w.tokens[op.tok], post, "")
			switch {
			case err == nil:
				o.applied = append(o.applied, [2]int{op.post, op.tok})
			case platform.ErrorCode(err) == 520:
				o.dup520++
			default:
				o.fail(err)
			}
		case wireBatch:
			for j, err := range w.client.LikeBatch(ctx, post, batches[i]) {
				if err != nil {
					o.fail(err)
					continue
				}
				o.applied = append(o.applied, [2]int{op.post, op.batchToks[j]})
			}
		case wireRead:
			if _, err := w.client.LikesOf(w.tokens[op.tok], post); err != nil {
				o.fail(err)
			}
		}
	})
	r.win = win.close()
	sw.stop()
	r.sweeps = sw
	acq1, con1 := w.p.Graph.Contention().Totals()
	r.acq, r.con = acq1-acq0, con1-con0
	return r
}

func (o *wireOutcome) fail(err error) {
	o.failed++
	if o.firstEr == nil {
		o.firstEr = err
	}
}

func (r *wireRun) failed() (n int64, first error) {
	for _, o := range r.out {
		n += o.failed
		if first == nil {
			first = o.firstEr
		}
	}
	return n, first
}

// check verifies the pass: the likes readable by paging are accepted
// ones, and together with the likes retention evicted they are all of
// them; the 520 answers equal the duplicates sent.
func (w *wireWorld) check(res *result, ops []wireOp, r *wireRun) {
	var dups, dup520 int64
	for _, op := range ops {
		if op.kind == wireDup {
			dups++
		}
	}
	want := make([]map[string]bool, wirePosts)
	for i := range want {
		want[i] = map[string]bool{}
	}
	var accepted int64
	for _, o := range r.out {
		dup520 += o.dup520
		for _, a := range o.applied {
			want[a[0]][w.accounts[a[1]]] = true
		}
		accepted += int64(len(o.applied))
	}
	failed, first := r.failed()
	res.checkf(failed == 0, "%d wire operations failed (first: %v)", failed, first)
	res.checkf(dup520 == dups, "%d duplicate likes sent, %d code-520 answers", dups, dup520)
	var readable int64
	for p, post := range w.posts {
		if len(want[p]) == 0 && p > len(ops)/wireStride+wireActive {
			break // past the last post the schedule reached
		}
		recs, err := w.client.LikesOf(w.tokens[0], post)
		if err != nil {
			res.checkf(false, "paging likes of post %d: %v", p, err)
			return
		}
		seen := map[string]bool{}
		for _, rec := range recs {
			if !want[p][rec.AccountID] || seen[rec.AccountID] {
				res.checkf(false, "post %d: like by %s readable but not accepted, or listed twice", p, rec.AccountID)
				return
			}
			seen[rec.AccountID] = true
		}
		readable += int64(len(recs))
	}
	res.checkf(readable+r.sweeps.evicted == accepted,
		"likes readable by paging %d + evicted %d, accepted %d", readable, r.sweeps.evicted, accepted)
	res.infof("%d likes accepted: %d readable by paging, %d evicted by %d retention sweeps; %d duplicates answered 520",
		accepted, readable, r.sweeps.evicted, len(r.sweeps.spans), dup520)
}

// window returns the measured arrivals as one-second slices of the
// schedule, each ranked by the time its calls took to serve, and the like
// attempts they carry.
func (r *wireRun) window(ops []wireOp) (slices []slice, likes int64) {
	t := r.timings[r.from:]
	for _, op := range ops[r.from:] {
		likes += op.likes()
	}
	per := int(wireRate)
	for i := 0; i+per <= len(t); i += per {
		part := t[i : i+per]
		slices = append(slices, slice{
			lat:  latencySet(part, opTiming.latency),
			cost: sum(latencySet(part, opTiming.service)),
		})
	}
	return slices, likes
}

func wireSchedule(seed int64, seconds time.Duration) ([]wireOp, int, error) {
	from := int(wireRate * wireWarmup.Seconds())
	ops, err := genWire(seed, from+int(wireRate*seconds.Seconds()))
	return ops, from, err
}

func runWire(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceWire(cfg)
	}
	ops, from, err := wireSchedule(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	w, build, err := timedSetups(wireSetups, nil, func() (*wireWorld, error) { return buildWire(false) }, (*wireWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := w.drive(ops, from)

	slices, likes := r.window(ops)
	failed, _ := r.failed()
	res := &result{attempted: int64(len(ops) - from), failed: failed, metrics: newTable(endToEndMetrics)}
	t := res.metrics
	t.set("setup_s", build+r.timings[from].due.Seconds())
	// The offered rate is fixed, so throughput is taken over the whole
	// window; only the latencies come from the quiet slices.
	t.set("like_attempts_per_s", float64(likes)/r.win.wall.Seconds())
	info, err := reportLatency(t, quiet(slices), slices)
	if err != nil {
		return nil, err
	}
	res.infof("%s; a slice is one second of the schedule", info)
	res.infof("open loop: %.0f arrivals/s on %d connections, %d arrivals after %v warm-up", wireRate, wireWorkers, res.attempted, wireWarmup)
	r.win.reportMemory(t, res.attempted)
	w.check(res, ops, r)
	return res, nil
}

// traceWire drives the schedule untraced, then traced on a fresh world,
// checks both accepted the same likes, and reports the per-layer table.
func traceWire(cfg runConfig) (*result, error) {
	ops, from, err := wireSchedule(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	a, err := buildWire(false)
	if err != nil {
		return nil, err
	}
	ra := a.drive(ops, from)
	a.close()
	a = nil
	runtime.GC()
	b, err := buildWire(true)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rb := b.drive(ops, from)

	failed, _ := rb.failed()
	res := &result{attempted: int64(len(ops) - from), failed: failed, metrics: newTable(perLayerMetrics)}
	t := res.metrics
	// Report the server side before the correctness check's reads land
	// in the handler's likes_read class.
	for _, c := range httpClasses {
		b.handler.classes[c].report(t, "graphapi.http."+c, "count", "busy_ms", "p50_us", "p99_us")
	}
	serverLike, _ := percentile(sortedCopy(b.handler.classes["like"].samples()), 0.5)
	b.check(res, ops, rb)
	count := func(r *wireRun) (applied, dup520 int) {
		for _, o := range r.out {
			applied += len(o.applied)
			dup520 += int(o.dup520)
		}
		return
	}
	aa, ad := count(ra)
	ba, bdup := count(rb)
	res.checkf(aa == ba && ad == bdup, "untraced pass applied %d likes and answered %d 520s, traced %d and %d", aa, ad, ba, bdup)

	b.authorize.report(t, "oauthsim.authorize", "count", "busy_ms")
	t.set("oauthsim.live_tokens", float64(b.p.OAuth.LiveTokenCount()))
	client := map[string]*boundary{}
	for _, c := range clientOps {
		client[c] = &boundary{}
	}
	for i, tm := range rb.timings[from:] {
		switch ops[from+i].kind {
		case wireLike, wireDup:
			client["like"].d = append(client["like"].d, tm.service())
		case wireBatch:
			client["like_batch"].d = append(client["like_batch"].d, tm.service())
		case wireRead:
			client["likes_of"].d = append(client["likes_of"].d, tm.service())
		}
	}
	for _, c := range clientOps {
		client[c].report(t, "platform.http_client."+c, "p50_us", "p99_us")
	}
	clientLike, _ := percentile(sortedCopy(client["like"].d), 0.5)
	t.set("platform.wire_overhead_us", us(clientLike-serverLike))
	reportStore(t, b.p.Graph, rb.acq, rb.con, res.attempted)
	var dups, sent int64
	for _, op := range ops {
		if op.kind == wireDup {
			dups++
		}
		sent += op.likes()
	}
	t.set("socialgraph.dup_like_frac", float64(dups)/float64(sent))
	(&boundary{d: rb.sweeps.durations()}).report(t, "socialgraph.retention_sweep", "count", "busy_ms", "max_ms")
	t.set("socialgraph.sweep_stall_ops", float64(rb.sweeps.stalled(rb.timings[from:])))
	qw, _ := percentile(sortedCopy(latencySet(rb.timings[from:], opTiming.queueWait)), 0.99)
	t.set("workload.queue_wait_p99_us", us(qw))
	lag, _ := percentile(sortedCopy(latencySet(rb.timings[from:], opTiming.lag)), 0.99)
	t.set("workload.lag_p99_us", us(lag))
	t.set("workload.error_rate", float64(failed)/float64(res.attempted))
	reportAllocGauges(t, b.p.Obs)
	reportRuntime(t, rb.win)
	svcA := sum(latencySet(ra.timings[from:], opTiming.service))
	svcB := sum(latencySet(rb.timings[from:], opTiming.service))
	t.set("trace.overhead_frac", float64(svcB)/float64(svcA)-1)
	t.set("trace.residual_ms", ms(time.Duration(wireWorkers)*rb.win.wall-svcB))
	res.infof("untraced and traced passes: %d arrivals each at %.0f/s", len(ops), wireRate)
	return res, nil
}
