package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1,000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted,
// which must be in ascending order. It refuses when fewer than minTail
// samples would lie beyond the quantile, so a p99 needs ≥1,000 samples.
func percentile(sorted []time.Duration, q float64) (time.Duration, error) {
	n := len(sorted)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0,1)", q)
	}
	if float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("percentile: p%g needs %d samples, have %d",
			q*100, int(math.Ceil(minTail/(1-q)-1e-9)), n)
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], nil
}

// sortedCopy returns the durations in ascending order without touching d.
func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of v (the mean of the middle pair for even
// lengths), or 0 for an empty slice. v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window measures one timed stretch: wall time, heap allocations (from
// runtime.MemStats, so the counts include the tiny allocator), GC work,
// and peak HeapInuse sampled in the background. Everything allocated
// before open — world construction, warm-up, first-use pool fill — stays
// out of its per-op figures.
type window struct {
	start time.Time
	ms0   runtime.MemStats
	stop  chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

// heapSampleEvery is the HeapInuse sampling period.
const heapSampleEvery = 5 * time.Millisecond

func openWindow() *window {
	w := &window{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.ms0)
	w.peak = w.ms0.HeapInuse
	w.done.Add(1)
	go w.sampleHeap()
	w.start = time.Now()
	return w
}

// sampleHeap tracks peak HeapInuse (heap object bytes plus the unused
// part of in-use spans) through runtime/metrics, which does not stop the
// world the way ReadMemStats does.
func (w *window) sampleHeap() {
	defer w.done.Done()
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > w.peak {
				w.peak = v
			}
		}
	}
}

// windowStats is a closed window's measurements. Windows of one run can
// be merged (countermeasures measures one window per timeline).
type windowStats struct {
	wall         time.Duration
	mallocs      uint64
	allocBytes   uint64
	heapPeak     uint64
	heapAtOpen   uint64
	gcCycles     float64
	gcPauseTotal time.Duration
}

// close ends the window.
func (w *window) close() windowStats {
	wall := time.Since(w.start)
	close(w.stop)
	w.done.Wait()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	peak := w.peak
	if ms1.HeapInuse > peak {
		peak = ms1.HeapInuse
	}
	return windowStats{
		wall:         wall,
		mallocs:      ms1.Mallocs - w.ms0.Mallocs,
		allocBytes:   ms1.TotalAlloc - w.ms0.TotalAlloc,
		heapPeak:     peak,
		heapAtOpen:   w.ms0.HeapInuse,
		gcCycles:     float64(ms1.NumGC - w.ms0.NumGC),
		gcPauseTotal: time.Duration(ms1.PauseTotalNs - w.ms0.PauseTotalNs),
	}
}

// add merges another window into s.
func (s *windowStats) add(o windowStats) {
	s.wall += o.wall
	s.mallocs += o.mallocs
	s.allocBytes += o.allocBytes
	if o.heapPeak > s.heapPeak {
		s.heapPeak = o.heapPeak
	}
	s.gcCycles += o.gcCycles
	s.gcPauseTotal += o.gcPauseTotal
}

// reportMemory sets the allocation and heap end-to-end metrics for ops
// unit operations.
func (s windowStats) reportMemory(t *table, ops int64) {
	if ops > 0 {
		t.set("allocs_per_op", float64(s.mallocs)/float64(ops))
		t.set("bytes_per_op", float64(s.allocBytes)/float64(ops))
	}
	t.set("heap_peak_mib", float64(s.heapPeak)/(1<<20))
}

// timedSetups runs build n times and returns the median wall
// time together with the last build's world. Each earlier world is
// released with drop (nil: nothing to release) and collected before the
// next build, so every build starts from a comparable heap; host, if not
// nil, samples the host's speed there.
func timedSetups[T any](n int, host *machine, build func() (T, error), drop func(T)) (T, float64, error) {
	var world T
	var secs []float64
	for i := 0; i < n; i++ {
		var zero T
		if i > 0 && drop != nil {
			drop(world)
		}
		world = zero
		runtime.GC()
		host.sample()
		t0 := time.Now()
		w, err := build()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		world = w
	}
	return world, median(secs), nil
}

// A slice is one stretch of a measured window: how long it took, the like
// attempts decided in it and its unit operations' latencies. Closed loops
// repeat one piece of work (a milk campaign, a Figure 5 timeline) and pos
// says where in that work the slice lies, so slices with the same pos did
// the same work; an open loop's slices are all alike and share pos 0.
type slice struct {
	pos   int
	wall  time.Duration
	cost  time.Duration // ranking key: time the slice's work took
	likes int64
	lat   []time.Duration
}

// quietShare is the share of each position's slices that the timing
// metrics are computed over: the fastest ones.
const quietShare = 0.25

// quiet returns, for each position, the quietShare of its slices (at
// least one) with the lowest cost.
//
// The benchmark runs on a few cores of a shared host. Other tenants slow
// stretches of a run down by a third or more for seconds at a time, and
// the process's CPU time grows with its wall time then, so this is not
// steal time that could be subtracted. The fastest stretches of each
// position, though, repeat from run to run within a few percent: timing
// over them measures the program rather than its neighbours.
//
// A milk day that holds a garbage collection takes about a third longer
// than one that does not, so the quiet slices hold fewer collections than
// the average slice: the timing metrics undercount collection cost, and
// allocs_per_op and bytes_per_op carry it instead.
func quiet(all []slice) []slice {
	byPos := map[int][]slice{}
	var positions []int
	for _, s := range all {
		if _, ok := byPos[s.pos]; !ok {
			positions = append(positions, s.pos)
		}
		byPos[s.pos] = append(byPos[s.pos], s)
	}
	sort.Ints(positions)
	var out []slice
	for _, p := range positions {
		g := byPos[p]
		sort.SliceStable(g, func(i, j int) bool { return g[i].cost < g[j].cost })
		out = append(out, g[:int(math.Ceil(quietShare*float64(len(g))))]...)
	}
	return out
}

// quietRate is the like attempts per wall second over slices.
func quietRate(q []slice) float64 {
	var likes int64
	var wall time.Duration
	for _, s := range q {
		likes += s.likes
		wall += s.wall
	}
	return float64(likes) / wall.Seconds()
}

// reportLatency sets p50_ms over the unit operations of the quiet slices
// q, out of all, and returns an info line with the sample count and their
// p99. It refuses fewer than 1,000 samples: the p99 would have fewer than
// ten beyond it. The p99 is printed, not reported as a metric: on a
// shared host it is set by whether a garbage collection or a neighbour's
// burst lands in the quiet slices, and it spread by a quarter of its
// median between runs of the same code. The per-layer run reports each
// boundary's p99.
func reportLatency(t *table, q, all []slice) (string, error) {
	var lat []time.Duration
	total := 0
	for _, s := range q {
		lat = append(lat, s.lat...)
	}
	for _, s := range all {
		total += len(s.lat)
	}
	sorted := sortedCopy(lat)
	p50, err := percentile(sorted, 0.50)
	if err != nil {
		return "", err
	}
	p99, err := percentile(sorted, 0.99)
	if err != nil {
		return "", err
	}
	t.set("p50_ms", ms(p50))
	return fmt.Sprintf("latency samples: %d in the quietest %d of %d slices (%d in the window), p99 %.3f ms",
		len(lat), len(q), len(all), total, ms(p99)), nil
}

// refNominal is the reference loop's time on the host that scaled times
// refer to: about its time on the 2-CPU machine the benchmark was tuned
// on, so scaled and unscaled values there are alike.
const refNominal = 2500 * time.Microsecond

// A machine samples how fast the host runs a fixed reference loop. The
// benchmark runs on a few cores of a shared host whose speed drifts by a
// quarter and more over minutes as other tenants come and go; a run's
// program times drift with it, and so do the reference loop's. Dividing
// the program's times by the reference's slowdown cancels much of the
// drift: over ten milk seeds it cut the spread (interquartile range over
// median) of like_attempts_per_s from 6.2% to 3.9% and of p50_ms from
// 8.4% to 3.7%; over ten countermeasures seeds, from 13% to 10% and from
// 7.5% to 6.1%.
//
// Only the closed loops are rescaled. The open loop (wire) is sampled only
// around its set-up, before its window, and those samples did not follow
// the window: rescaled, its p50 spread by 26% over ten seeds, unscaled by
// 3%.
//
// The loop allocates nothing and is sampled only while the process is
// otherwise idle (after a forced collection, before a world is built), so
// nothing the program does can slow it: a program change moves the
// program's times and leaves the reference alone.
type machine struct {
	table, buf []uint64
	samples    []time.Duration
}

func newMachine() *machine {
	return &machine{table: make([]uint64, 1<<20), buf: make([]uint64, 1<<14)}
}

// sample times the reference loop three times and keeps the fastest. A nil
// machine samples nothing.
func (m *machine) sample() {
	if m == nil {
		return
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		if d := m.reference(); d < best {
			best = d
		}
	}
	m.samples = append(m.samples, best)
}

// reference is 200k random read-modify-writes over an 8 MiB table (a cache
// footprint like the program's) and a sort of 16k integers.
func (m *machine) reference() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(m.table) - 1)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.table[x&mask] += x
	}
	for i := range m.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.buf[i] = x
	}
	slices.Sort(m.buf)
	return time.Since(t0)
}

// scale rescales the named metrics to the reference host: a rate (1/s)
// is multiplied by the run's slowdown, a time divided by it. The slowdown
// is the median reference time over refNominal. The unscaled values are
// printed.
func (m *machine) scale(res *result, names ...string) {
	var secs []float64
	for _, d := range m.samples {
		secs = append(secs, d.Seconds())
	}
	slow := median(secs) / refNominal.Seconds()
	t := res.metrics
	for _, d := range t.defs {
		if !slices.Contains(names, d.name) {
			continue
		}
		raw := t.v[d.name]
		if d.unit == "1/s" {
			t.set(d.name, raw*slow)
		} else {
			t.set(d.name, raw/slow)
		}
		res.infof("%s unscaled %.6g %s", d.name, raw, d.unit)
	}
	res.infof("host slowdown %.4f: median reference loop %.3f ms of %v nominal, %d samples", slow, median(secs)*1000, refNominal, len(secs))
}
