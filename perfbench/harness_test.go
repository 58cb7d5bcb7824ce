package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func ladder(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // descending: percentile must not rely on input order
	}
	return sortedCopy(out)
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{20, 0.50, 10 * time.Millisecond},
		{100, 0.50, 50 * time.Millisecond},
		{101, 0.50, 51 * time.Millisecond}, // rank ceil(50.5) = 51
		{100, 0.90, 90 * time.Millisecond},
		{1000, 0.99, 990 * time.Millisecond},
		{1001, 0.99, 991 * time.Millisecond}, // rank ceil(990.99) = 991
	}
	for _, c := range cases {
		got, err := percentile(ladder(c.n), c.q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", c.q*100, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%g of 1..%d ms = %v, want %v", c.q*100, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, err := percentile(ladder(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted; need at least 1,000")
	}
	if _, err := percentile(ladder(1000), 0.99); err != nil {
		t.Errorf("p99 of 1,000 samples refused: %v", err)
	}
	if _, err := percentile(ladder(19), 0.50); err == nil {
		t.Error("p50 of 19 samples accepted; need at least 20")
	}
	s := []slice{{lat: ladder(999)}}
	if _, err := reportLatency(newTable(endToEndMetrics), s, s); err == nil {
		t.Error("a run with 999 latency samples was reported; it needs at least 1,000")
	}
}

func TestQuietKeepsFastestQuarterOfEachPosition(t *testing.T) {
	var all []slice
	for pos := 0; pos < 2; pos++ {
		for rep := 8; rep >= 1; rep-- {
			d := time.Duration(rep) * time.Second
			all = append(all, slice{pos: pos, wall: d, cost: d, likes: 100})
		}
	}
	all = append(all, slice{pos: 2, wall: time.Second, cost: time.Second, likes: 7})
	q := quiet(all)
	var got []string
	for _, s := range q {
		got = append(got, fmt.Sprintf("%d:%v", s.pos, s.cost))
	}
	want := "0:1s 0:2s 1:1s 1:2s 2:1s"
	if strings.Join(got, " ") != want {
		t.Errorf("quiet slices %v, want %s", got, want)
	}
	if r := quietRate(q); r != 407.0/7 {
		t.Errorf("quietRate = %v, want %v", r, 407.0/7)
	}
}

func TestMachineScaleRescalesRatesAndTimes(t *testing.T) {
	m := &machine{samples: []time.Duration{2 * refNominal, 3 * refNominal, 2 * refNominal}}
	res := &result{metrics: newTable(endToEndMetrics)}
	res.metrics.set("like_attempts_per_s", 100)
	res.metrics.set("p50_ms", 4)
	res.metrics.set("setup_s", 1)
	m.scale(res, "like_attempts_per_s", "p50_ms")
	for name, want := range map[string]float64{"like_attempts_per_s": 200, "p50_ms": 2, "setup_s": 1} {
		if got := res.metrics.v[name]; got != want {
			t.Errorf("%s = %v after a slowdown of 2, want %v", name, got, want)
		}
	}
	if !strings.Contains(strings.Join(res.info, "\n"), "p50_ms unscaled 4 ms") {
		t.Errorf("unscaled p50 not printed: %q", res.info)
	}
}

func TestMachineReferenceAllocatesNothing(t *testing.T) {
	m := newMachine()
	if n := testing.AllocsPerRun(3, func() { m.reference() }); n != 0 {
		t.Errorf("reference loop allocates %v times per run; it must not touch the heap", n)
	}
}

// openLoopTails runs a 2,000-arrival schedule on one worker with a short
// queue; with stall set, arrival 500 holds the worker for 100ms.
func openLoopTails(t *testing.T, stall bool) (p99, lag99 time.Duration) {
	t.Helper()
	timings := runOpenLoop(openLoopConfig{rate: 2000, n: 2000, workers: 1, queue: 8}, func(_, i int) {
		if stall && i == 500 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	p99, err := percentile(sortedCopy(latencySet(timings, opTiming.latency)), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	lag99, err = percentile(sortedCopy(latencySet(timings, opTiming.lag)), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return p99, lag99
}

func TestOpenLoopStallRaisesLaterLatencyAndLag(t *testing.T) {
	baseP99, baseLag := openLoopTails(t, false)
	p99, lag := openLoopTails(t, true)
	// The stall delays ~200 later arrivals (10% of the schedule), so both
	// tails must carry most of its 100ms.
	if p99-baseP99 < 50*time.Millisecond {
		t.Errorf("p99 %v with a 100ms stall, %v without: later operations not timed from their due time", p99, baseP99)
	}
	if lag-baseLag < 50*time.Millisecond {
		t.Errorf("lag p99 %v with a 100ms stall, %v without: generator lateness not reported", lag, baseLag)
	}
}

var sink any

func TestWindowExcludesSetupAllocations(t *testing.T) {
	const ops = 10000
	world, _, err := timedSetups(3, nil, func() ([][]byte, error) {
		w := make([][]byte, 0, 50000) // set-up and warm-up: many allocations
		for i := 0; i < 50000; i++ {
			w = append(w, make([]byte, 256))
		}
		return w, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink = world

	win := openWindow()
	for i := 0; i < ops; i++ {
		sink = new([64]byte) // exactly one 64-byte allocation per op
	}
	st := win.close()
	t0 := newTable(endToEndMetrics)
	st.reportMemory(t0, ops)
	if a := t0.v["allocs_per_op"]; a < 1 || a > 1.1 {
		t.Errorf("allocs_per_op = %.3f, want 1 (set-up allocations leaked into the window?)", a)
	}
	if b := t0.v["bytes_per_op"]; b < 64 || b > 80 {
		t.Errorf("bytes_per_op = %.1f, want 64", b)
	}
	if t0.v["heap_peak_mib"] <= 0 {
		t.Error("heap_peak_mib not measured")
	}
}

// fakeSite records which honeypot.Site methods reached it.
type fakeSite struct{ calls []string }

func (f *fakeSite) Name() string { f.calls = append(f.calls, "Name"); return "fake" }
func (f *fakeSite) SubmitToken(string, string) error {
	f.calls = append(f.calls, "SubmitToken")
	return nil
}
func (f *fakeSite) Challenge(string) string { f.calls = append(f.calls, "Challenge"); return "1+1=" }
func (f *fakeSite) RequestLikes(string, string, string) (int, error) {
	f.calls = append(f.calls, "RequestLikes")
	return 7, nil
}
func (f *fakeSite) RequestComments(string, string, string) (int, error) {
	f.calls = append(f.calls, "RequestComments")
	return 3, errors.New("no comments")
}
func (f *fakeSite) CompleteAdWall(string) error {
	f.calls = append(f.calls, "CompleteAdWall")
	return nil
}

func TestTracedSiteForwardsEveryMethod(t *testing.T) {
	f := &fakeSite{}
	s := &tracedSite{next: f, requestLikes: &boundary{}}
	if s.Name() != "fake" || s.SubmitToken("a", "t") != nil || s.Challenge("a") != "1+1=" || s.CompleteAdWall("a") != nil {
		t.Fatal("forwarded results differ")
	}
	if n, err := s.RequestLikes("a", "p", ""); n != 7 || err != nil {
		t.Fatalf("RequestLikes = %d, %v", n, err)
	}
	if n, err := s.RequestComments("a", "p", ""); n != 3 || err == nil {
		t.Fatalf("RequestComments = %d, %v", n, err)
	}
	want := "Name SubmitToken Challenge CompleteAdWall RequestLikes RequestComments"
	if got := strings.Join(f.calls, " "); got != want {
		t.Errorf("calls reaching the site: %s; want %s", got, want)
	}
	if len(s.requestLikes.samples()) != 1 {
		t.Errorf("RequestLikes timed %d times, want 1", len(s.requestLikes.samples()))
	}
}

func TestTracedHandlerForwardsOptionalInterfaces(t *testing.T) {
	hijacked := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, flusher := w.(http.Flusher)
		_, hijacker := w.(http.Hijacker)
		_, readerFrom := w.(io.ReaderFrom)
		if !flusher || !hijacker || !readerFrom {
			t.Errorf("decorated writer: Flusher %v, Hijacker %v, ReaderFrom %v", flusher, hijacker, readerFrom)
		}
		switch r.URL.Path {
		case "/flush":
			if err := http.NewResponseController(w).Flush(); err != nil {
				t.Errorf("ResponseController.Flush through the decorator: %v", err)
			}
			return
		case "/hijack":
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("Hijack: %v", err)
				return
			}
			_, _ = buf.WriteString("HTTP/1.1 204 No Content\r\n\r\n")
			_ = buf.Flush()
			conn.Close()
			close(hijacked)
			return
		}
		w.WriteHeader(http.StatusBadRequest)
	})
	h := newTracedHandler(inner)
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/123/likes", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400 passed through", resp.StatusCode)
	}
	if n := len(h.classes["error"].samples()); n != 1 {
		t.Errorf("error class saw %d requests, want 1", n)
	}
	resp, err = http.Get(srv.URL + "/flush")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _ = conn.Write([]byte("GET /hijack HTTP/1.1\r\nHost: x\r\n\r\n"))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "204") {
		t.Errorf("hijacked response %q, %v", line, err)
	}
	select {
	case <-hijacked:
	case <-time.After(10 * time.Second):
		t.Error("hijack path not reached")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
