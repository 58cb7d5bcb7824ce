package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// `repro bench` is the benchmark trajectory harness: it runs the repo's
// Benchmark* wall under controlled iteration counts, parses the standard
// `go test -bench` output, and emits a schema-versioned JSON file — one
// point on the performance trajectory the allocation-free-hot-path work
// is judged against. `-compare old.json` diffs two points and exits
// nonzero when ns/op or allocs/op regress past the threshold, which is
// what the CI bench-trajectory job and local A/B runs both key off.

// benchSchema versions the trajectory file format. Bump on any
// incompatible change; -compare refuses files from another schema.
const benchSchema = "repro-bench/1"

// BenchResult is one benchmark's aggregated measurements. With -count>1
// the values are means over the runs.
type BenchResult struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"` // custom b.ReportMetric units
}

// BenchFile is the trajectory file `repro bench` emits.
type BenchFile struct {
	Schema     string        `json:"schema"`
	Generated  string        `json:"generated"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchtime  string        `json:"benchtime"`
	Count      int           `json:"count"`
	Pattern    string        `json:"pattern"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	pattern := fs.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime value (fixed -Nx iterations keep trajectory points comparable)")
	count := fs.Int("count", 1, "runs per benchmark; results are averaged")
	pkg := fs.String("pkg", ".", "package holding the benchmarks")
	timeout := fs.Duration("timeout", 20*time.Minute, "go test timeout")
	out := fs.String("out", "bench-trajectory.json", "output trajectory file")
	input := fs.String("input", "", "parse an existing trajectory file instead of running benchmarks (for -compare)")
	compare := fs.String("compare", "", "baseline trajectory file to diff against")
	threshold := fs.Float64("threshold", 20, "regression threshold in percent on ns/op for -compare (and allocs/op unless -allocs-threshold is set)")
	allocsThreshold := fs.Float64("allocs-threshold", -1, "regression threshold in percent on allocs/op for -compare; -1 inherits -threshold (allocs/op is deterministic, so CI pins it far tighter than the noisy ns/op bound)")
	fs.Parse(args)
	if *allocsThreshold < 0 {
		*allocsThreshold = *threshold
	}

	var file BenchFile
	if *input != "" {
		f, err := loadBenchFile(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro bench: %v\n", err)
			os.Exit(1)
		}
		file = f
	} else {
		results, err := execBenchmarks(*pkg, *pattern, *benchtime, *count, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro bench: %v\n", err)
			os.Exit(1)
		}
		if len(results) == 0 {
			fmt.Fprintf(os.Stderr, "repro bench: no benchmarks matched %q in %s\n", *pattern, *pkg)
			os.Exit(1)
		}
		file = BenchFile{
			Schema:     benchSchema,
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Benchtime:  *benchtime,
			Count:      *count,
			Pattern:    *pattern,
			Benchmarks: results,
		}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "repro bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d benchmarks (%s, -benchtime %s, -count %d)\n",
			*out, len(file.Benchmarks), file.GoVersion, *benchtime, *count)
	}

	if *compare == "" {
		return
	}
	base, err := loadBenchFile(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro bench: %v\n", err)
		os.Exit(1)
	}
	if regressions := printComparison(os.Stdout, base, file, *threshold, *allocsThreshold); regressions > 0 {
		fmt.Fprintf(os.Stderr, "repro bench: %d benchmark(s) regressed past %.0f%% ns/op or %.0f%% allocs/op vs %s\n",
			regressions, *threshold, *allocsThreshold, *compare)
		os.Exit(1)
	}
}

// execBenchmarks shells out to the go toolchain (the benchmarks live in
// _test.go files, unreachable from a binary) and parses its output.
func execBenchmarks(pkg, pattern, benchtime string, count int, timeout time.Duration) ([]BenchResult, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count),
		"-timeout", timeout.String(), pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	acc := make(map[string]*BenchResult)
	var order []string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // keep the familiar live output
		r, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if prev, seen := acc[r.Name]; seen {
			mergeBenchResult(prev, r)
		} else {
			cp := r
			acc[r.Name] = &cp
			order = append(order, r.Name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	results := make([]BenchResult, 0, len(order))
	for _, name := range order {
		r := *acc[name]
		if r.Runs > 1 {
			n := float64(r.Runs)
			r.NsPerOp /= n
			r.BytesPerOp /= n
			r.AllocsPerOp /= n
			for k := range r.Extra {
				r.Extra[k] /= n
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkAddLikeBatch-4   1000  23500 ns/op  1024 B/op  12 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the name so trajectory files
// from differently-sized machines still align.
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	r := BenchResult{Name: name, Runs: 1, Iterations: iters}
	parsed := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			parsed = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, parsed
}

// mergeBenchResult accumulates a repeat run (-count>1) into prev; the
// final averaging happens once all lines are in.
func mergeBenchResult(prev *BenchResult, r BenchResult) {
	prev.Runs++
	prev.Iterations += r.Iterations
	prev.NsPerOp += r.NsPerOp
	prev.BytesPerOp += r.BytesPerOp
	prev.AllocsPerOp += r.AllocsPerOp
	for k, v := range r.Extra {
		if prev.Extra == nil {
			prev.Extra = make(map[string]float64)
		}
		prev.Extra[k] += v
	}
}

func loadBenchFile(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchSchema)
	}
	return f, nil
}

// printComparison renders per-benchmark deltas (new vs base) and returns
// how many benchmarks regressed past nsThreshold percent on ns/op or
// allocsThreshold percent on allocs/op. The two bounds are separate
// because the two series are not equally noisy: ns/op swings with the
// runner while allocs/op is a property of the code, so CI holds it to a
// few percent. Benchmarks present on only one side are listed but never
// count as regressions — the trajectory grows as the repo does.
func printComparison(w *os.File, base, next BenchFile, nsThreshold, allocsThreshold float64) int {
	baseBy := make(map[string]BenchResult, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	names := make([]string, 0, len(next.Benchmarks))
	for _, r := range next.Benchmarks {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	nextBy := make(map[string]BenchResult, len(next.Benchmarks))
	for _, r := range next.Benchmarks {
		nextBy[r.Name] = r
	}

	regressions := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s %10s\n", "benchmark", "base ns/op", "new ns/op", "Δns", "Δallocs")
	for _, name := range names {
		nr := nextBy[name]
		br, ok := baseBy[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s %10s\n", name, "(new)", nr.NsPerOp, "-", "-")
			continue
		}
		dns := pctDelta(br.NsPerOp, nr.NsPerOp)
		dallocs := pctDelta(br.AllocsPerOp, nr.AllocsPerOp)
		mark := ""
		if dns > nsThreshold || dallocs > allocsThreshold {
			regressions++
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %7.1f%% %9.1f%%%s\n",
			name, br.NsPerOp, nr.NsPerOp, dns, dallocs, mark)
	}
	for name := range baseBy {
		if _, ok := nextBy[name]; !ok {
			fmt.Fprintf(w, "%-44s %14s %14s %8s %10s\n", name, "(removed)", "-", "-", "-")
		}
	}
	return regressions
}

// pctDelta is the percent change from base to next; a zero base with a
// nonzero next reads as +100% (something appeared where nothing was).
func pctDelta(base, next float64) float64 {
	if base == 0 {
		if next == 0 {
			return 0
		}
		return 100
	}
	return (next - base) / base * 100
}
