// Command perfbench is the repository's end-to-end benchmark. It builds a
// workload's world from a seed, drives it for a fixed wall-clock window
// through the program's public packages, checks that the outputs are
// correct, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run is instead traced at the layer boundaries and prints the per-layer
// set. See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// result is one workload run's outcome.
type result struct {
	attempted int64 // unit operations in the measured window
	failed    int64 // unexpected failures among them
	metrics   *table
	// problems lists failed correctness checks; empty means correct.
	problems []string
	// info lines are printed above the metric table.
	info []string
}

func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workloads maps --workload names to their drivers.
var workloads = map[string]func(runConfig) (*result, error){
	"milk":            runMilk,
	"countermeasures": runCountermeasures,
	"wire":            runWire,
}

func main() {
	name := flag.String("workload", "", "workload: milk, countermeasures or wire")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window in wall seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, ","))
		os.Exit(2)
	}
	res, err := run(runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, *name, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.problems) > 0 {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
		}
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult writes the human-readable table, then the JSON line.
func printResult(w *os.File, name string, res *result) error {
	if res.attempted < 1 {
		return errors.New("no operations attempted")
	}
	fmt.Fprintf(w, "workload %s\n", name)
	for _, line := range res.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	out := jsonResult{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(res.metrics.defs)),
	}
	for _, d := range res.metrics.defs {
		v := res.metrics.v[d.name]
		fmt.Fprintf(w, "  %-44s %14.6g %-8s %s\n", d.name, v, d.unit, res.metrics.notes[d.name])
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
