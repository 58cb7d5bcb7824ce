// Command repro regenerates the paper's tables and figures from live
// simulation runs.
//
// Usage:
//
//	repro -exp table4              # one experiment
//	repro -exp table1,figure5      # several
//	repro -exp all                 # everything (takes a few minutes)
//	repro -list                    # list experiment IDs
//	repro scale -accounts 1000000  # scale mode: big graph + open-loop load
//	repro bench                    # benchmark trajectory point (bench-trajectory.json)
//	repro bench -compare old.json  # diff against a previous point
//
// The -scale flag divides the paper's population sizes (default 100);
// -seed fixes the run's randomness so output is reproducible.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scale" {
		runScale(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		runBench(os.Args[2:])
		return
	}
	exp := flag.String("exp", "", "experiment ID(s), comma separated, or 'all'")
	scale := flag.Int("scale", 100, "population scale divisor (1 = paper scale)")
	seed := flag.Int64("seed", 1, "random seed")
	format := flag.String("format", "text", "output format: text, csv, json")
	out := flag.String("out", "", "also write each experiment to <out>/<id>.<ext>")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "repro: -exp required (try -list)")
		os.Exit(2)
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		start := time.Now()
		result, err := experiments.Run(id, *scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", id, err)
			os.Exit(1)
		}
		rendered, err := result.Render(*format)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(rendered)
		if *out != "" {
			path, werr := result.WriteFile(*out, id, *format)
			if werr != nil {
				fmt.Fprintf(os.Stderr, "repro: writing %s: %v\n", id, werr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if *format == "text" {
			fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Println()
		}
	}
}
