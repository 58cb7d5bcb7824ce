package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs/runtimestats"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// runScale is the `repro scale` subcommand: build a 1M–10M-account graph
// and drive the open-loop load generator against it, measuring wall-clock
// like-latency SLOs (the simulated clock paces arrivals; simclock.Real
// times the applies). With -profile-dir it also captures CPU, heap,
// mutex, and block profiles over the steady-state window — post-warmup
// arrivals through pool drain — and writes them next to a report.json of
// the run, so a profile is always interpretable against the load that
// produced it.
func runScale(args []string) {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	accounts := fs.Int("accounts", 1_000_000, "population size")
	rps := fs.Int("rps", 2000, "target arrival rate (per simulated second)")
	duration := fs.Duration("duration", 60*time.Second, "simulated load duration")
	workers := fs.Int("workers", 0, "apply-pool size (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "store stripe count (0 = default)")
	friends := fs.Float64("friends", 0, "mean friend degree (0 = no friendship edges)")
	retention := fs.Duration("retention", 0, "edge-history retention window (0 = infinite)")
	sweepEvery := fs.Duration("sweep-every", 0, "retention sweep period in simulated time (0 = never)")
	seed := fs.Int64("seed", 1, "random seed")
	profileDir := fs.String("profile-dir", "", "write CPU/heap/mutex/block profiles and report.json for the steady-state window into this directory")
	warmup := fs.Duration("warmup", 0, "simulated warmup excluded from profile capture (0 = duration/10 when profiling)")
	fs.Parse(args)

	fmt.Printf("building %d-account graph (%d stripes requested, GOMAXPROCS %d)...\n",
		*accounts, *shards, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	w, err := workload.BuildScale(workload.ScaleConfig{
		Accounts:        *accounts,
		AvgFriends:      *friends,
		Shards:          *shards,
		RetentionWindow: *retention,
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro scale: %v\n", err)
		os.Exit(1)
	}
	built := time.Since(t0)
	// Collect first, so the heap figure is the graph, not the garbage
	// its construction left behind.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Printf("built in %v: %d pages, %d hot posts, %d friend edges, heap %d MiB\n",
		built.Round(time.Millisecond), len(w.Pages), len(w.Posts),
		w.FriendEdges, mem.HeapAlloc>>20)

	// Runtime families on the same registry /metrics would serve; the
	// sampler feeds per-sweep snapshots into the report.
	sampler := runtimestats.Register(w.Platform.Obs.M(), simclock.Real{})
	sampler.Sample() // baseline so the first sweep's rates have a window

	cfg := workload.LoadConfig{
		TargetRPS:  *rps,
		Duration:   *duration,
		Workers:    *workers,
		SweepEvery: *sweepEvery,
		Timing:     simclock.Real{},
		Seed:       *seed,
		Runtime:    sampler,
	}

	var prof *profileCapture
	if *profileDir != "" {
		if *warmup <= 0 {
			*warmup = *duration / 10
		}
		prof, err = newProfileCapture(*profileDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro scale: %v\n", err)
			os.Exit(1)
		}
		cfg.Warmup = *warmup
		cfg.OnSteadyState = prof.start
		cfg.OnLoadEnd = prof.stop
	}

	fmt.Printf("driving %d rps for %v (simulated)...\n", *rps, *duration)
	rep := w.RunLoad(cfg)

	fmt.Printf("offered %d requests in %v wall (%.0f applied rps)\n",
		rep.Offered, rep.WallElapsed.Round(time.Millisecond), rep.AchievedRPS())
	fmt.Printf("  likes %d (dup %d), comments %d, posts %d\n",
		rep.Likes, rep.DuplicateLikes, rep.Comments, rep.Posts)
	fmt.Printf("  like latency p50 %v  p99 %v\n", rep.P50, rep.P99)
	if rep.Sweeps > 0 {
		fmt.Printf("  retention: %d sweeps evicted %d likes / %d comments / %d activities\n",
			rep.Sweeps, rep.Evicted.Likes, rep.Evicted.Comments, rep.Evicted.Activities)
		for _, s := range rep.Samples {
			fmt.Printf("    sweep %s: retained %d likes, %d comments | heap %d MiB, %d goroutines, GC %d, alloc %.1f MiB/s\n",
				s.At.Format("15:04:05"), s.Retained.Likes, s.Retained.Comments,
				s.Runtime.HeapAllocBytes>>20, s.Runtime.Goroutines,
				s.Runtime.GCCycles, s.Runtime.AllocBytesPerSec/(1<<20))
		}
	}
	fmt.Printf("  retained at end: %d likes, %d comments, %d activities\n",
		rep.Retained.Likes, rep.Retained.Comments, rep.Retained.Activities)
	snap := w.Graph.Retention()
	fmt.Printf("  retention counters: sweeps %d, evicted likes %d, comments %d, activities %d\n",
		snap.Sweeps, snap.Likes, snap.Comments, snap.Activities)
	rt := rep.RuntimeEnd
	fmt.Printf("  runtime at end: heap %d MiB (sys %d MiB), %d goroutines, GC %d cycles (pause total %v, last %v), sched p99 %v\n",
		rt.HeapAllocBytes>>20, rt.SysBytes>>20, rt.Goroutines, rt.GCCycles,
		rt.GCPauseTotal.Round(time.Microsecond), rt.LastGCPause.Round(time.Microsecond),
		rt.SchedLatencyP99)

	if prof != nil {
		if err := prof.writeReport(rep); err != nil {
			fmt.Fprintf(os.Stderr, "repro scale: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  profiles + report.json written to %s (window: post-%v warmup through drain)\n",
			*profileDir, *warmup)
	}
}

// profileCapture owns the pprof capture for one steady-state window.
type profileCapture struct {
	dir     string
	cpuFile *os.File
	started bool
}

// newProfileCapture prepares the directory and arms the contention
// profilers. Mutex/block sampling must be on before the load starts —
// they accumulate globally and are snapshotted at window close; the CPU
// profile alone is started/stopped exactly on the window edges.
func newProfileCapture(dir string) (*profileCapture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(100_000) // sample blocking events >= 100µs
	return &profileCapture{dir: dir}, nil
}

// start begins the CPU profile; called at the steady-state edge.
func (p *profileCapture) start() {
	f, err := os.Create(filepath.Join(p.dir, "cpu.pprof"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro scale: cpu profile: %v\n", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "repro scale: cpu profile: %v\n", err)
		f.Close()
		return
	}
	p.cpuFile = f
	p.started = true
}

// stop ends the CPU profile and writes the snapshot profiles; called
// after the worker pool drains.
func (p *profileCapture) stop() {
	if p.started {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.started = false
	}
	runtime.GC() // settle the heap profile on live objects
	for _, name := range []string{"heap", "mutex", "block"} {
		prof := pprof.Lookup(name)
		if prof == nil {
			continue
		}
		f, err := os.Create(filepath.Join(p.dir, name+".pprof"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro scale: %s profile: %v\n", name, err)
			continue
		}
		if err := prof.WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "repro scale: %s profile: %v\n", name, err)
		}
		f.Close()
	}
}

// writeReport persists the LoadReport (per-sweep runtime snapshots
// included) next to the profiles.
func (p *profileCapture) writeReport(rep workload.LoadReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(p.dir, "report.json"), append(data, '\n'), 0o644)
}
