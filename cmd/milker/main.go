// Command milker runs a honeypot milking campaign, either self-contained
// (in-process platform and collusion networks at a configurable scale —
// reproduces Table 4) or against running platformd/collusiond daemons
// over HTTP.
//
//	milker -demo -scale 100 -posts-divisor 20
//	milker -platform http://127.0.0.1:8400 -site http://127.0.0.1:8500 \
//	    -app <app-id> -redirect <uri> -posts 20
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/honeypot"
	"repro/internal/obs"
	"repro/internal/obs/runtimestats"
	"repro/internal/platform"
	"repro/internal/simclock"
)

func main() {
	demo := flag.Bool("demo", false, "self-contained Table 4 campaign")
	scale := flag.Int("scale", 100, "demo population scale divisor")
	postsDivisor := flag.Int("posts-divisor", 20, "demo post-count divisor")
	seed := flag.Int64("seed", 1, "random seed")

	platformURL := flag.String("platform", "", "platform base URL (HTTP mode)")
	siteURL := flag.String("site", "", "collusion network base URL (HTTP mode)")
	appID := flag.String("app", "", "exploited application ID (HTTP mode)")
	redirect := flag.String("redirect", "", "exploited application redirect URI (HTTP mode)")
	account := flag.String("account", "", "honeypot's platform account ID (HTTP mode)")
	posts := flag.Int("posts", 20, "posts to milk (HTTP mode)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/traces, and pprof on this address (empty disables)")
	flag.Parse()

	// All diagnostics flow through the redacting logger — a
	// token in an error string is masked before it can reach stderr.
	logger := obs.NewLogger("milker", os.Stderr, simclock.Real{})

	// The campaign's own telemetry: progress counters plus pprof, so a
	// long milking run can be watched and profiled while it works.
	observer := obs.New(simclock.Real{}, obs.DefaultPlatformLabel)
	milked := observer.M().Counter("milker_posts_milked_total",
		"Honeypot posts successfully milked.").With()
	observed := observer.M().Counter("milker_likes_observed_total",
		"Likes observed on milked honeypot posts.").With()
	sampler := runtimestats.Register(observer.M(), simclock.Real{})
	if *metricsAddr != "" {
		observer.ServeDebug(*metricsAddr, logger)
		sampler.Start(5 * time.Second)
		defer sampler.Stop()
	}

	if *demo {
		res, err := experiments.Table4(experiments.Table4Config{
			Scale:        *scale,
			PostsDivisor: *postsDivisor,
			Seed:         *seed,
		})
		if err != nil {
			logger.Fatalf("%v", err)
		}
		fmt.Print(res.Table.String())
		return
	}

	if *platformURL == "" || *siteURL == "" || *appID == "" || *redirect == "" || *account == "" {
		logger.Fatalf("need -demo, or -platform/-site/-app/-redirect/-account")
	}

	// HTTP mode: the honeypot acts as a pre-registered platform account
	// (platformd prints a few on startup), posts through the Graph API,
	// and drives the collusion site over HTTP.
	client := platform.NewHTTPClient(*platformURL)
	site := honeypot.NewHTTPSite(*siteURL, *siteURL)
	hp := honeypot.New(honeypot.Config{
		Clock:     simclock.Real{},
		Client:    client,
		Site:      site,
		App:       apps.App{ID: *appID, RedirectURI: *redirect},
		Name:      "milker-honeypot",
		AccountID: *account,
	})
	if err := hp.Join(); err != nil {
		logger.Fatalf("join failed (is the honeypot account registered on the platform?): %v", err)
	}
	est := honeypot.NewEstimator()
	for i := 0; i < *posts; i++ {
		postID, delivered, err := hp.MilkOnce()
		if err != nil {
			logger.Warnf("post %d: %v", i+1, err)
			time.Sleep(time.Second)
			continue
		}
		likes, err := client.LikesOf(hp.Token(), postID)
		if err != nil {
			logger.Warnf("crawling %s: %v", postID, err)
			continue
		}
		likers := make([]string, len(likes))
		for j, l := range likes {
			likers[j] = l.AccountID
		}
		est.ObservePost(likers)
		milked.Inc()
		observed.Add(int64(len(likers)))
		fmt.Printf("post %2d: delivered=%d cumulative-unique=%d\n", i+1, delivered, est.MembershipEstimate())
	}
	fmt.Printf("\nposts=%d likes=%d avg=%.1f membership>=%d\n",
		est.PostsSubmitted(), est.TotalLikes(), est.AvgLikesPerPost(), est.MembershipEstimate())
}
