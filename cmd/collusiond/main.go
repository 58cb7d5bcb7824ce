// Command collusiond serves one collusion network website against a
// running platformd. Members install the exploited application via the
// platform's OAuth dialog, paste the leaked token into this site, and
// request likes; the daemon replays pooled tokens through the platform's
// Graph API.
//
//	collusiond -platform http://127.0.0.1:8400 -app <app-id> \
//	    -redirect https://htc-sense.example/callback -name demo-liker.net
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collusion"
	"repro/internal/obs"
	"repro/internal/obs/runtimestats"
	"repro/internal/platform"
	"repro/internal/simclock"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8500", "listen address")
	platformURL := flag.String("platform", "http://127.0.0.1:8400", "platform base URL")
	appID := flag.String("app", "", "exploited application ID (required)")
	redirect := flag.String("redirect", "", "exploited application redirect URI (required)")
	name := flag.String("name", "demo-liker.net", "collusion network name")
	likes := flag.Int("likes", 50, "likes delivered per request")
	comments := flag.Int("comments", 10, "comments per request (0 disables)")
	captcha := flag.Bool("captcha", false, "require CAPTCHA per request")
	dailyLimit := flag.Int("daily-limit", 0, "requests per member per day (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/traces, and pprof on this address (empty disables)")
	flag.Parse()

	// All diagnostics flow through the redacting logger — member
	// tokens must never reach stderr intact, even inside error strings.
	logger := obs.NewLogger("collusiond", os.Stderr, simclock.Real{})

	if *appID == "" || *redirect == "" {
		logger.Fatalf("-app and -redirect are required (see platformd output)")
	}

	client := platform.NewHTTPClient(*platformURL)
	cfg := collusion.Config{
		Name:               *name,
		AppID:              *appID,
		AppRedirectURI:     *redirect,
		LikesPerRequest:    *likes,
		CommentsPerRequest: *comments,
		CommentDictionary:  []string{"nice pic", "awesome", "gr8 bro", "so lovely", "w00wwwwwwww"},
		CaptchaRequired:    *captcha,
		DailyRequestLimit:  *dailyLimit,
		IPs:                []string{"192.168.1.10", "192.168.1.11"},
		AdsPerVisit:        3,
	}
	network := collusion.NewNetwork(cfg, simclock.Real{}, client)
	observer := obs.New(simclock.Real{}, obs.DefaultPlatformLabel)
	network.SetObserver(observer)
	sampler := runtimestats.Register(observer.M(), simclock.Real{})
	if *metricsAddr != "" {
		observer.ServeDebug(*metricsAddr, logger)
		sampler.Start(5 * time.Second)
		defer sampler.Stop()
	}

	fmt.Printf("collusiond %q listening on http://%s\n", *name, *addr)
	fmt.Printf("exploiting app %s via %s\n", *appID, *platformURL)
	fmt.Println("endpoints: GET /  POST /submit-token  POST /request-likes  POST /request-comments  POST /adwall")

	srv := newServer(*addr, network)
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Fatalf("%v", err)
	}
	st := network.Stats()
	fmt.Printf("collusiond: shut down; tokens=%d likes=%d\n", st.TokensCollected, st.LikesDelivered)
}

// newServer builds the member-facing site's HTTP server.
func newServer(addr string, network *collusion.Network) *http.Server {
	return obs.NewServer(addr, collusion.Handler(network))
}
