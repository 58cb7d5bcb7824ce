// Command platformd serves the simulated social platform over HTTP: the
// OAuth dialog, the token endpoint, and the Graph API.
//
// On startup it seeds a demo world — one susceptible application (HTC
// Sense-style), one secure application, and a handful of member accounts —
// and prints the identifiers clients need. Collusion network daemons
// (cmd/collusiond), the scanner (cmd/scanner), and the milker
// (cmd/milker) all speak to this server.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/runtimestats"
	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/redact"
	"repro/internal/simclock"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8400", "listen address")
	members := flag.Int("members", 50, "demo member accounts to create")
	printSecret := flag.Bool("print-secret", false, "print the secure app's full secret (needed to drive the code flow by hand)")
	providers := flag.String("providers", strings.Join(provider.Names(), ","),
		"comma-separated providers to serve; the default provider (else the first listed) mounts at /, every provider also at /<name>/")
	flag.Parse()

	internet := netsim.NewInternet()
	must(internet.RegisterAS(netsim.AS{Number: 64500, Name: "BP-HOSTING-A", Country: "RU", Bulletproof: true}, "203.0.0.0/16"))
	must(internet.RegisterAS(netsim.AS{Number: 65000, Name: "GENERIC-HOSTING", Country: "US"}, "192.168.0.0/16"))

	// One platform per listed provider over a shared clock and Internet,
	// the default provider's first: ps[0] is served at /.
	var names []string
	for _, name := range strings.Split(*providers, ",") {
		name = strings.TrimSpace(name)
		if _, ok := provider.Get(name); !ok {
			log.Fatalf("platformd: unknown provider %q (known: %s)", name, strings.Join(provider.Names(), ", "))
		}
		switch {
		case slices.Contains(names, name): // listed twice
		case name == provider.Default().Name():
			names = slices.Insert(names, 0, name)
		default:
			names = append(names, name)
		}
	}
	ps := make([]*platform.Platform, len(names))
	for i, name := range names {
		ps[i] = platform.NewWithConfig(simclock.Real{}, internet, platform.Config{Provider: provider.MustGet(name)})
	}
	p := ps[0]

	// Runtime/GC families on /metrics, sampled in the background so the
	// GC-pause histogram and alloc-rate gauge stay fresh between scrapes.
	sampler := runtimestats.Register(p.Obs.M(), simclock.Real{})
	sampler.Start(5 * time.Second)
	defer sampler.Stop()

	susceptible := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc-sense.example/callback",
		ClientFlowEnabled: true,
		RequireAppSecret:  false,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermEmail, apps.PermPublishActions},
		MAU:               1_000_000,
		DAU:               1_000_000,
	})
	secure := p.Apps.Register(apps.Config{
		Name:              "Secure Player",
		RedirectURI:       "https://secure-player.example/callback",
		ClientFlowEnabled: false,
		RequireAppSecret:  true,
		Lifetime:          apps.ShortTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
		MAU:               5_000_000,
		DAU:               500_000,
	})

	fmt.Printf("platformd listening on http://%s (providers: %s)\n", *addr, strings.Join(names, ", "))
	fmt.Printf("susceptible app: id=%s redirect=%s\n", susceptible.ID, susceptible.RedirectURI)
	fmt.Printf("secure app:      id=%s redirect=%s (secret=%s; pass -print-secret for the full value)\n",
		secure.ID, secure.RedirectURI, redact.Token(secure.Secret))
	if *printSecret {
		//collusionvet:allow tokenflow -- operator explicitly asked via -print-secret
		fmt.Printf("secure app secret: %s\n", secure.Secret)
	}
	for i := 0; i < *members; i++ {
		acct := p.Graph.CreateAccount(fmt.Sprintf("member-%d", i+1), "IN", time.Now())
		if i < 3 {
			fmt.Printf("member account: %s\n", acct.ID)
		}
	}
	fmt.Printf("(and %d more member accounts)\n", *members-3)
	fmt.Println("dialog: GET /dialog/oauth?client_id=&redirect_uri=&response_type=token&scope=publish_actions&account_id=")

	// Every non-default platform gets its own demo world: a companion-style
	// app (code-flow only where the provider demands it) and member
	// accounts, reachable under /<provider>/.
	for _, sp := range ps[1:] {
		prov := sp.Provider
		name := prov.Name()
		app := sp.Apps.RegisterUnreviewed(apps.Config{
			Name:        "Demo Companion",
			RedirectURI: "https://demo-companion.example/callback",
			Lifetime:    apps.LongTerm,
			Permissions: []string{prov.ScopePublish(), prov.ScopeFriends()},
		})
		fmt.Printf("%s app: id=%s redirect=%s (secret=%s; mounts at /%s/)\n",
			name, app.ID, app.RedirectURI, redact.Token(app.Secret), name)
		for i := 0; i < *members; i++ {
			sp.Graph.CreateAccount(fmt.Sprintf("%s-member-%d", name, i+1), "IN", time.Now())
		}
	}

	serve(newServer(*addr, ps...))
}

// buildHandler mounts one platform's Graph API (wrapped in request
// telemetry) at / alongside its observability surfaces: /metrics
// (Prometheus text exposition), /debug/traces (JSONL span export), and
// net/http/pprof.
func buildHandler(p *platform.Platform) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", p.Handler())
	p.Obs.RegisterDebug(mux)
	return mux
}

// buildMultiHandler mounts every platform — API plus its own /metrics,
// /debug/traces, and pprof — under /<provider>/, and the first one also
// at the root.
func buildMultiHandler(ps ...*platform.Platform) http.Handler {
	mux := http.NewServeMux()
	for _, sp := range ps {
		name := sp.Provider.Name()
		mux.Handle("/"+name+"/", http.StripPrefix("/"+name, buildHandler(sp)))
	}
	mux.Handle("/", buildHandler(ps[0]))
	return mux
}

// newServer builds the daemon's HTTP server over every platform.
func newServer(addr string, ps ...*platform.Platform) *http.Server {
	return obs.NewServer(addr, buildMultiHandler(ps...))
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests before exiting.
func serve(srv *http.Server) {
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("platformd: shut down cleanly")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
