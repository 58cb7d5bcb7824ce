package main

import (
	"testing"

	"repro/internal/collusion"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// TestServerHeaderTimeout: the member-facing site's server stops waiting
// for a client's headers after obs.ReadHeaderTimeout.
func TestServerHeaderTimeout(t *testing.T) {
	network := collusion.NewNetwork(collusion.Config{Name: "test-liker.net"}, simclock.Real{},
		platform.NewHTTPClient("http://127.0.0.1:0"))
	srv := newServer("127.0.0.1:0", network)
	if srv.ReadHeaderTimeout != obs.ReadHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, obs.ReadHeaderTimeout)
	}
}
