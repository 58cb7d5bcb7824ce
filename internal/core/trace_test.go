package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/redact"
)

// TestMilkingRoundTraceJSONL runs one milking round and checks the JSONL
// trace export tells the whole story: a single trace ID connects the
// delivery burst to a Graph API like and its oauth-validation, policy, and
// shard sub-spans — and no span anywhere carries an unredacted credential.
func TestMilkingRoundTraceJSONL(t *testing.T) {
	s := smallStudy(t)
	res := s.MilkNetwork("mg-likers.com")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Delivered == 0 {
		t.Fatal("round delivered no likes")
	}

	var buf bytes.Buffer
	if err := s.Observer().T().WriteJSONLTrace(&buf, ""); err != nil {
		t.Fatal(err)
	}
	var all []obs.SpanData
	byTrace := map[string]map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var d obs.SpanData
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		all = append(all, d)
		names := byTrace[d.Trace]
		if names == nil {
			names = map[string]bool{}
			byTrace[d.Trace] = names
		}
		names[d.Name] = true
	}
	if len(all) == 0 {
		t.Fatal("trace export is empty")
	}

	// One trace must span the full pipeline: collusion delivery →
	// batched Graph API like → token validation, defense chain, shard
	// write. Delivery batches by default, so the burst's traced chunk
	// roots at graphapi.like_batch rather than a per-action graphapi.like.
	want := []string{"collusion.deliver", "graphapi.like_batch", "oauth.validate", "defense.chain", "shard.apply"}
	complete := false
	for _, names := range byTrace {
		ok := true
		for _, w := range want {
			if !names[w] {
				ok = false
				break
			}
		}
		if ok {
			complete = true
			break
		}
	}
	if !complete {
		t.Errorf("no single trace contains all of %v; traces seen: %v", want, byTrace)
	}

	// The round itself gets a span labelled with the network.
	round := false
	for _, d := range all {
		if d.Name != "milk.round" {
			continue
		}
		for _, a := range d.Attrs {
			if a.Key == "network" && a.Value == "mg-likers.com" {
				round = true
			}
		}
	}
	if !round {
		t.Error("no milk.round span labelled network=mg-likers.com")
	}

	// Credential hygiene: nothing in the export validates as a live
	// token, and token-keyed attributes are visibly masked.
	oauth := s.Scenario.Platform.API.OAuth()
	leak := func(v string) {
		t.Helper()
		if _, err := oauth.Validate(v); err == nil {
			t.Errorf("trace leaks a live credential %q", redact.Token(v))
		}
	}
	for _, d := range all {
		for _, a := range d.Attrs {
			leak(a.Value)
			if a.Key == "token" && !strings.HasSuffix(a.Value, "***") {
				t.Errorf("token attr %q is not redacted", a.Value)
			}
		}
		for _, e := range d.Events {
			for _, a := range e.Attrs {
				leak(a.Value)
			}
		}
	}
}

// TestDefenseActionsInMetrics deploys countermeasures and checks each one
// lands in defense_actions_total, alongside the delivery and shard
// contention families the round produced.
func TestDefenseActionsInMetrics(t *testing.T) {
	s := smallStudy(t)
	if res := s.MilkNetwork("mg-likers.com"); res.Err != nil {
		t.Fatal(res.Err)
	}
	cm := s.Countermeasures()
	cm.SetTokenRateLimit(10, time.Hour)
	cm.InvalidateMilkedAll()

	var b strings.Builder
	if err := s.Observer().M().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`defense_actions_total{countermeasure="token-rate-limit",action="deploy"} 1`,
		`defense_actions_total{countermeasure="token-invalidation",action="sweep"}`,
		`collusion_likes_delivered_total{network="mg-likers.com"}`,
		`graphapi_requests_total{platform="facebook",op="like",code="0"}`,
		`oauth_tokens_issued_total`,
		`socialgraph_shard_lock_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
