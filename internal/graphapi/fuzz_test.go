package graphapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func FuzzDecodeCursor(f *testing.F) {
	f.Add("")
	f.Add(encodeCursor(0))
	f.Add(encodeCursor(25))
	f.Add(encodeCursor(1 << 30))
	f.Add("###")
	f.Add("MTIzNDU=")
	f.Add("LTU=") // base64("-5")
	f.Fuzz(func(t *testing.T, s string) {
		off, err := decodeCursor(s)
		if err != nil {
			return
		}
		if off < 0 {
			t.Fatalf("decoded negative offset %d from %q", off, s)
		}
		// Round trip: re-encoding a decoded cursor must decode to the
		// same offset.
		again, err := decodeCursor(encodeCursor(off))
		if err != nil || again != off {
			t.Fatalf("round trip %d → %d, %v", off, again, err)
		}
	})
}

// FuzzBatchHandler checks the /batch contract on arbitrary batch values.
// The answer is either a 400 that applied nothing, or a 200 carrying one
// result per decoded op, each a 200 or a 4xx, with exactly one like
// stored per 200. In the input, {post} stands for the fixture's post and
// {token} for a second token of the member whose token is the outer one.
func FuzzBatchHandler(f *testing.F) {
	for _, seed := range []string{
		`[{"method":"POST","relative_url":"{post}/likes"},{"method":"POST","relative_url":"{post}/likes","body":"access_token={token}"}]`,
		`[{"method":"POST","relative_url":"/{post}/likes","source_ip":"203.0.113.9"}]`,
		`[{"method":"POST","relative_url":"{post}/likes"},{"method":"GET","relative_url":"me"}]`,
		`[{"method":"POST","relative_url":"{post}/likes"},{"method":"POST","relative_url":"me/likes"}]`,
		`[{"method":"POST","relative_url":"{post}/likes","body":"access_token={token}&appsecret_proof=00"}]`,
		`[]`,
		`not-json`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, batch string) {
		fx := newFixture(t)
		tok := fx.token(t)
		batch = strings.NewReplacer("{post}", fx.post.ID, "{token}", fx.token(t)).Replace(batch)
		before := fx.graph.RetainedEdges()
		rec := serveBatch(fx.api, tok, batch)
		after := fx.graph.RetainedEdges()
		switch rec.Code {
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("400 answer applied writes: store %+v → %+v", before, after)
			}
		case http.StatusOK:
			var ops []batchOp
			if err := json.Unmarshal([]byte(batch), &ops); err != nil {
				t.Fatalf("200 answer to an undecodable batch: %v", err)
			}
			var results []batchResult
			if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
				t.Fatalf("undecodable 200 answer %q: %v", rec.Body, err)
			}
			if len(results) != len(ops) {
				t.Fatalf("%d results for %d ops", len(results), len(ops))
			}
			ok := 0
			for i, r := range results {
				switch {
				case r.Code == http.StatusOK:
					ok++
				case r.Code < 400 || r.Code > 499:
					t.Fatalf("op %d answered %d: %s", i, r.Code, r.Body)
				}
			}
			// Each applied like adds a like and the liker's activity.
			want := before
			want.Likes += int64(ok)
			want.Activities += int64(ok)
			if after != want {
				t.Fatalf("%d successful ops: store %+v → %+v", ok, before, after)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
