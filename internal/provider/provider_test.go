package provider

import (
	"errors"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"facebook", "pictogram"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if Default().Name() != "facebook" {
		t.Fatalf("Default() = %q, want facebook", Default().Name())
	}
	if p, ok := Get("pictogram"); !ok || p.Name() != "pictogram" {
		t.Fatalf("Get(pictogram) = %v, %v", p, ok)
	}
	if _, ok := Get("myspace"); ok {
		t.Fatal("Get(myspace) should miss")
	}
}

func TestFlows(t *testing.T) {
	if !Facebook.Supports(FlowImplicit) || !Facebook.Supports(FlowCode) {
		t.Error("facebook must support both flows")
	}
	if (pictogram{}).Supports(FlowImplicit) {
		t.Error("pictogram must NOT support the implicit flow (not milkable)")
	}
	if !(pictogram{}).Supports(FlowCode) {
		t.Error("pictogram must support the code flow")
	}
}

func TestFacebookTokenRoundTrip(t *testing.T) {
	tok := Facebook.MintToken()
	if !strings.HasPrefix(tok, "EAAB") {
		t.Fatalf("facebook token %q lacks EAAB prefix", tok)
	}
	if err := Facebook.CheckToken(tok); err != nil {
		t.Fatalf("CheckToken(minted) = %v", err)
	}
	for _, bad := range []string{"", "EAAB", "XAAB1234deadbeef", "PTGR.000000000000000000000000.0000"} {
		if err := Facebook.CheckToken(bad); !errors.Is(err, ErrBadTokenFormat) {
			t.Errorf("CheckToken(%q) = %v, want ErrBadTokenFormat", bad, err)
		}
	}
}

func TestPictogramTokenRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tok := pictogram{}.MintToken()
		if seen[tok] {
			t.Fatalf("duplicate minted token %q", tok)
		}
		seen[tok] = true
		if len(tok) != pgTokenLen {
			t.Fatalf("token %q length %d, want %d", tok, len(tok), pgTokenLen)
		}
		if err := (pictogram{}).CheckToken(tok); err != nil {
			t.Fatalf("CheckToken(minted %q) = %v", tok, err)
		}
	}
}

func TestPictogramTokenRejectsTampering(t *testing.T) {
	tok := pictogram{}.MintToken()
	cases := map[string]string{
		"empty":            "",
		"short":            tok[:len(tok)-1],
		"long":             tok + "0",
		"wrong prefix":     "XTGR." + tok[5:],
		"missing dot":      tok[:pgChecksumDot] + "0" + tok[pgChecksumDot+1:],
		"non-hex payload":  tok[:6] + "Z" + tok[7:],
		"non-hex checksum": tok[:len(tok)-1] + "Z",
		"facebook token":   Facebook.MintToken(),
	}
	// Flip one payload nibble: checksum no longer matches.
	flip := byte('0')
	if tok[5] == '0' {
		flip = '1'
	}
	cases["bit flip"] = tok[:5] + string(flip) + tok[6:]
	for name, bad := range cases {
		if err := (pictogram{}).CheckToken(bad); !errors.Is(err, ErrBadTokenFormat) {
			t.Errorf("%s: CheckToken(%q) = %v, want ErrBadTokenFormat", name, bad, err)
		}
	}
	// Checksum tamper: pick a different valid-hex checksum.
	last := tok[len(tok)-1]
	repl := byte('0')
	if last == '0' {
		repl = '1'
	}
	if err := (pictogram{}).CheckToken(tok[:len(tok)-1] + string(repl)); !errors.Is(err, ErrBadTokenFormat) {
		t.Error("checksum tamper accepted")
	}
}

// TestCheckTokenAllocFree pins the interface contract the graphapi hot
// path depends on: surface validation allocates nothing, accept or
// reject.
func TestCheckTokenAllocFree(t *testing.T) {
	good := []string{Facebook.MintToken(), pictogram{}.MintToken()}
	provs := []Provider{Facebook, pictogram{}}
	bad := "not-a-token-of-any-provider"
	if n := testing.AllocsPerRun(100, func() {
		for i, p := range provs {
			if err := p.CheckToken(good[i]); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckToken(bad); err == nil {
				t.Fatal("bad token accepted")
			}
		}
	}); n != 0 {
		t.Errorf("CheckToken allocates %.0f/run, want 0", n)
	}
}

func TestErrorVocabularyBijective(t *testing.T) {
	for _, name := range Names() {
		p := MustGet(name)
		seen := map[int]ErrKind{}
		for k := KindInvalidToken; k < NumKinds; k++ {
			code := p.ErrorCode(k)
			if code == 0 {
				t.Errorf("%s: ErrorCode(%v) = 0", name, k)
			}
			if prev, dup := seen[code]; dup {
				t.Errorf("%s: code %d maps to both %v and %v", name, code, prev, k)
			}
			seen[code] = k
			if got := p.KindOfCode(code); got != k {
				t.Errorf("%s: KindOfCode(ErrorCode(%v)) = %v", name, k, got)
			}
			if p.ErrorType(k, "Fallback") == "" {
				t.Errorf("%s: ErrorType(%v) empty", name, k)
			}
		}
		if p.KindOfCode(999999) != KindNone {
			t.Errorf("%s: KindOfCode(999999) != KindNone", name)
		}
	}
}

// TestFacebookVocabularyIsCanonical pins the default provider's mapping
// to the historical constants — the bit-for-bit transparency anchor.
func TestFacebookVocabularyIsCanonical(t *testing.T) {
	want := map[ErrKind]int{
		KindInvalidToken: 190,
		KindSecretProof:  104,
		KindPermission:   200,
		KindRateLimited:  613,
		KindBlocked:      368,
		KindNotFound:     803,
		KindDuplicate:    520,
		KindInvalidParam: 100,
		KindAppSuspended: 191,
	}
	for k, code := range want {
		if got := Facebook.ErrorCode(k); got != code {
			t.Errorf("facebook ErrorCode(%v) = %d, want %d", k, got, code)
		}
		if got := Facebook.ErrorType(k, "OAuthException"); got != "OAuthException" {
			t.Errorf("facebook ErrorType must pass fallback through, got %q", got)
		}
	}
}

func TestScopesAndLimits(t *testing.T) {
	if Facebook.ScopePublish() != "publish_actions" || Facebook.ScopeFriends() != "user_friends" {
		t.Error("facebook scope names changed")
	}
	if (pictogram{}).ScopePublish() != "likes" || (pictogram{}).ScopeFriends() != "relationships" {
		t.Error("pictogram scope names changed")
	}
	if Facebook.MaxBatchOps() != 50 {
		t.Error("facebook batch cap must stay 50 (wire-visible default)")
	}
	if (pictogram{}).MaxBatchOps() >= Facebook.MaxBatchOps() {
		t.Error("pictogram batch cap should be tighter than facebook's")
	}
}
