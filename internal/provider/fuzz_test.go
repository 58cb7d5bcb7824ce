package provider

import (
	"strings"
	"testing"
)

// FuzzPictogramCheckToken attacks the structured token parse path: no
// input may panic, and the only accepted strings are exactly those the
// reference re-computation (prefix + hex payload + FNV fold) accepts.
// Minted tokens must always verify.
func FuzzPictogramCheckToken(f *testing.F) {
	f.Add(pictogram{}.MintToken())
	f.Add("")
	f.Add("PTGR.")
	f.Add("PTGR.000000000000000000000000.0000")
	f.Add("PTGR.ffffffffffffffffffffffff.ffff")
	f.Add("PTGR.00000000000000000000000.00000") // dot shifted
	f.Add(strings.Repeat("P", pgTokenLen))
	f.Add("EAAB0123456789abcdef")
	f.Fuzz(func(t *testing.T, tok string) {
		err := pictogram{}.CheckToken(tok)
		if ref := pgReferenceCheck(tok); ref != (err == nil) {
			t.Fatalf("CheckToken(%q) = %v, reference says valid=%v", tok, err, ref)
		}
		if err == nil {
			// A token that passes must keep passing (pure function).
			if (pictogram{}).CheckToken(tok) != nil {
				t.Fatalf("CheckToken(%q) not idempotent", tok)
			}
		}
	})
}

// pgReferenceCheck is an independent, naive implementation of the token
// grammar used as the fuzz oracle.
func pgReferenceCheck(tok string) bool {
	if !strings.HasPrefix(tok, "PTGR.") {
		return false
	}
	rest := tok[len("PTGR."):]
	parts := strings.Split(rest, ".")
	if len(parts) != 2 || len(parts[0]) != 24 || len(parts[1]) != 4 {
		return false
	}
	isHex := func(s string) bool {
		for _, c := range []byte(s) {
			if hexVal(c) < 0 {
				return false
			}
		}
		return true
	}
	if !isHex(parts[0]) || !isHex(parts[1]) {
		return false
	}
	var want uint16
	for _, c := range []byte(parts[1]) {
		want = want<<4 | uint16(hexVal(c))
	}
	return pgChecksum(parts[0]) == want
}

// FuzzPictogramMint round-trips minted tokens through CheckToken under
// fuzz-varied (ignored) input to exercise the counter wraparound paths.
func FuzzPictogramMint(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1 << 40))
	f.Fuzz(func(t *testing.T, seed uint64) {
		pgCounter.Store(seed)
		tok := pictogram{}.MintToken()
		if err := (pictogram{}).CheckToken(tok); err != nil {
			t.Fatalf("minted token %q fails CheckToken: %v", tok, err)
		}
	})
}
