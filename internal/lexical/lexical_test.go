package lexical

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Nice Pic!!", []string{"nice", "pic"}},
		{"?? AW E S O M E ???", []string{"aw", "e", "s", "o", "m", "e"}},
		{"gr8 w00wwwwwwww", []string{"gr8", "w00wwwwwwww"}},
		{"", nil},
		{"...", nil},
	}
	for _, tc := range cases {
		got := Tokenize(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestCountSentences(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"no punctuation", 1},
		{"one sentence.", 1},
		{"two. sentences.", 2},
		{"ellipsis... still one run. two", 3},
		{"trailing text after. punct", 2},
	}
	for _, tc := range cases {
		if got := countSentences(tc.in); got != tc.want {
			t.Errorf("countSentences(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestAnalyzeRepetitiveCorpus(t *testing.T) {
	// A collusion-network-style corpus: 100 comments from a dictionary of
	// 4, exactly like the Table 6 finding of few unique comments.
	dict := []string{"nice pic", "awesome", "gr8 bro", "lovely"}
	var corpus []string
	for i := 0; i < 100; i++ {
		corpus = append(corpus, dict[i%len(dict)])
	}
	r := Analyze(corpus)
	if r.Comments != 100 || r.UniqueComments != 4 {
		t.Fatalf("report = %+v", r)
	}
	if r.PctUniqueComments != 4 {
		t.Fatalf("PctUniqueComments = %v", r.PctUniqueComments)
	}
	// 6 unique words over 150 word tokens (25×2 + 25 + 25×2 + 25).
	if r.Words != 150 || r.UniqueWords != 6 {
		t.Fatalf("words = %d unique = %d", r.Words, r.UniqueWords)
	}
	if r.LexicalRichness != 4 {
		t.Fatalf("LexicalRichness = %v", r.LexicalRichness)
	}
	// "gr8" is the only non-dictionary token: 25 of 150 = 16.67%.
	if math.Abs(r.PctNonDictionary-100.0*25/150) > 0.01 {
		t.Fatalf("PctNonDictionary = %v", r.PctNonDictionary)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(nil)
	if r != (Report{}) {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Single comment, 2 words, 8 chars, 1 sentence:
	// ARI = 4.71*(8/2) + 0.5*(2/1) - 21.43 = 18.84 + 1 - 21.43 = -1.59.
	r := Analyze([]string{"nice pics"})
	want := 4.71*4 + 0.5*2 - 21.43
	if math.Abs(r.ARI-want) > 1e-9 {
		t.Fatalf("ARI = %v, want %v", r.ARI, want)
	}
}

func TestInDictionary(t *testing.T) {
	for _, w := range []string{"nice", "awesome", "the", "love"} {
		if !InDictionary(w) {
			t.Errorf("InDictionary(%q) = false", w)
		}
	}
	for _, w := range []string{"gr8", "w00wwwwwwww", "bfewguvchieuwver", "bethgye"} {
		if InDictionary(w) {
			t.Errorf("InDictionary(%q) = true", w)
		}
	}
	if len(dictionary) < 400 {
		t.Fatalf("dictionary suspiciously small: %d", len(dictionary))
	}
}

func TestNonsenseCorpusHighNonDictionary(t *testing.T) {
	r := Analyze([]string{"bfewguvchieuwver gr8 w00t", "SARYE THAK KE BETH GYE"})
	if r.PctNonDictionary < 80 {
		t.Fatalf("nonsense corpus PctNonDictionary = %v", r.PctNonDictionary)
	}
}

// Property: percentages are always within [0, 100], and unique counts
// never exceed totals.
func TestQuickAnalyzeBounds(t *testing.T) {
	words := []string{"nice", "gr8", "awesome", "pic", "w00w", "bro", "xyzzy"}
	f := func(picks []uint8) bool {
		var corpus []string
		for i := 0; i+1 < len(picks); i += 2 {
			corpus = append(corpus, words[int(picks[i])%len(words)]+" "+words[int(picks[i+1])%len(words)])
		}
		r := Analyze(corpus)
		if r.UniqueComments > r.Comments || r.UniqueWords > r.Words {
			return false
		}
		for _, pct := range []float64{r.PctUniqueComments, r.LexicalRichness, r.PctNonDictionary} {
			if pct < 0 || pct > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeLongElongatedWords(t *testing.T) {
	elongated := "bravo" + strings.Repeat("o", 20)
	r := Analyze([]string{elongated})
	if r.PctNonDictionary != 100 {
		t.Fatalf("elongated word counted as dictionary: %+v", r)
	}
	// Long words push ARI up (chars/words dominates).
	if r.ARI < 50 {
		t.Fatalf("ARI = %v for 25-char word", r.ARI)
	}
}
