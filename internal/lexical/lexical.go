// Package lexical implements the comment analysis of Table 6: comment
// uniqueness, lexical richness (fraction of unique words), the Automated
// Readability Index (ARI), and the fraction of words not found in an
// English dictionary.
//
// The paper found that collusion networks draw comments from tiny
// dictionaries — 187 unique strings among 12,959 delivered comments, with
// ~20% non-dictionary words ("gr8", "w00wwwwwwww", transliterated Hindi).
package lexical

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases text and splits it into words on any non-alphanumeric
// boundary. Empty tokens are dropped.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// countSentences estimates the number of sentences in a comment: one plus
// the number of internal terminal-punctuation runs. Every comment counts
// as at least one sentence.
func countSentences(text string) int {
	n := 0
	inRun := false
	sawTerminal := false
	for _, r := range text {
		if r == '.' || r == '!' || r == '?' {
			if !inRun {
				n++
				inRun = true
				sawTerminal = true
			}
		} else {
			inRun = false
		}
	}
	if !sawTerminal {
		return 1
	}
	// Trailing punctuation terminates the last sentence; text after the
	// last run adds one more.
	trimmed := strings.TrimRightFunc(text, unicode.IsSpace)
	if len(trimmed) > 0 {
		last, _ := lastRune(trimmed)
		if last != '.' && last != '!' && last != '?' {
			n++
		}
	}
	return n
}

func lastRune(s string) (rune, bool) {
	var out rune
	ok := false
	for _, r := range s {
		out = r
		ok = true
	}
	return out, ok
}

// Report is the Table 6 row for one comment corpus.
type Report struct {
	Comments          int
	UniqueComments    int
	PctUniqueComments float64
	Words             int
	UniqueWords       int
	// LexicalRichness is the fraction of unique words, in percent.
	LexicalRichness float64
	// ARI is the Automated Readability Index over the whole corpus.
	ARI float64
	// PctNonDictionary is the percentage of word tokens not found in the
	// English dictionary.
	PctNonDictionary float64
}

// Analyze computes the full report for a corpus of comments.
func Analyze(comments []string) Report {
	var r Report
	r.Comments = len(comments)
	uniqueComments := make(map[string]bool)
	uniqueWords := make(map[string]bool)
	chars, sentences, nonDict := 0, 0, 0
	for _, c := range comments {
		uniqueComments[c] = true
		sentences += countSentences(c)
		for _, w := range Tokenize(c) {
			r.Words++
			uniqueWords[w] = true
			chars += utf8.RuneCountInString(w)
			if !InDictionary(w) {
				nonDict++
			}
		}
	}
	r.UniqueComments = len(uniqueComments)
	r.UniqueWords = len(uniqueWords)
	if r.Comments > 0 {
		r.PctUniqueComments = 100 * float64(r.UniqueComments) / float64(r.Comments)
	}
	if r.Words > 0 {
		r.LexicalRichness = 100 * float64(r.UniqueWords) / float64(r.Words)
		r.PctNonDictionary = 100 * float64(nonDict) / float64(r.Words)
		if sentences > 0 {
			r.ARI = 4.71*(float64(chars)/float64(r.Words)) +
				0.5*(float64(r.Words)/float64(sentences)) - 21.43
		}
	}
	return r
}

// InDictionary reports whether the (lower-case) word appears in the
// embedded English word list.
func InDictionary(word string) bool {
	_, ok := dictionary[word]
	return ok
}
