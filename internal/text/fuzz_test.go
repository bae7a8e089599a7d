package text

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// tokenizeRef is the tokenizer Tokenize's one pass replaced, kept as its
// reference: lower-case the whole text, split it with FieldsFunc, drop
// the stop words.
func tokenizeRef(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if IsStopWord(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// FuzzTokenize checks the tokenizer on arbitrary bytes: the same tokens
// as tokenizeRef, token for token, every one non-empty, lower-case, free
// of stop words and separator runes.
func FuzzTokenize(f *testing.F) {
	f.Add("The quick brown fox!")
	f.Add("")
	f.Add("çafé ÜBER 123 --- \t\n")
	f.Add("a b c d e f g h")
	f.Add(strings.Repeat("word ", 100))
	f.Add("İstanbul Kelvin ΣΟΦΙΑ ǅemal x́y")
	f.Add("ok\xffbad\xc3 \xe2\x82 trunc\xf0\x9f")
	f.Add("A�BⅠⅰ ١٢٣ 中文 THE And")
	f.Fuzz(func(t *testing.T, s string) {
		tokens := Tokenize(s)
		if want := tokenizeRef(s); !slices.Equal(tokens, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, tokens, want)
		}
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			if IsStopWord(tok) {
				t.Fatalf("stop word %q survived", tok)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("separator rune %q in token %q", r, tok)
				}
			}
			// Lower-casing must be a fixed point. (Some uppercase runes
			// like U+03D2 have no lowercase mapping, so checking
			// unicode.IsUpper directly would be wrong.)
			if low := strings.ToLower(tok); low != tok {
				t.Fatalf("token %q not lower-cased (want %q)", tok, low)
			}
		}
	})
}
