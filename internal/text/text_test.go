package text

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	got := Tokenize("The quick, brown FOX jumps over the lazy dog!")
	want := []string{"quick", "brown", "fox", "jumps", "over", "lazy", "dog"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeDropsStopWordsAndPunct(t *testing.T) {
	got := Tokenize("it is a --- ???")
	if len(got) != 0 {
		t.Fatalf("expected empty tokens, got %v", got)
	}
}

func TestTokenizeKeepsDigits(t *testing.T) {
	got := Tokenize("route 66 diner")
	if len(got) != 3 || got[1] != "66" {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestIsStopWord(t *testing.T) {
	if !IsStopWord("the") {
		t.Fatal("'the' should be a stop word")
	}
	if IsStopWord("restaurant") {
		t.Fatal("'restaurant' should not be a stop word")
	}
}

func TestVocabularyBasics(t *testing.T) {
	v := NewVocabulary(100, 7, 1.0)
	if v.Size() != 100 {
		t.Fatalf("Size = %d", v.Size())
	}
	if v.NumTopics() != 7 {
		t.Fatalf("NumTopics = %d", v.NumTopics())
	}
	// Every word maps back to its own rank.
	for i, w := range v.Words {
		j, ok := v.Index(w)
		if !ok || j != i {
			t.Fatalf("Index(%q) = %d,%v want %d,true", w, j, ok, i)
		}
	}
	if _, ok := v.Index("notaword"); ok {
		t.Fatal("unknown word should not be found")
	}
}

func TestWordNamesUnique(t *testing.T) {
	v := NewVocabulary(2000, 3, 1.0)
	seen := make(map[string]struct{}, v.Size())
	for _, w := range v.Words {
		if _, dup := seen[w]; dup {
			t.Fatalf("duplicate word name %q", w)
		}
		seen[w] = struct{}{}
	}
}

func TestSampleWordZipfSkew(t *testing.T) {
	v := NewVocabulary(1000, 10, 1.0)
	rng := rand.New(rand.NewPCG(1, 1))
	counts := make([]int, v.Size())
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[v.SampleWord(rng)]++
	}
	// Rank 0 should be drawn far more often than rank 100.
	if counts[0] < 4*counts[100] {
		t.Fatalf("Zipf skew missing: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
	// All draws are valid ranks (no panic) and frequent words dominate.
	var topDecile int
	for i := 0; i < 100; i++ {
		topDecile += counts[i]
	}
	if float64(topDecile)/draws < 0.5 {
		t.Fatalf("top-100 words only %d/%d draws", topDecile, draws)
	}
}

func TestSampleTopicWordRespectsTopic(t *testing.T) {
	v := NewVocabulary(500, 5, 1.0)
	rng := rand.New(rand.NewPCG(2, 3))
	for topic := 0; topic < 5; topic++ {
		for i := 0; i < 200; i++ {
			w := v.SampleTopicWord(rng, topic)
			if v.Topics[w] != topic {
				t.Fatalf("word %d has topic %d, want %d", w, v.Topics[w], topic)
			}
		}
	}
}

func TestNewVocabularyPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVocabulary(0, 1, 1.0)
}

// TestTokenizeMatchesRef holds the one-pass tokenizer to tokenizeRef,
// token for token, on texts that take each of its paths: lower-case
// ASCII, upper-case ASCII, multi-byte runes lower-casing keeps, changes
// or shortens, non-letter runes, invalid and truncated UTF-8, and
// separators before, between and after fields.
func TestTokenizeMatchesRef(t *testing.T) {
	for _, s := range []string{
		"", " ", "wa wb wzab", "The quick, brown FOX!", "route 66 diner",
		"çafé ÇAFÉ straße", "İstanbul K Kelvin", "ΣΟΦΙΑ σοφια", "東京 中文",
		"—lead trail— mid—dle", "x́y", "Ⅰⅰ ① ١٢٣", " nbsp em",
		"ok\xffbad\xc3 \xe2\x82 trunc\xf0\x9f", "\xff", "a\x00b", "the AND Of",
		"ǅemal ǆ", "MiXeD123CaSe", "��w�",
	} {
		if got, want := Tokenize(s), tokenizeRef(s); !slices.Equal(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	}
}
