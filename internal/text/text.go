// Package text provides the textual preprocessing used ahead of the
// embedding lookup: tokenization, stop-word removal, a vocabulary with
// Zipf-distributed sampling, and the "at least three content words"
// filter the paper applies to tweets and reviews (§7.1).
package text

import (
	"math"
	"math/rand/v2"
	"unicode"
	"unicode/utf8"
)

// stopWords is a compact English stop-word list in the spirit of the
// standard NLTK set; the paper drops stop-words before averaging word
// vectors.
var stopWords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "from": {}, "had": {}, "has": {},
	"have": {}, "he": {}, "her": {}, "his": {}, "i": {}, "in": {},
	"is": {}, "it": {}, "its": {}, "me": {}, "my": {}, "not": {},
	"of": {}, "on": {}, "or": {}, "our": {}, "she": {}, "so": {},
	"that": {}, "the": {}, "their": {}, "them": {}, "there": {},
	"they": {}, "this": {}, "to": {}, "was": {}, "we": {}, "were": {},
	"what": {}, "when": {}, "which": {}, "who": {}, "will": {},
	"with": {}, "you": {}, "your": {},
}

// IsStopWord reports whether w (lower-case) is in the stop-word list.
func IsStopWord(w string) bool {
	_, ok := stopWords[w]
	return ok
}

// Tokenize lower-cases s, splits it on any non-letter/digit rune, and
// drops stop-words and empty tokens. This mirrors the paper's
// preprocessing before the embedding lookup.
func Tokenize(s string) []string {
	var out []string
	var sc Scanner
	sc.Reset(s)
	for {
		tok, ok := sc.NextToken()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

// asciiClass sorts bytes into separators (0), lower-case letters and
// digits (1), upper-case letters (2), and the bytes from utf8.RuneSelf
// up, which start a multi-byte rune or are not UTF-8 (3).
var asciiClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = 3
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = 1
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = 1, 2
	}
	return t
}()

// Scanner splits a text into fields in one pass: the maximal runs of
// letters and digits of the lower-cased text, stop words included.
// Tokenize's tokens are its fields less the stop words. Fields are what
// strings.FieldsFunc gives over strings.ToLower: a rune is lower-cased
// by unicode.ToLower before it is classified, and a byte that is not
// valid UTF-8 separates (strings.ToLower turns it into U+FFFD). A field
// lower-casing leaves as it is costs no copy, and once its buffer has
// grown to the longest field that needed one, a Scanner allocates
// nothing.
type Scanner struct {
	s   string
	i   int
	buf []byte
}

// Reset starts scanning s.
func (sc *Scanner) Reset(s string) { sc.s, sc.i = s, 0 }

// Next returns the next field, and false once the text is exhausted.
// Exactly one of field and same carries it: same, a substring of the
// text, when lower-casing changes none of its bytes, and otherwise
// field, lower-cased in the scanner's buffer and valid until the next
// call.
func (sc *Scanner) Next() (field []byte, same string, ok bool) {
	s, i := sc.s, sc.i
	for i < len(s) && asciiClass[s[i]] == 0 {
		i++
	}
	start := i
	for i < len(s) && asciiClass[s[i]] == 1 {
		i++
	}
	if i == len(s) || asciiClass[s[i]] == 0 {
		// A lower-case ASCII field, or none: the common case.
		sc.i = i
		return nil, s[start:i], i > start
	}
	buf := append(sc.buf[:0], s[start:i]...)
	changed := false
scan:
	for i < len(s) {
		switch c := s[i]; asciiClass[c] {
		case 1:
			buf = append(buf, c)
			i++
		case 2:
			buf = append(buf, c+'a'-'A')
			changed = true
			i++
		case 3:
			r, w := utf8.DecodeRuneInString(s[i:])
			if l := unicode.ToLower(r); unicode.IsLetter(l) || unicode.IsDigit(l) {
				buf = utf8.AppendRune(buf, l)
				changed = changed || l != r
				i += w
				continue
			}
			if len(buf) > 0 {
				break scan
			}
			// A separator ahead of the field's first rune.
			i += w
			start = i
		default:
			if len(buf) > 0 {
				break scan
			}
			i++
			start = i
		}
	}
	sc.i = i
	if cap(buf) != cap(sc.buf) {
		sc.buf = buf
	}
	switch {
	case len(buf) == 0:
		return nil, "", false
	case changed:
		return buf, "", true
	}
	return nil, s[start:i], true
}

// NextToken returns the next field that is not a stop word — the next
// token Tokenize would return — and false once the text is exhausted.
// It allocates only for a token lower-casing changed.
func (sc *Scanner) NextToken() (string, bool) {
	for {
		field, same, ok := sc.Next()
		switch {
		case !ok:
			return "", false
		case field != nil:
			if _, stop := stopWords[string(field)]; !stop {
				return string(field), true
			}
		case !IsStopWord(same):
			return same, true
		}
	}
}

// MinContentWords is the minimum number of content words a document must
// have to be kept (paper §7.1: documents with fewer than 3 words are
// dropped).
const MinContentWords = 3

// Vocabulary is a fixed set of synthetic words with Zipf-distributed
// frequencies, grouped into topics. It backs the synthetic embedding
// model (see DESIGN.md §4 on substitutions).
type Vocabulary struct {
	Words  []string // Words[i] is the i-th most frequent word
	Topics []int    // Topics[i] is the topic id of Words[i]
	// members[t] lists the ranks of topic t's words, ascending: the
	// fallback pool of SampleTopicWord, built from Topics by the
	// constructors.
	members [][]int
	// byWord maps a word back to its index.
	byWord map[string]int
	// cdf is the cumulative Zipf distribution over word ranks.
	cdf []float64
}

// NewVocabulary builds a synthetic vocabulary of size words spread over
// numTopics topics, with Zipf exponent s (s≈1 mirrors natural language).
// Words are named "w<rank>" and assigned round-robin to topics so that
// every topic mixes frequent and rare words.
func NewVocabulary(size, numTopics int, s float64) *Vocabulary {
	if size < 1 || numTopics < 1 {
		panic("text: NewVocabulary requires size >= 1 and numTopics >= 1")
	}
	v := &Vocabulary{
		Words:  make([]string, size),
		Topics: make([]int, size),
		byWord: make(map[string]int, size),
		cdf:    make([]float64, size),
	}
	var total float64
	for i := 0; i < size; i++ {
		v.Words[i] = wordName(i)
		v.Topics[i] = i % numTopics
		v.byWord[v.Words[i]] = i
		total += 1 / math.Pow(float64(i+1), s)
		v.cdf[i] = total
	}
	for i := range v.cdf {
		v.cdf[i] /= total
	}
	v.indexTopics()
	return v
}

// NewVocabularyFromWords wraps an externally supplied word list (e.g.
// the words of a loaded GloVe file) as a Vocabulary with uniform sampling
// weights and a single topic. Duplicate words keep their first rank.
func NewVocabularyFromWords(words []string) *Vocabulary {
	if len(words) == 0 {
		panic("text: NewVocabularyFromWords with no words")
	}
	v := &Vocabulary{
		Words:  words,
		Topics: make([]int, len(words)),
		byWord: make(map[string]int, len(words)),
		cdf:    make([]float64, len(words)),
	}
	for i, w := range words {
		if _, dup := v.byWord[w]; !dup {
			v.byWord[w] = i
		}
		v.cdf[i] = float64(i+1) / float64(len(words))
	}
	v.indexTopics()
	return v
}

// indexTopics builds the per-topic member lists from Topics.
func (v *Vocabulary) indexTopics() {
	v.members = make([][]int, v.NumTopics())
	for i, t := range v.Topics {
		v.members[t] = append(v.members[t], i)
	}
}

func wordName(rank int) string {
	// A short deterministic pseudo-word: "w" + base-26 letters of rank.
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := []byte{'w'}
	r := rank
	for {
		b = append(b, letters[r%26])
		r /= 26
		if r == 0 {
			break
		}
	}
	return string(b)
}

// Size returns the number of words in the vocabulary.
func (v *Vocabulary) Size() int { return len(v.Words) }

// NumTopics returns the number of topics.
func (v *Vocabulary) NumTopics() int {
	max := 0
	for _, t := range v.Topics {
		if t > max {
			max = t
		}
	}
	return max + 1
}

// Index returns the rank of w and whether it is in the vocabulary.
func (v *Vocabulary) Index(w string) (int, bool) {
	i, ok := v.byWord[w]
	return i, ok
}

// SampleWord draws a word rank from the Zipf distribution.
func (v *Vocabulary) SampleWord(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(v.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SampleTopicWord draws a word rank whose topic equals topic, by
// rejection sampling from the Zipf distribution (falling back to a linear
// scan within the topic after too many rejections, which keeps the method
// exact for small topics).
func (v *Vocabulary) SampleTopicWord(rng *rand.Rand, topic int) int {
	for tries := 0; tries < 64; tries++ {
		w := v.SampleWord(rng)
		if v.Topics[w] == topic {
			return w
		}
	}
	// Deterministic fallback: uniformly among the topic's words.
	if topic < 0 || topic >= len(v.members) || len(v.members[topic]) == 0 {
		return v.SampleWord(rng)
	}
	members := v.members[topic]
	return members[rng.IntN(len(members))]
}
