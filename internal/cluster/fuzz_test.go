package cluster

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// FuzzTokenize demands the production Tokenize produce exactly the token
// list of the map-deduping oracle (oracle_test.go) on any text: invalid
// UTF-8, the multi-byte trim runes, stopwords, and long documents past
// the linear dedupe scan.
func FuzzTokenize(f *testing.F) {
	f.Add("RT @user12: Bomb threat at Mira Costa!")
	f.Add("check http://t.co/abc now now NOW… —now— (now)")
	f.Add("\xff\xfe rt \xe2\x80 …\xe2\x80\xa6— «quote» Ünïcode ÜNÏCODE")
	f.Add(strings.Repeat("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 ", 12) + "tail tail w1")
	f.Fuzz(func(t *testing.T, text string) {
		got, want := Tokenize(text), oracleTokenize(text)
		if !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, oracle %q", text, got, want)
		}
	})
}

// FuzzIncremental streams fuzzed documents over a six-token vocabulary
// (duplicates within a document allowed, as Add accepts them) so Jaccard
// ties and exact-threshold similarities such as 2/4 = 0.5 are common, with
// postings caps as small as one. Every assignment, the leader list and the
// State JSON must equal the oracle's, including across a State →
// RestoreIncremental round trip through JSON in mid-stream.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{3, 2, 3, 0, 1, 2, 3, 0, 1, 3, 2, 0, 1})
	f.Add([]byte{0x21, 4, 2, 0, 1, 2, 0, 1, 1, 0, 2, 0, 0, 2, 1, 1, 3, 0, 1, 2})
	f.Add([]byte{0x10, 1, 2, 0, 0, 2, 0, 0, 0, 1, 0, 3, 1, 1, 2})
	f.Add([]byte{0x35, 6, 3, 0, 1, 5, 3, 1, 2, 5, 2, 0, 1, 2, 4, 5, 3, 0, 4, 5})
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	thresholds := []float64{0, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		l := &Leader{
			Threshold:   thresholds[int(data[0]&0x0f)%len(thresholds)],
			MaxPostings: int(data[0]>>4) % 4, // 0 selects the default cap
		}
		cut := int(data[1])
		var docs [][]string
		for rest := data[2:]; len(rest) > 0; {
			n := int(rest[0]) % 5
			rest = rest[1:]
			if n > len(rest) {
				n = len(rest)
			}
			doc := make([]string, 0, n) // non-nil even when empty, as from Tokenize
			for _, b := range rest[:n] {
				doc = append(doc, vocab[int(b)%len(vocab)])
			}
			docs = append(docs, doc)
			rest = rest[n:]
		}
		if len(docs) > 0 {
			cut %= len(docs) + 1
		}

		inc, oracle := l.Incremental(), newOracleIncremental(l)
		for d, doc := range docs {
			if d == cut {
				inc = jsonRoundTrip(t, inc)
				requireSameStateJSON(t, inc.State(), oracle.State())
			}
			if got, want := inc.Add(doc), oracle.Add(doc); got != want {
				t.Fatalf("doc %d %q: cluster %d, oracle %d", d, doc, got, want)
			}
		}
		if got, want := inc.Leaders(), oracle.leaders; !slices.Equal(got, want) {
			t.Fatalf("leaders %v, oracle %v", got, want)
		}
		requireSameStateJSON(t, inc.State(), oracle.State())
	})
}

// FuzzRestoreIncremental feeds hostile JSON to RestoreIncremental: it
// must return an error, never panic, and any state it accepts must
// round-trip through State and then cluster probe documents exactly as the
// oracle restored from the same state does.
func FuzzRestoreIncremental(f *testing.F) {
	inc := (&Leader{MaxPostings: 2}).Incremental()
	for _, doc := range [][]string{{"a", "b"}, {"c"}, {"a", "b", "d"}, nil, {"a", "c"}} {
		inc.Add(doc)
	}
	real, err := json.Marshal(inc.State())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"threshold":0.5,"maxPostings":128,"docs":0,"leaders":null,"leaderTokens":[]}`))
	f.Add([]byte(`{"threshold":0.5,"maxPostings":1,"docs":3,"leaders":[0,2],"leaderTokens":[["a","a"],["a","a","a"]]}`))
	f.Add([]byte(`{"threshold":0,"maxPostings":0,"docs":2,"leaders":[1,0],"leaderTokens":[["x"],[]]}`))
	f.Add([]byte(`{"threshold":0.5,"maxPostings":4,"docs":-1,"leaders":[0],"leaderTokens":[[""]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st IncrementalState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		inc, err := RestoreIncremental(&st)
		if err != nil {
			return
		}
		requireSameState(t, inc.State(), &st)
		oracle, err := restoreOracleIncremental(&st)
		if err != nil {
			t.Fatalf("oracle rejects a state production accepts: %v", err)
		}
		for _, probe := range st.LeaderTokens {
			if got, want := inc.Add(probe), oracle.Add(probe); got != want {
				t.Fatalf("probe %q: cluster %d, oracle %d", probe, got, want)
			}
		}
		requireSameStateJSON(t, inc.State(), oracle.State())
	})
}

func jsonRoundTrip(t *testing.T, inc *Incremental) *Incremental {
	t.Helper()
	data, err := json.Marshal(inc.State())
	if err != nil {
		t.Fatal(err)
	}
	var st IncrementalState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(&st)
	if err != nil {
		t.Fatalf("restore of a real state: %v", err)
	}
	return restored
}

// requireSameState compares two states field by field; a nil and an empty
// list are the same state.
func requireSameState(t *testing.T, got, want *IncrementalState) {
	t.Helper()
	same := got.Threshold == want.Threshold && got.MaxPostings == want.MaxPostings &&
		got.Docs == want.Docs && slices.Equal(got.Leaders, want.Leaders) &&
		slices.EqualFunc(got.LeaderTokens, want.LeaderTokens, func(a, b []string) bool {
			return slices.Equal(a, b)
		})
	if !same {
		t.Fatalf("state %+v, want %+v", got, want)
	}
}

// requireSameStateJSON demands byte-identical State encodings.
func requireSameStateJSON(t *testing.T, got, want *IncrementalState) {
	t.Helper()
	g, err1 := json.Marshal(got)
	w, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatalf("encode: %v / %v", err1, err2)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("state JSON differs:\n got  %s\n want %s", g, w)
	}
}
