package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"RT @user12: Bomb threat at Mira Costa!", []string{"bomb", "threat", "mira", "costa"}},
		{"The explosion was near THE bridge.", []string{"explosion", "near", "bridge"}},
		{"check http://t.co/abc now now now", []string{"check", "now"}},
		{"", nil},
		{"rt rt RT", nil},
		{"...!!!", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestTokenizeDeduplicates(t *testing.T) {
	got := Tokenize("fire fire fire alarm")
	if len(got) != 2 {
		t.Fatalf("tokens = %v", got)
	}
}

func TestRetweetClustersWithOriginal(t *testing.T) {
	original := "witness3 reported explosion near bridge7 #paris"
	retweet := "rt @user55: witness3 reported explosion near bridge7 #paris"
	other := "official9 denied outage near campus2 #paris"

	l := &Leader{}
	docs := [][]string{Tokenize(original), Tokenize(retweet), Tokenize(other)}
	a := l.Cluster(docs)
	if a.Cluster[0] != a.Cluster[1] {
		t.Fatal("retweet not clustered with its original")
	}
	if a.Cluster[2] == a.Cluster[0] {
		t.Fatal("unrelated tweet merged")
	}
	if a.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", a.NumClusters)
	}
}

func TestLeadersRecorded(t *testing.T) {
	l := &Leader{}
	a := l.Cluster([][]string{
		{"alpha", "beta", "gamma"},
		{"alpha", "beta", "gamma", "delta"},
		{"omega", "psi", "chi"},
	})
	if len(a.Leaders) != a.NumClusters {
		t.Fatalf("leaders %d vs clusters %d", len(a.Leaders), a.NumClusters)
	}
	if a.Leaders[0] != 0 || a.Leaders[1] != 2 {
		t.Fatalf("leaders = %v", a.Leaders)
	}
}

func TestThresholdControlsMerging(t *testing.T) {
	// 3 of 5 shared tokens: Jaccard = 3/7 ≈ 0.43.
	a := []string{"t1", "t2", "t3", "x1", "x2"}
	b := []string{"t1", "t2", "t3", "y1", "y2"}
	strict := &Leader{Threshold: 0.5}
	if got := strict.Cluster([][]string{a, b}); got.NumClusters != 2 {
		t.Fatal("0.43 similarity merged at threshold 0.5")
	}
	loose := &Leader{Threshold: 0.4}
	if got := loose.Cluster([][]string{a, b}); got.NumClusters != 1 {
		t.Fatal("0.43 similarity not merged at threshold 0.4")
	}
}

func TestEmptyDocuments(t *testing.T) {
	l := &Leader{}
	a := l.Cluster([][]string{nil, {"word"}, nil})
	if len(a.Cluster) != 3 {
		t.Fatalf("assignments = %v", a.Cluster)
	}
	// Empty docs cannot share tokens; each becomes its own cluster.
	if a.Cluster[0] == a.Cluster[1] || a.Cluster[0] == a.Cluster[2] {
		t.Fatalf("empty docs merged: %v", a.Cluster)
	}
}

func TestClusterAssignmentsComplete(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		docs := make([][]string, 30)
		for d := range docs {
			n := int(seed>>uint(d%8))%4 + 1
			for k := 0; k < n; k++ {
				docs[d] = append(docs[d], fmt.Sprintf("tok%d", (int(seed)+d*k)%17))
			}
		}
		a := (&Leader{}).Cluster(docs)
		if len(a.Cluster) != len(docs) {
			return false
		}
		for _, c := range a.Cluster {
			if c < 0 || c >= a.NumClusters {
				return false
			}
		}
		// Every cluster id must be used.
		used := make([]bool, a.NumClusters)
		for _, c := range a.Cluster {
			used[c] = true
		}
		for _, u := range used {
			if !u {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxPostingsStopsHubTokens(t *testing.T) {
	// 300 docs sharing one hub token plus a unique token each: with a tiny
	// postings cap the clusterer must still terminate and produce 300
	// singleton clusters (hub token alone is below threshold anyway).
	docs := make([][]string, 300)
	for d := range docs {
		docs[d] = []string{"hub", fmt.Sprintf("unique%d", d), fmt.Sprintf("extra%d", d)}
	}
	a := (&Leader{MaxPostings: 4}).Cluster(docs)
	if a.NumClusters != 300 {
		t.Fatalf("clusters = %d, want 300", a.NumClusters)
	}
}

func TestMinHashMatchesLeaderOnRetweets(t *testing.T) {
	original := "witness3 reported explosion near bridge7 #paris"
	retweet := "rt @user55: witness3 reported explosion near bridge7 #paris"
	other := "official9 denied outage near campus2 #paris"
	docs := [][]string{Tokenize(original), Tokenize(retweet), Tokenize(other)}
	a := (&MinHash{}).Cluster(docs)
	if a.Cluster[0] != a.Cluster[1] {
		t.Fatal("retweet not clustered with its original")
	}
	if a.Cluster[2] == a.Cluster[0] {
		t.Fatal("unrelated tweet merged")
	}
}

func TestMinHashAgreementWithLeader(t *testing.T) {
	sc := twittersimSmall(t)
	leader := (&Leader{}).Cluster(sc)
	minhash := (&MinHash{}).Cluster(sc)
	// Pairwise agreement: two docs co-clustered under one method should
	// mostly be co-clustered under the other. Sample pairs within leader
	// clusters.
	agree, total := 0, 0
	byCluster := map[int][]int{}
	for d, c := range leader.Cluster {
		byCluster[c] = append(byCluster[c], d)
	}
	for _, members := range byCluster {
		for k := 1; k < len(members); k++ {
			total++
			if minhash.Cluster[members[0]] == minhash.Cluster[members[k]] {
				agree++
			}
		}
	}
	if total == 0 {
		t.Skip("no multi-document clusters")
	}
	rate := float64(agree) / float64(total)
	if rate < 0.9 {
		t.Fatalf("minhash co-clusters only %.2f of leader pairs", rate)
	}
}

func TestMinHashDeterministic(t *testing.T) {
	docs := twittersimSmall(t)
	a := (&MinHash{Seed: 5}).Cluster(docs)
	b := (&MinHash{Seed: 5}).Cluster(docs)
	for d := range a.Cluster {
		if a.Cluster[d] != b.Cluster[d] {
			t.Fatal("same seed, different clustering")
		}
	}
}

func TestMinHashEmptyDocs(t *testing.T) {
	a := (&MinHash{}).Cluster([][]string{nil, {"word"}, nil})
	if len(a.Cluster) != 3 || a.NumClusters < 2 {
		t.Fatalf("assignment = %+v", a)
	}
}

func TestMinHashBadBandsFallsBack(t *testing.T) {
	// Hashes not divisible by Bands must not panic.
	a := (&MinHash{Hashes: 10, Bands: 16}).Cluster([][]string{{"a", "b"}, {"a", "b"}})
	if a.Cluster[0] != a.Cluster[1] {
		t.Fatal("identical docs split")
	}
}

// twittersimSmall tokenizes a small simulated stream for cross-method tests.
func twittersimSmall(t *testing.T) [][]string {
	t.Helper()
	sc := twittersim.Small("Ukraine", 20)
	w, err := twittersim.Generate(sc, randutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]string, len(w.Tweets))
	for i, tw := range w.Tweets {
		docs[i] = Tokenize(tw.Text)
	}
	return docs
}

// TestClusterStableAcrossRuns is the regression test for the map-iteration
// fix in Leader.Cluster: documents engineered to tie on Jaccard similarity
// between two clusters must land in the same cluster on every run. Before
// the fix, candidate clusters were scanned in map order, so the winner of a
// tie depended on Go's randomized map iteration.
func TestClusterStableAcrossRuns(t *testing.T) {
	// Leaders l1 = {a, b, x} and l2 = {a, b, y}; the probe {a, b} has
	// Jaccard 2/3 with both, an exact tie. The contract: lowest cluster
	// id wins.
	docs := [][]string{
		{"a", "b", "x"},
		{"a", "b", "y"},
		{"a", "b"},
	}
	l := &Leader{Threshold: 0.5}
	first := l.Cluster(docs)
	if first.Cluster[2] != 0 {
		t.Fatalf("tie broke to cluster %d, want lowest id 0", first.Cluster[2])
	}
	for run := 0; run < 50; run++ {
		got := l.Cluster(docs)
		for d := range docs {
			if got.Cluster[d] != first.Cluster[d] {
				t.Fatalf("run %d: doc %d assigned to %d, first run said %d",
					run, d, got.Cluster[d], first.Cluster[d])
			}
		}
	}
}

// TestClusterMatchesOracle pins the map-free clustering path to the
// oracle (oracle_test.go) on every twittersim preset: identical tokens for
// every tweet, and identical assignments and leaders across thresholds and
// postings caps, including caps small enough that hub tokens stop
// generating candidates.
func TestClusterMatchesOracle(t *testing.T) {
	for _, sc := range twittersim.Presets() {
		w, err := twittersim.Generate(twittersim.Small(sc.Name, 20), randutil.New(5))
		if err != nil {
			t.Fatal(err)
		}
		docs := make([][]string, len(w.Tweets))
		for i, tw := range w.Tweets {
			docs[i] = Tokenize(tw.Text)
			if want := oracleTokenize(tw.Text); !slices.Equal(docs[i], want) {
				t.Fatalf("%s tweet %d: tokens %q, oracle %q", sc.Name, i, docs[i], want)
			}
		}
		for _, threshold := range []float64{0, 0.3, 0.5, 0.8} {
			for _, maxPostings := range []int{0, 4, 1000} {
				l := &Leader{Threshold: threshold, MaxPostings: maxPostings}
				got := l.Cluster(docs)
				oracle := newOracleIncremental(l)
				for d, doc := range docs {
					if want := oracle.Add(doc); got.Cluster[d] != want {
						t.Fatalf("%s threshold %v cap %d doc %d: cluster %d, oracle %d",
							sc.Name, threshold, maxPostings, d, got.Cluster[d], want)
					}
				}
				if !slices.Equal(got.Leaders, oracle.leaders) {
					t.Fatalf("%s threshold %v cap %d: leaders differ from oracle", sc.Name, threshold, maxPostings)
				}
			}
		}
	}
}

// TestTokenizeLongDocument covers the set-based dedupe a document switches
// to past dedupeScanMax tokens, against the oracle.
func TestTokenizeLongDocument(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5*dedupeScanMax; i++ {
		fmt.Fprintf(&b, "w%d, The W%d! ", i%(2*dedupeScanMax), (7*i)%(3*dedupeScanMax))
	}
	text := b.String()
	got, want := Tokenize(text), oracleTokenize(text)
	if len(want) <= dedupeScanMax || !slices.Equal(got, want) {
		t.Fatalf("Tokenize gave %d tokens, oracle %d (need more than %d)", len(got), len(want), dedupeScanMax)
	}
}
