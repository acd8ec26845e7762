package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// TestIncrementalMatchesBatch is the refactor's core contract: feeding a
// stream through Add, split across arbitrary batch boundaries, yields
// exactly the assignment Cluster produces on the whole slice.
func TestIncrementalMatchesBatch(t *testing.T) {
	docs := twittersimSmall(t)
	batch := (&Leader{}).Cluster(docs)

	inc := (&Leader{}).Incremental()
	got := make([]int, len(docs))
	for d, doc := range docs {
		got[d] = inc.Add(doc)
	}
	for d := range docs {
		if got[d] != batch.Cluster[d] {
			t.Fatalf("doc %d: incremental cluster %d, batch %d", d, got[d], batch.Cluster[d])
		}
	}
	if inc.NumClusters() != batch.NumClusters {
		t.Fatalf("clusters: incremental %d, batch %d", inc.NumClusters(), batch.NumClusters)
	}
	leaders := inc.Leaders()
	for c := range leaders {
		if leaders[c] != batch.Leaders[c] {
			t.Fatalf("cluster %d leader: incremental %d, batch %d", c, leaders[c], batch.Leaders[c])
		}
	}
}

// TestIncrementalStableIDsAcrossBatches: a cluster id assigned in an early
// batch keeps meaning the same assertion for every later document.
func TestIncrementalStableIDsAcrossBatches(t *testing.T) {
	inc := (&Leader{}).Incremental()
	first := inc.Add([]string{"explosion", "bridge", "north"})
	second := inc.Add([]string{"outage", "campus", "south"})
	if first == second {
		t.Fatal("distinct documents merged")
	}
	// A later batch's near-duplicate joins the original cluster.
	if got := inc.Add([]string{"explosion", "bridge", "north", "breaking"}); got != first {
		t.Fatalf("repeat assigned to %d, want %d", got, first)
	}
	if got := inc.Add([]string{"outage", "campus", "south"}); got != second {
		t.Fatalf("repeat assigned to %d, want %d", got, second)
	}
	if inc.Docs() != 4 {
		t.Fatalf("docs = %d, want 4", inc.Docs())
	}
}

// TestAssignDoesNotMutate: Assign previews the assignment without founding
// clusters or consuming a document id.
func TestAssignDoesNotMutate(t *testing.T) {
	inc := (&Leader{}).Incremental()
	if got := inc.Assign([]string{"fresh", "tokens"}); got != -1 {
		t.Fatalf("Assign on empty state = %d, want -1", got)
	}
	if inc.NumClusters() != 0 || inc.Docs() != 0 {
		t.Fatal("Assign mutated state")
	}
	c := inc.Add([]string{"fresh", "tokens"})
	if got := inc.Assign([]string{"fresh", "tokens"}); got != c {
		t.Fatalf("Assign = %d, want %d", got, c)
	}
	if inc.Docs() != 1 {
		t.Fatalf("docs = %d, want 1", inc.Docs())
	}
}

// TestIncrementalStateRoundTrip: snapshotting mid-stream and restoring
// (through JSON, as the ingest snapshot does) continues the stream with
// assignments identical to the uninterrupted run.
func TestIncrementalStateRoundTrip(t *testing.T) {
	docs := twittersimSmall(t)
	cut := len(docs) / 2

	full := (&Leader{}).Incremental()
	want := make([]int, len(docs))
	for d, doc := range docs {
		want[d] = full.Add(doc)
	}

	half := (&Leader{}).Incremental()
	for _, doc := range docs[:cut] {
		half.Add(doc)
	}
	data, err := json.Marshal(half.State())
	if err != nil {
		t.Fatal(err)
	}
	var st IncrementalState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(&st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Docs() != cut {
		t.Fatalf("restored docs = %d, want %d", restored.Docs(), cut)
	}
	for d := cut; d < len(docs); d++ {
		if got := restored.Add(docs[d]); got != want[d] {
			t.Fatalf("doc %d after restore: cluster %d, want %d", d, got, want[d])
		}
	}
	if restored.NumClusters() != full.NumClusters() {
		t.Fatalf("clusters after restore = %d, want %d", restored.NumClusters(), full.NumClusters())
	}
}

// TestIncrementalStateRebuildsPostingsCap: the restored inverted index
// honors the postings cap exactly as the original run did, so hub tokens
// keep generating the same (capped) candidate sets after a restart.
func TestIncrementalStateRebuildsPostingsCap(t *testing.T) {
	l := &Leader{MaxPostings: 4}
	inc := l.Incremental()
	for d := 0; d < 50; d++ {
		inc.Add([]string{"hub", token("unique", d), token("extra", d)})
	}
	restored, err := RestoreIncremental(inc.State())
	if err != nil {
		t.Fatal(err)
	}
	probe := []string{"hub", "unique49", "extra49"}
	if got, want := restored.Assign(probe), inc.Assign(probe); got != want {
		t.Fatalf("restored Assign = %d, original %d", got, want)
	}
	// Both continue identically on a fresh shared-token stream.
	for d := 0; d < 20; d++ {
		doc := []string{"hub", token("late", d)}
		if got, want := restored.Add(doc), inc.Add(doc); got != want {
			t.Fatalf("post-restore doc %d: %d vs %d", d, got, want)
		}
	}
}

func TestRestoreIncrementalRejectsBadState(t *testing.T) {
	cases := []*IncrementalState{
		nil,
		{Docs: 1, Leaders: []int{0}, LeaderTokens: nil},
		{Docs: 0, Leaders: []int{0}, LeaderTokens: [][]string{{"a"}}},
		{Docs: 2, Leaders: []int{5}, LeaderTokens: [][]string{{"a"}}},
		// States no run produces: missing defaults, a document 0 that
		// founds nothing, leaders out of order.
		{Threshold: 0, MaxPostings: 128, Docs: 1, Leaders: []int{0}, LeaderTokens: [][]string{{"a"}}},
		{Threshold: 0.5, MaxPostings: 0, Docs: 1, Leaders: []int{0}, LeaderTokens: [][]string{{"a"}}},
		{Threshold: 0.5, MaxPostings: 128, Docs: 1},
		{Threshold: 0.5, MaxPostings: 128, Docs: 2, Leaders: []int{1}, LeaderTokens: [][]string{{"a"}}},
		{Threshold: 0.5, MaxPostings: 128, Docs: 3, Leaders: []int{0, 2, 1}, LeaderTokens: [][]string{{"a"}, {"b"}, {"c"}}},
		{Threshold: 0.5, MaxPostings: 128, Docs: 3, Leaders: []int{0, 0}, LeaderTokens: [][]string{{"a"}, {"b"}}},
	}
	for i, st := range cases {
		if _, err := RestoreIncremental(st); err == nil {
			t.Fatalf("case %d: bad state accepted", i)
		}
	}
}

// TestIncrementalMatchesBatchOnLargeStream exercises the equivalence on a
// generated stream with a second seed and a non-default configuration.
func TestIncrementalMatchesBatchOnLargeStream(t *testing.T) {
	sc := twittersim.Small("Kirkuk", 30)
	w, err := twittersim.Generate(sc, randutil.New(11))
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]string, len(w.Tweets))
	for i, tw := range w.Tweets {
		docs[i] = Tokenize(tw.Text)
	}
	l := &Leader{Threshold: 0.4, MaxPostings: 16}
	batch := l.Cluster(docs)
	inc := l.Incremental()
	for d, doc := range docs {
		if got := inc.Add(doc); got != batch.Cluster[d] {
			t.Fatalf("doc %d: incremental %d, batch %d", d, got, batch.Cluster[d])
		}
	}
}

func token(stem string, d int) string {
	return stem + string(rune('0'+d/10)) + string(rune('0'+d%10))
}

// TestStateUnchangedByLaterAdds: State shares the leader lists instead of
// copying them, so a State captured at batch k must read the same while
// the clusterer keeps founding clusters (growing, and reallocating, the
// lists it shares) — also when another goroutine encodes it meanwhile, as
// the ingest estimator stage does with the clusterer stage running.
func TestStateUnchangedByLaterAdds(t *testing.T) {
	docs := twittersimSmall(t)
	inc := (&Leader{}).Incremental()
	const batch = 64
	for k := 0; k*batch < len(docs); k++ {
		for _, doc := range docs[k*batch : min((k+1)*batch, len(docs))] {
			inc.Add(doc)
		}
		st := inc.State()
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan []byte)
		go func() {
			got, _ := json.Marshal(st)
			done <- got
		}()
		for _, doc := range docs[min((k+1)*batch, len(docs)):] {
			inc.Add(append([]string{"later"}, doc...))
		}
		concurrent := <-done
		after, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(concurrent, want) || !bytes.Equal(after, want) {
			t.Fatalf("batch %d: State changed after later Adds", k)
		}
		// Nor may appending to the captured lists write into the
		// clusterer's own.
		before, err := json.Marshal(inc.State())
		if err != nil {
			t.Fatal(err)
		}
		_ = append(st.Leaders, -1)
		_ = append(st.LeaderTokens, []string{"junk"})
		if now, _ := json.Marshal(inc.State()); !bytes.Equal(now, before) {
			t.Fatalf("batch %d: appending to a State wrote into the clusterer", k)
		}
		// Continue from the state as captured, not from the probe Adds.
		if inc, err = RestoreIncremental(st); err != nil {
			t.Fatal(err)
		}
	}
}
