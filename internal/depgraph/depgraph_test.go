package depgraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddFollow(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddFollow(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddFollow(0, 1); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := g.AddFollow(1, 1); err != nil { // self-follow ignored
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if err := g.AddFollow(0, 3); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}
	if err := g.AddFollow(-1, 0); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}
}

func TestFollowersInverse(t *testing.T) {
	g := NewGraph(4)
	_ = g.AddFollow(1, 0)
	_ = g.AddFollow(2, 0)
	_ = g.AddFollow(3, 2)
	f := g.Followers()
	if len(f[0]) != 2 || len(f[2]) != 1 || len(f[1]) != 0 {
		t.Fatalf("followers = %v", f)
	}
}

// TestFigureOneExample reproduces the running example of Section II-A:
// John (S1) follows Sally (S2) but not Heather (S3). Sally tweets C1 at t1,
// Heather tweets C2 at t1, John tweets C1 at t2 and C2 at t3. Only John's
// repeat of Sally's assertion is dependent.
func TestFigureOneExample(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddFollow(0, 1); err != nil { // John follows Sally
		t.Fatal(err)
	}
	events := []Event{
		{Source: 1, Assertion: 0, Time: 1}, // Sally: Main St congested
		{Source: 2, Assertion: 1, Time: 1}, // Heather: University Ave congested
		{Source: 0, Assertion: 0, Time: 2}, // John repeats Sally
		{Source: 0, Assertion: 1, Time: 3}, // John independently matches Heather
	}
	ds, err := BuildDataset(g, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Claimed(0, 0) || !ds.Claimed(0, 1) || !ds.Claimed(1, 0) || !ds.Claimed(2, 1) {
		t.Fatal("claims missing")
	}
	if !ds.Dependent(0, 0) {
		t.Error("D[1,1] should be 1 (John repeated Sally)")
	}
	if ds.Dependent(0, 1) {
		t.Error("D[1,2] should be 0 (John does not follow Heather)")
	}
	if ds.Dependent(1, 0) || ds.Dependent(2, 1) {
		t.Error("Sally's and Heather's tweets are independent")
	}
	if ds.NumDependentClaims() != 1 || ds.NumClaims() != 4 {
		t.Fatalf("summary: %+v", ds.Summarize())
	}
}

func TestSimultaneousClaimsAreIndependent(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddFollow(1, 0)
	events := []Event{
		{Source: 0, Assertion: 0, Time: 5},
		{Source: 1, Assertion: 0, Time: 5}, // same instant: not "before"
	}
	ds, err := BuildDataset(g, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dependent(1, 0) {
		t.Fatal("simultaneous claim must not be dependent")
	}
}

func TestDuplicateEventsCollapseToEarliest(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddFollow(1, 0)
	events := []Event{
		{Source: 1, Assertion: 0, Time: 1}, // follower first...
		{Source: 0, Assertion: 0, Time: 2},
		{Source: 1, Assertion: 0, Time: 3}, // ...then repeats after ancestor
	}
	ds, err := BuildDataset(g, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Earliest claim (t=1) precedes the ancestor's (t=2): independent.
	if ds.Dependent(1, 0) {
		t.Fatal("earliest-claim semantics violated")
	}
	if ds.NumClaims() != 2 {
		t.Fatalf("claims = %d, want 2", ds.NumClaims())
	}
}

func TestSilentDependentPairs(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddFollow(1, 0)
	_ = g.AddFollow(2, 0)
	events := []Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2},
	}
	ds, err := BuildDataset(g, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Source 2 follows 0, saw assertion 0, stayed silent.
	if got := ds.SilentDependents(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("SilentDependents(0) = %v", got)
	}
	// Nobody claimed assertion 1 at all.
	if len(ds.SilentDependents(1)) != 0 {
		t.Fatal("assertion 1 has spurious silent dependents")
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	g := NewGraph(1)
	if _, err := BuildDataset(g, []Event{{Source: 1, Assertion: 0, Time: 1}}, 1); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}
	if _, err := BuildDataset(g, []Event{{Source: 0, Assertion: 2, Time: 1}}, 1); err == nil {
		t.Fatal("out-of-range assertion accepted")
	}
}

func TestSortEvents(t *testing.T) {
	events := []Event{
		{Source: 2, Assertion: 1, Time: 5},
		{Source: 1, Assertion: 0, Time: 5},
		{Source: 1, Assertion: 2, Time: 1},
		{Source: 1, Assertion: 1, Time: 5},
	}
	SortEvents(events)
	want := []Event{
		{Source: 1, Assertion: 2, Time: 1},
		{Source: 1, Assertion: 0, Time: 5},
		{Source: 1, Assertion: 1, Time: 5},
		{Source: 2, Assertion: 1, Time: 5},
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("SortEvents[%d] = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestForestShape(t *testing.T) {
	err := quick.Check(func(nRaw, tauRaw uint8) bool {
		n := int(nRaw%40) + 1
		tau := int(tauRaw%uint8(n)) + 1
		g, isRoot, err := Forest(n, tau)
		if err != nil {
			return false
		}
		roots := 0
		for i := 0; i < n; i++ {
			anc := g.Ancestors(i)
			if isRoot[i] {
				roots++
				if len(anc) != 0 {
					return false
				}
			} else {
				// Level-two: exactly one ancestor, which is a root.
				if len(anc) != 1 || !isRoot[anc[0]] {
					return false
				}
			}
		}
		return roots == tau && g.NumEdges() == n-tau
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForestBalance(t *testing.T) {
	g, _, err := Forest(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 3; i < 10; i++ {
		counts[g.Ancestors(i)[0]]++
	}
	for _, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("unbalanced forest: %v", counts)
		}
	}
}

func TestForestValidation(t *testing.T) {
	if _, _, err := Forest(5, 0); err == nil {
		t.Fatal("tau=0 accepted")
	}
	if _, _, err := Forest(5, 6); err == nil {
		t.Fatal("tau>n accepted")
	}
}

func TestForestWithDepthShape(t *testing.T) {
	err := quick.Check(func(nRaw, tauRaw, depthRaw uint8) bool {
		n := int(nRaw%60) + 1
		tau := int(tauRaw%uint8(n)) + 1
		depth := 2 + int(depthRaw%4)
		g, parent, err := ForestWithDepth(n, tau, depth)
		if err != nil {
			return false
		}
		if len(parent) != n || g.NumEdges() != n-tau {
			return false
		}
		level := make([]int, n)
		roots := 0
		for i := 0; i < n; i++ {
			p := parent[i]
			if p < 0 {
				roots++
				level[i] = 1
				if len(g.Ancestors(i)) != 0 {
					return false
				}
				continue
			}
			// Parents precede children (topological id order) and carry
			// the single follow edge.
			if p >= i {
				return false
			}
			anc := g.Ancestors(i)
			if len(anc) != 1 || anc[0] != p {
				return false
			}
			level[i] = level[p] + 1
			if level[i] > depth {
				return false
			}
		}
		return roots == tau
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForestWithDepthReachesDepth(t *testing.T) {
	_, parent, err := ForestWithDepth(30, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	level := make([]int, 30)
	deepest := 0
	for i, p := range parent {
		if p < 0 {
			level[i] = 1
		} else {
			level[i] = level[p] + 1
		}
		if level[i] > deepest {
			deepest = level[i]
		}
	}
	if deepest != 4 {
		t.Fatalf("deepest level = %d, want 4", deepest)
	}
}

func TestForestWithDepthValidation(t *testing.T) {
	if _, _, err := ForestWithDepth(5, 2, 1); err == nil {
		t.Fatal("depth 1 accepted")
	}
	if _, _, err := ForestWithDepth(5, 0, 2); err == nil {
		t.Fatal("tau 0 accepted")
	}
}

// TestBuildDatasetStableAcrossRuns is the regression test for the
// map-iteration fix in BuildDataset: repeated builds from the same graph
// and event log must JSON-encode to byte-identical datasets. Before the
// fix, per-source claim maps were iterated in map order, so the builder's
// call sequence (and any error it picked) varied run to run.
func TestBuildDatasetStableAcrossRuns(t *testing.T) {
	g := NewGraph(6)
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}} {
		if err := g.AddFollow(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	events := []Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 0, Assertion: 1, Time: 2},
		{Source: 0, Assertion: 2, Time: 3},
		{Source: 1, Assertion: 0, Time: 5},
		{Source: 1, Assertion: 3, Time: 6},
		{Source: 2, Assertion: 1, Time: 7},
		{Source: 3, Assertion: 0, Time: 8},
		{Source: 3, Assertion: 3, Time: 9},
		{Source: 4, Assertion: 2, Time: 10},
		{Source: 5, Assertion: 1, Time: 11},
	}
	encode := func() []byte {
		ds, err := BuildDataset(g, events, 4)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := encode()
	for run := 0; run < 30; run++ {
		if got := encode(); !bytes.Equal(got, first) {
			t.Fatalf("run %d: dataset encoding differs from first run", run)
		}
	}
}

// TestGrowKeepsEdges: growing the id space in place keeps every ancestor
// list, in its original order, and the edge count; new sources start bare
// and accept edges in both directions.
func TestGrowKeepsEdges(t *testing.T) {
	g := NewGraph(4)
	for _, e := range [][2]int{{0, 3}, {0, 1}, {2, 0}, {0, 2}, {3, 1}} {
		if err := g.AddFollow(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]int, g.N())
	for i := range want {
		want[i] = append([]int(nil), g.Ancestors(i)...)
	}
	edges := g.NumEdges()
	g.Grow(3) // shrinking is a no-op
	g.Grow(7)
	if g.N() != 7 || g.NumEdges() != edges {
		t.Fatalf("after Grow(7): n=%d edges=%d, want 7 and %d", g.N(), g.NumEdges(), edges)
	}
	for i := range want {
		if got := g.Ancestors(i); !slices.Equal(got, want[i]) {
			t.Fatalf("ancestors(%d) = %v, want %v", i, got, want[i])
		}
	}
	for i := 4; i < 7; i++ {
		if len(g.Ancestors(i)) != 0 {
			t.Fatalf("new source %d has ancestors %v", i, g.Ancestors(i))
		}
	}
	if err := g.AddFollow(6, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddFollow(0, 6); err != nil {
		t.Fatal(err)
	}
	if got := g.Ancestors(0); !slices.Equal(got, append(want[0], 6)) {
		t.Fatalf("ancestors(0) after new edge = %v", got)
	}
}
