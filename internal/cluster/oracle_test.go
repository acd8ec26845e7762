package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// The map-counter, sorted-candidate Incremental and the map-deduping
// Tokenize that production used before the map-free rewrite, kept verbatim
// (identifiers renamed) as the oracles TestClusterMatchesOracle,
// FuzzTokenize and FuzzIncremental compare the production code against:
// every token list, assignment, leader list and State must match them
// exactly.

func oracleTokenize(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	seen := make(map[string]struct{}, len(fields))
	tokens := make([]string, 0, len(fields))
	for _, f := range fields {
		f = strings.Trim(f, ".,!?;:'\"()[]{}…—-")
		switch {
		case f == "" || f == "rt":
			continue
		case strings.HasPrefix(f, "@"):
			continue
		case strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://"):
			continue
		case oracleStopwords[f]:
			continue
		}
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		tokens = append(tokens, f)
	}
	return tokens
}

var oracleStopwords = map[string]bool{
	"a": true, "an": true, "the": true, "is": true, "are": true, "was": true,
	"were": true, "be": true, "been": true, "to": true, "of": true, "in": true,
	"on": true, "at": true, "and": true, "or": true, "it": true, "its": true,
	"this": true, "that": true, "with": true, "for": true, "by": true,
	"from": true, "as": true, "has": true, "have": true, "had": true,
	"i": true, "we": true, "you": true, "they": true, "he": true, "she": true,
}

type oracleIncremental struct {
	threshold   float64
	maxPostings int

	index        map[string][]int
	leaderTokens [][]string
	leaders      []int
	docs         int

	counts map[int]int
	cands  []int
}

func newOracleIncremental(l *Leader) *oracleIncremental {
	threshold := l.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	maxPostings := l.MaxPostings
	if maxPostings <= 0 {
		maxPostings = 128
	}
	return &oracleIncremental{
		threshold:   threshold,
		maxPostings: maxPostings,
		index:       make(map[string][]int),
		counts:      make(map[int]int),
		cands:       make([]int, 0, 64),
	}
}

func (inc *oracleIncremental) Add(doc []string) int {
	best := inc.bestCluster(doc)
	if best < 0 {
		best = len(inc.leaderTokens)
		inc.leaders = append(inc.leaders, inc.docs)
		inc.leaderTokens = append(inc.leaderTokens, doc)
		for _, tok := range doc {
			if len(inc.index[tok]) < inc.maxPostings {
				inc.index[tok] = append(inc.index[tok], best)
			}
		}
	}
	inc.docs++
	return best
}

func (inc *oracleIncremental) bestCluster(doc []string) int {
	clear(inc.counts)
	inc.cands = inc.cands[:0]
	for _, tok := range doc {
		for _, c := range inc.index[tok] {
			if inc.counts[c] == 0 {
				inc.cands = append(inc.cands, c)
			}
			inc.counts[c]++
		}
	}
	// Scan candidates in sorted id order, never map order, so the winner
	// on Jaccard ties is reproducibly the lowest cluster id.
	sort.Ints(inc.cands)
	best, bestSim := -1, inc.threshold
	for _, c := range inc.cands {
		shared := inc.counts[c]
		// Jaccard from intersection size and set sizes.
		union := len(doc) + len(inc.leaderTokens[c]) - shared
		if union == 0 {
			continue
		}
		sim := float64(shared) / float64(union)
		if sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best
}

func (inc *oracleIncremental) State() *IncrementalState {
	tokens := make([][]string, len(inc.leaderTokens))
	for c, toks := range inc.leaderTokens {
		tokens[c] = append([]string(nil), toks...)
	}
	return &IncrementalState{
		Threshold:    inc.threshold,
		MaxPostings:  inc.maxPostings,
		Docs:         inc.docs,
		Leaders:      append([]int(nil), inc.leaders...),
		LeaderTokens: tokens,
	}
}

func restoreOracleIncremental(st *IncrementalState) (*oracleIncremental, error) {
	if st == nil {
		return nil, fmt.Errorf("cluster: nil incremental state")
	}
	if len(st.Leaders) != len(st.LeaderTokens) {
		return nil, fmt.Errorf("cluster: state has %d leaders but %d token sets",
			len(st.Leaders), len(st.LeaderTokens))
	}
	if st.Docs < len(st.Leaders) {
		return nil, fmt.Errorf("cluster: state has %d docs but %d clusters", st.Docs, len(st.Leaders))
	}
	l := &Leader{Threshold: st.Threshold, MaxPostings: st.MaxPostings}
	inc := newOracleIncremental(l)
	inc.docs = st.Docs
	inc.leaders = append([]int(nil), st.Leaders...)
	inc.leaderTokens = make([][]string, len(st.LeaderTokens))
	for c, toks := range st.LeaderTokens {
		if st.Leaders[c] < 0 || st.Leaders[c] >= st.Docs {
			return nil, fmt.Errorf("cluster: leader doc %d of cluster %d out of range [0,%d)",
				st.Leaders[c], c, st.Docs)
		}
		inc.leaderTokens[c] = append([]string(nil), toks...)
		for _, tok := range inc.leaderTokens[c] {
			if len(inc.index[tok]) < inc.maxPostings {
				inc.index[tok] = append(inc.index[tok], c)
			}
		}
	}
	return inc, nil
}
