// Package cluster groups near-duplicate short texts (tweets) into
// assertions, the extraction step the paper inherits from the Apollo
// fact-finding tool. It implements single-pass leader clustering over token
// sets with Jaccard similarity, accelerated by an inverted token index so
// only clusters sharing at least one token with the incoming document are
// considered.
package cluster

import (
	"slices"
	"strings"
)

// Tokenize normalizes tweet text into a deduplicated token set: lowercase,
// punctuation-stripped, with retweet markers ("rt"), @-mentions, URLs, and
// common stopwords removed. These are exactly the elements that vary
// between a claim and its repeats, so removing them lets a retweet cluster
// with its original. Tokens keep their first-occurrence order.
func Tokenize(text string) []string {
	// ToLower also rewrites invalid UTF-8 as U+FFFD, which no trim rune,
	// prefix or stopword below matches.
	fields := strings.Fields(strings.ToLower(text))
	// Tokens overwrite fields in place: token k is written only after
	// field k has been read.
	tokens := fields[:0]
	var seen map[string]struct{} // only for documents past dedupeScanMax tokens
	for _, f := range fields {
		f = strings.TrimFunc(f, isTrimRune)
		switch {
		case f == "" || f == "rt":
			continue
		case strings.HasPrefix(f, "@"):
			continue
		case strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://"):
			continue
		case isStopword(f):
			continue
		}
		if seen == nil && len(tokens) == dedupeScanMax {
			seen = make(map[string]struct{}, 2*dedupeScanMax)
			for _, tok := range tokens {
				seen[tok] = struct{}{}
			}
		}
		if seen != nil {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
		} else if slices.Contains(tokens, f) {
			continue
		}
		tokens = append(tokens, f)
	}
	return tokens
}

// dedupeScanMax bounds the linear duplicate scan: a tweet has a few dozen
// tokens at most, but a hostile document with many distinct tokens must
// not cost quadratic time, so past this many tokens Tokenize dedupes
// through a set instead.
const dedupeScanMax = 64

// isTrimRune reports the punctuation Tokenize strips from both ends of a
// field. A rune switch, unlike a strings.Trim cutset with non-ASCII runes
// in it, builds nothing per call.
func isTrimRune(r rune) bool {
	switch r {
	case '.', ',', '!', '?', ';', ':', '\'', '"', '(', ')', '[', ']', '{', '}', '…', '—', '-':
		return true
	}
	return false
}

// isStopword reports the common function words Tokenize drops.
func isStopword(s string) bool {
	switch s {
	case "a", "an", "the", "is", "are", "was", "were", "be", "been", "to",
		"of", "in", "on", "at", "and", "or", "it", "its", "this", "that",
		"with", "for", "by", "from", "as", "has", "have", "had",
		"i", "we", "you", "they", "he", "she":
		return true
	}
	return false
}

// Leader is a single-pass leader clusterer: each document joins the best
// existing cluster whose centroid token set is at least Threshold-similar
// (Jaccard), otherwise it founds a new cluster. The centroid is the
// founding document's token set — cheap, deterministic, and faithful to
// Apollo's streaming design.
type Leader struct {
	// Threshold is the minimum Jaccard similarity for joining a cluster
	// (default 0.5).
	Threshold float64
	// MaxPostings caps the inverted-index list per token (default 128).
	// Tokens contained in more clusters than this are treated as
	// non-discriminative and stop generating candidates — the standard
	// stop-token defense that keeps a 40k-tweet stream from degenerating
	// into all-pairs comparison through one shared hashtag. The shared
	// token still undercounts intersections slightly for such tokens,
	// which is the accepted trade-off.
	MaxPostings int
}

// Assignment is the clustering output.
type Assignment struct {
	// Cluster[d] is the cluster id of document d.
	Cluster []int
	// NumClusters is the number of clusters created.
	NumClusters int
	// Leaders[c] is the founding document id of cluster c.
	Leaders []int
}

// Cluster assigns every tokenized document to a cluster. It is the batch
// form of the incremental API: feeding the documents through
// Incremental.Add in order (see incremental.go), so batch callers and the
// streaming ingestion service share one clustering algorithm.
func (l *Leader) Cluster(docs [][]string) Assignment {
	inc := l.Incremental()
	assign := Assignment{Cluster: make([]int, len(docs))}
	for d, doc := range docs {
		assign.Cluster[d] = inc.Add(doc)
	}
	assign.NumClusters = inc.NumClusters()
	assign.Leaders = inc.Leaders()
	return assign
}
