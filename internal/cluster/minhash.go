package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Clusterer groups tokenized documents into assertions. Leader and MinHash
// both implement it; the Apollo pipeline accepts either.
type Clusterer interface {
	Cluster(docs [][]string) Assignment
}

var (
	_ Clusterer = (*Leader)(nil)
	_ Clusterer = (*MinHash)(nil)
)

// MinHash is an LSH-accelerated leader clusterer: each document gets a
// minhash signature, banded into LSH buckets; a new document only compares
// (exact Jaccard, against the founding document) with clusters sharing at
// least one band. Unlike Leader's inverted token index, its candidate
// generation cost does not depend on token document frequency; Leader
// bounds that cost with its postings cap instead and, on the twittersim
// streams (BenchmarkLeaderCluster vs BenchmarkMinHashCluster), clusters
// 2.6-2.9x faster.
type MinHash struct {
	// Threshold is the minimum Jaccard similarity for joining a cluster
	// (default 0.5).
	Threshold float64
	// Hashes is the signature length (default 64).
	Hashes int
	// Bands is the number of LSH bands (default 16; Hashes must be
	// divisible by Bands). With r = Hashes/Bands rows per band, the
	// candidate-recall curve is 1-(1-s^r)^Bands for similarity s.
	Bands int
	// Seed perturbs the hash family.
	Seed uint64
}

// Cluster implements Clusterer.
func (mh *MinHash) Cluster(docs [][]string) Assignment {
	threshold := mh.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	hashes := mh.Hashes
	if hashes <= 0 {
		hashes = 64
	}
	bands := mh.Bands
	if bands <= 0 || hashes%bands != 0 {
		bands = 16
		if hashes%bands != 0 {
			bands = 1
		}
	}
	rows := hashes / bands

	assign := Assignment{Cluster: make([]int, len(docs))}
	leaderTokens := make([]map[string]struct{}, 0)
	// buckets[b] maps a band key to the clusters whose leader hashed there.
	buckets := make([]map[uint64][]int, bands)
	for b := range buckets {
		buckets[b] = make(map[uint64][]int)
	}

	sig := make([]uint64, hashes)
	bandKeys := make([]uint64, bands)
	seen := make(map[int]struct{}, 8)

	for d, doc := range docs {
		mh.signature(doc, sig)
		for b := 0; b < bands; b++ {
			bandKeys[b] = bandKey(sig[b*rows:(b+1)*rows], uint64(b))
		}

		clear(seen)
		best, bestSim := -1, threshold
		for b := 0; b < bands; b++ {
			for _, c := range buckets[b][bandKeys[b]] {
				if _, dup := seen[c]; dup {
					continue
				}
				seen[c] = struct{}{}
				sim := jaccard(doc, leaderTokens[c])
				if sim > bestSim || (sim == bestSim && best >= 0 && c < best) {
					best, bestSim = c, sim
				}
			}
		}
		if best < 0 {
			best = assign.NumClusters
			assign.NumClusters++
			assign.Leaders = append(assign.Leaders, d)
			set := make(map[string]struct{}, len(doc))
			for _, tok := range doc {
				set[tok] = struct{}{}
			}
			leaderTokens = append(leaderTokens, set)
			for b := 0; b < bands; b++ {
				buckets[b][bandKeys[b]] = append(buckets[b][bandKeys[b]], best)
			}
		}
		assign.Cluster[d] = best
	}
	return assign
}

// signature fills sig with the document's minhash values. An empty
// document gets a degenerate all-max signature, which collides only with
// other empty documents.
func (mh *MinHash) signature(doc []string, sig []uint64) {
	for k := range sig {
		sig[k] = math.MaxUint64
	}
	for _, tok := range doc {
		base := tokenHash(tok, mh.Seed)
		// One strong base hash per token, expanded into the hash family by
		// multiply-xor mixing — the standard "one permutation per affine
		// remix" construction.
		h := base
		for k := range sig {
			h = (h ^ uint64(k+1)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
			h ^= h >> 31
			if h < sig[k] {
				sig[k] = h
			}
		}
	}
}

func tokenHash(tok string, seed uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(tok))
	return h.Sum64()
}

func bandKey(rows []uint64, band uint64) uint64 {
	h := band*0x9e3779b97f4a7c15 + 0x85ebca6b
	for _, v := range rows {
		h ^= v
		h *= 0xc2b2ae3d27d4eb4f
		h ^= h >> 29
	}
	return h
}

// jaccard computes exact Jaccard similarity between a token slice and a
// token set.
func jaccard(doc []string, set map[string]struct{}) float64 {
	if len(doc) == 0 && len(set) == 0 {
		return 1
	}
	shared := 0
	for _, tok := range doc {
		if _, ok := set[tok]; ok {
			shared++
		}
	}
	union := len(doc) + len(set) - shared
	if union == 0 {
		return 0
	}
	return float64(shared) / float64(union)
}
