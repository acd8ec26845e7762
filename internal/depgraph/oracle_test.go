package depgraph

import (
	"fmt"

	"depsense/internal/claims"
	"depsense/internal/mapsort"
)

// mapBuildDataset is BuildDataset as it stood before the map-free rewrite
// (per-source earliest-time maps, sorted map keys, a per-source seen map),
// kept verbatim as the oracle FuzzBuildDataset compares against.
func mapBuildDataset(g *Graph, events []Event, m int) (*claims.Dataset, error) {
	// earliest[i][j] = earliest claim time of j by i.
	earliest := make([]map[int]int64, g.n)
	for _, e := range events {
		if e.Source < 0 || e.Source >= g.n {
			return nil, fmt.Errorf("%w: event source %d with n=%d", ErrBadSource, e.Source, g.n)
		}
		if e.Assertion < 0 || e.Assertion >= m {
			return nil, fmt.Errorf("depgraph: event assertion %d out of range m=%d", e.Assertion, m)
		}
		if earliest[e.Source] == nil {
			earliest[e.Source] = make(map[int]int64)
		}
		if t, ok := earliest[e.Source][e.Assertion]; !ok || e.Time < t {
			earliest[e.Source][e.Assertion] = e.Time
		}
	}

	b := claims.NewBuilder(g.n, m)
	// Iterate each source's claim set in sorted assertion order, never map
	// order, so the builder sees an identical call sequence every run and
	// any validation error it reports is reproducible.
	for i := 0; i < g.n; i++ {
		// Assertions this source claimed.
		for _, j := range mapsort.Keys(earliest[i]) {
			t := earliest[i][j]
			dep := false
			for _, anc := range g.ancestors[i] {
				if ta, ok := earliest[anc][j]; ok && ta < t {
					dep = true
					break
				}
			}
			b.AddClaim(i, j, dep)
		}
		// Silent pairs: ancestor claimed j, i did not.
		seen := make(map[int]bool)
		for _, anc := range g.ancestors[i] {
			for _, j := range mapsort.Keys(earliest[anc]) {
				if _, claimed := earliest[i][j]; claimed || seen[j] {
					continue
				}
				seen[j] = true
				b.MarkSilentDependent(i, j)
			}
		}
	}
	return b.Build()
}
