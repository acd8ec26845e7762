package claims

import (
	"fmt"
	"sort"

	"depsense/internal/mapsort"
	"depsense/internal/model"
)

// The map-based Builder and slice-of-slices flattening that Build used
// before the sort-and-merge rewrite, kept verbatim (identifiers renamed)
// as the oracle FuzzBuilder compares the production Builder against:
// every Dataset, SparseView and error must match it exactly.

type mapBuilder struct {
	n, m      int
	claimed   map[pairKey]bool // value: dependent
	silentDep map[pairKey]struct{}
	err       error
}

func newMapBuilder(n, m int) *mapBuilder {
	return &mapBuilder{
		n:         n,
		m:         m,
		claimed:   make(map[pairKey]bool),
		silentDep: make(map[pairKey]struct{}),
	}
}

func (b *mapBuilder) checkRange(i, j int) bool {
	if i < 0 || i >= b.n || j < 0 || j >= b.m {
		if b.err == nil {
			b.err = fmt.Errorf("%w: (source=%d, assertion=%d) with n=%d, m=%d",
				ErrIndexOutOfRange, i, j, b.n, b.m)
		}
		return false
	}
	return true
}

func (b *mapBuilder) AddClaim(i, j int, dependent bool) *mapBuilder {
	if !b.checkRange(i, j) {
		return b
	}
	k := pairKey{i, j}
	b.claimed[k] = b.claimed[k] || dependent
	return b
}

func (b *mapBuilder) MarkSilentDependent(i, j int) *mapBuilder {
	if !b.checkRange(i, j) {
		return b
	}
	b.silentDep[pairKey{i, j}] = struct{}{}
	return b
}

func (b *mapBuilder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	d := &Dataset{
		n:                    b.n,
		m:                    b.m,
		byAssertion:          make([][]ClaimRef, b.m),
		silentDepByAssertion: make([][]int, b.m),
		claimsD0BySource:     make([][]int, b.n),
		claimsD1BySource:     make([][]int, b.n),
		silentD1BySource:     make([][]int, b.n),
	}
	// Iterate both pair maps in sorted order so the dataset layout and —
	// when several pairs conflict — the reported error are identical on
	// every run, per the determinism contract (maporder).
	pairLess := func(a, b pairKey) bool {
		if a.i != b.i {
			return a.i < b.i
		}
		return a.j < b.j
	}
	for _, k := range mapsort.KeysFunc(b.claimed, pairLess) {
		dep := b.claimed[k]
		if _, silent := b.silentDep[k]; silent && !dep {
			return nil, fmt.Errorf("%w: (source=%d, assertion=%d)", ErrConflictingPair, k.i, k.j)
		}
		d.byAssertion[k.j] = append(d.byAssertion[k.j], ClaimRef{Source: k.i, Dependent: dep})
		if dep {
			d.claimsD1BySource[k.i] = append(d.claimsD1BySource[k.i], k.j)
			d.numDependent++
		} else {
			d.claimsD0BySource[k.i] = append(d.claimsD0BySource[k.i], k.j)
		}
		d.numClaims++
	}
	for _, k := range mapsort.KeysFunc(b.silentDep, pairLess) {
		if _, isClaim := b.claimed[k]; isClaim {
			continue // claim already carries the dependent mark
		}
		d.silentDepByAssertion[k.j] = append(d.silentDepByAssertion[k.j], k.i)
		d.silentD1BySource[k.i] = append(d.silentD1BySource[k.i], k.j)
	}
	mapSortIndexes(d)
	d.sparse = mapBuildSparse(d)
	return d, nil
}

// mapSortIndexes makes iteration order deterministic regardless of map order.
func mapSortIndexes(d *Dataset) {
	for j := range d.byAssertion {
		sort.Slice(d.byAssertion[j], func(a, b int) bool {
			return d.byAssertion[j][a].Source < d.byAssertion[j][b].Source
		})
		sort.Ints(d.silentDepByAssertion[j])
	}
	for i := 0; i < d.n; i++ {
		sort.Ints(d.claimsD0BySource[i])
		sort.Ints(d.claimsD1BySource[i])
		sort.Ints(d.silentD1BySource[i])
	}
}

// mapBuildSparse flattens the sorted slice-of-slices indexes into the packed
// form. Iteration order is inherited from mapSortIndexes, so the view meets
// the CSR/CSC strict-ordering invariant by construction.
func mapBuildSparse(d *Dataset) *SparseView {
	sv := &SparseView{
		Claims:   &model.CSC{NumRows: d.n, NumCols: d.m, ColPtr: make([]int32, d.m+1)},
		Silent:   &model.CSC{NumRows: d.n, NumCols: d.m, ColPtr: make([]int32, d.m+1)},
		ClaimsD0: &model.CSR{NumRows: d.n, NumCols: d.m, RowPtr: make([]int32, d.n+1)},
		ClaimsD1: &model.CSR{NumRows: d.n, NumCols: d.m, RowPtr: make([]int32, d.n+1)},
		SilentD1: &model.CSR{NumRows: d.n, NumCols: d.m, RowPtr: make([]int32, d.n+1)},
	}
	sv.Claims.Row = make([]int32, 0, d.numClaims)
	sv.ClaimDep = make([]bool, 0, d.numClaims)
	for j := 0; j < d.m; j++ {
		for _, c := range d.byAssertion[j] {
			sv.Claims.Row = append(sv.Claims.Row, int32(c.Source))
			sv.ClaimDep = append(sv.ClaimDep, c.Dependent)
		}
		sv.Claims.ColPtr[j+1] = int32(len(sv.Claims.Row))
		for _, i := range d.silentDepByAssertion[j] {
			sv.Silent.Row = append(sv.Silent.Row, int32(i))
		}
		sv.Silent.ColPtr[j+1] = int32(len(sv.Silent.Row))
	}
	flattenRows := func(dst *model.CSR, rows [][]int) {
		for i := 0; i < d.n; i++ {
			for _, j := range rows[i] {
				dst.Col = append(dst.Col, int32(j))
			}
			dst.RowPtr[i+1] = int32(len(dst.Col))
		}
	}
	flattenRows(sv.ClaimsD0, d.claimsD0BySource)
	flattenRows(sv.ClaimsD1, d.claimsD1BySource)
	flattenRows(sv.SilentD1, d.silentD1BySource)
	return sv
}
