// Package claims holds the data structures at the heart of the fact-finding
// problem: the source-claim matrix SC and the dependency indicator matrix D
// from Section II of the paper.
//
// Both matrices are n×m but extremely sparse in practice (a Twitter source
// asserts a handful of the thousands of assertions in a dataset), so the
// Dataset stores only the nonzero structure, indexed both by assertion (for
// the E-step and the bound) and by source (for the M-step):
//
//   - claims: pairs (i, j) with SC[i][j] = 1, each tagged with D[i][j];
//   - silent-dependent pairs: (i, j) with SC[i][j] = 0 but D[i][j] = 1,
//     i.e. an ancestor of S_i asserted C_j yet S_i stayed silent. These are
//     informative under the dependent channel (factor 1-f_i or 1-g_i instead
//     of 1-a_i or 1-b_i) and must be tracked explicitly.
//
// All remaining (i, j) pairs are independent non-claims (factor 1-a_i or
// 1-b_i), which estimators handle in aggregate.
package claims

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"depsense/internal/model"
)

// ClaimRef identifies one claimant of an assertion and whether that claim is
// dependent (D[i][j] = 1).
type ClaimRef struct {
	Source    int  `json:"source"`
	Dependent bool `json:"dependent"`
}

// SourceRef identifies one assertion touched by a source, mirror of
// ClaimRef for the by-source index.
type SourceRef struct {
	Assertion int  `json:"assertion"`
	Dependent bool `json:"dependent"`
}

// Dataset is an immutable fact-finding input: n sources, m assertions, the
// sparse claim structure, and the sparse dependent-pair structure. Construct
// one with a Builder; a zero Dataset is empty but valid.
type Dataset struct {
	n int
	m int

	// byAssertion[j] lists the sources that claimed C_j.
	byAssertion [][]ClaimRef
	// silentDepByAssertion[j] lists sources with D[i][j] = 1 and no claim.
	silentDepByAssertion [][]int

	// bySource indices for the M-step.
	claimsD0BySource [][]int // assertions claimed independently by i
	claimsD1BySource [][]int // assertions claimed dependently by i
	silentD1BySource [][]int // assertions with D=1 where i stayed silent

	// sparse is the flattened CSR/CSC kernel view, frozen at Build time.
	sparse *SparseView

	numClaims    int
	numDependent int
}

// SparseView is the flattened sparse-kernel view of a Dataset: the SC and D
// nonzero structure packed into model.CSR/model.CSC index arrays, the form
// the estimator hot paths iterate. Columns are assertions, rows are sources.
// All fields are frozen at Build time and must not be modified; the
// slice-of-slices accessors (Claimants, ClaimsD0, ...) and this view always
// describe the same matrices, in the same per-row / per-column order.
type SparseView struct {
	// Claims is SC's nonzero pattern by assertion: Claims.Col(j) lists the
	// claimants of assertion j in increasing source order.
	Claims *model.CSC
	// ClaimDep carries D over SC's nonzeros, aligned with Claims' nonzero
	// order: ClaimDep[k] is the dependency flag of nonzero k.
	ClaimDep []bool
	// Silent is the silent-dependent pattern by assertion (D[i][j] = 1,
	// SC[i][j] = 0).
	Silent *model.CSC
	// ClaimsD0 / ClaimsD1 / SilentD1 are the by-source (CSR) views the
	// M-step iterates: independent claims, dependent claims, and
	// silent-dependent pairs of each source, in increasing assertion order.
	ClaimsD0 *model.CSR
	ClaimsD1 *model.CSR
	SilentD1 *model.CSR
}

// Sparse returns the dataset's flattened CSR/CSC kernel view. The view is
// built once at Build time and shared by every caller; it is safe for
// concurrent reads and must not be modified.
func (d *Dataset) Sparse() *SparseView {
	if d.sparse == nil {
		// Zero-value Dataset (n = m = 0): synthesize an empty view so the
		// kernels need no nil checks. Not cached — caching here would race
		// with concurrent readers; Build-produced datasets are always cached.
		return newDataset(0, 0, nil, nil).sparse
	}
	return d.sparse
}

// N returns the number of sources.
func (d *Dataset) N() int { return d.n }

// M returns the number of assertions.
func (d *Dataset) M() int { return d.m }

// NumClaims returns the total number of claims (nonzeros of SC).
func (d *Dataset) NumClaims() int { return d.numClaims }

// NumDependentClaims returns the number of claims with D[i][j] = 1.
func (d *Dataset) NumDependentClaims() int { return d.numDependent }

// NumOriginalClaims returns the number of independent claims, the paper's
// "#Original Claims" column in Table III.
func (d *Dataset) NumOriginalClaims() int { return d.numClaims - d.numDependent }

// Claimants returns the sources claiming assertion j. The returned slice is
// owned by the Dataset and must not be modified.
func (d *Dataset) Claimants(j int) []ClaimRef { return d.byAssertion[j] }

// SilentDependents returns the sources with D[i][j] = 1 that did not claim
// j. The returned slice is owned by the Dataset and must not be modified.
func (d *Dataset) SilentDependents(j int) []int { return d.silentDepByAssertion[j] }

// ClaimsD0 returns the assertions source i claimed independently.
func (d *Dataset) ClaimsD0(i int) []int { return d.claimsD0BySource[i] }

// ClaimsD1 returns the assertions source i claimed dependently.
func (d *Dataset) ClaimsD1(i int) []int { return d.claimsD1BySource[i] }

// SilentD1 returns the assertions with D[i][j] = 1 that source i did not
// claim.
func (d *Dataset) SilentD1(i int) []int { return d.silentD1BySource[i] }

// Claimed reports SC[i][j].
func (d *Dataset) Claimed(i, j int) bool {
	for _, c := range d.byAssertion[j] {
		if c.Source == i {
			return true
		}
	}
	return false
}

// Dependent reports D[i][j].
func (d *Dataset) Dependent(i, j int) bool {
	for _, c := range d.byAssertion[j] {
		if c.Source == i {
			return c.Dependent
		}
	}
	for _, s := range d.silentDepByAssertion[j] {
		if s == i {
			return true
		}
	}
	return false
}

// DependencyColumn materializes column j of D as a dense boolean vector of
// length n. The error-bound computation consumes columns in this form.
func (d *Dataset) DependencyColumn(j int) []bool {
	col := make([]bool, d.n)
	for _, c := range d.byAssertion[j] {
		if c.Dependent {
			col[c.Source] = true
		}
	}
	for _, s := range d.silentDepByAssertion[j] {
		col[s] = true
	}
	return col
}

// Summary aggregates the Table III-style dataset statistics.
type Summary struct {
	Sources         int `json:"sources"`
	Assertions      int `json:"assertions"`
	TotalClaims     int `json:"totalClaims"`
	OriginalClaims  int `json:"originalClaims"`
	DependentClaims int `json:"dependentClaims"`
	SilentDependent int `json:"silentDependentPairs"`
}

// Summarize computes dataset statistics.
func (d *Dataset) Summarize() Summary {
	silent := 0
	for _, s := range d.silentDepByAssertion {
		silent += len(s)
	}
	return Summary{
		Sources:         d.n,
		Assertions:      d.m,
		TotalClaims:     d.numClaims,
		OriginalClaims:  d.NumOriginalClaims(),
		DependentClaims: d.numDependent,
		SilentDependent: silent,
	}
}

// String renders the summary, convenient for examples and CLIs.
func (s Summary) String() string {
	return fmt.Sprintf("sources=%d assertions=%d claims=%d (original=%d dependent=%d) silent-dependent=%d",
		s.Sources, s.Assertions, s.TotalClaims, s.OriginalClaims, s.DependentClaims, s.SilentDependent)
}

// Builder accumulates claims and dependency marks, then freezes them into a
// Dataset. It validates index ranges eagerly and duplicate/conflicting
// entries at Build time.
//
// Marks are appended as they arrive and sorted and merged once, at Build,
// into (source, assertion) order — the order every index of the Dataset
// is laid out in, so the by-source and by-assertion views fill in one pass
// each and need no per-row sorting. A caller that adds its marks in
// ascending (source, assertion) order, as depgraph.BuildDataset does, skips
// the sort entirely.
type Builder struct {
	n, m   int
	claims []claimPair
	silent []pairKey
	// claimsSorted / silentSorted record whether the marks so far arrived
	// in non-decreasing (source, assertion) order.
	claimsSorted, silentSorted bool
	err                        error
}

type pairKey struct{ i, j int }

// claimPair is one AddClaim mark.
type claimPair struct {
	pairKey
	dep bool
}

func comparePairs(a, b pairKey) int {
	if a.i != b.i {
		return cmp.Compare(a.i, b.i)
	}
	return cmp.Compare(a.j, b.j)
}

func compareClaims(a, b claimPair) int { return comparePairs(a.pairKey, b.pairKey) }

// Errors reported by the Builder.
var (
	ErrIndexOutOfRange = errors.New("claims: source or assertion index out of range")
	ErrConflictingPair = errors.New("claims: pair marked both claimed and silent-dependent")
)

// NewBuilder creates a Builder for n sources and m assertions.
func NewBuilder(n, m int) *Builder {
	return &Builder{n: n, m: m, claimsSorted: true, silentSorted: true}
}

func (b *Builder) checkRange(i, j int) bool {
	if i < 0 || i >= b.n || j < 0 || j >= b.m {
		if b.err == nil {
			b.err = fmt.Errorf("%w: (source=%d, assertion=%d) with n=%d, m=%d",
				ErrIndexOutOfRange, i, j, b.n, b.m)
		}
		return false
	}
	return true
}

// AddClaim records SC[i][j] = 1 with D[i][j] = dependent. Re-adding the same
// pair is allowed; a dependent mark wins over an independent one (a claim is
// dependent if ANY earlier ancestor assertion exists).
func (b *Builder) AddClaim(i, j int, dependent bool) *Builder {
	if !b.checkRange(i, j) {
		return b
	}
	k := pairKey{i, j}
	if n := len(b.claims); n > 0 && comparePairs(b.claims[n-1].pairKey, k) > 0 {
		b.claimsSorted = false
	}
	b.claims = append(b.claims, claimPair{k, dependent})
	return b
}

// MarkSilentDependent records D[i][j] = 1 for a pair where source i made no
// claim. If the pair is later claimed, Build reports ErrConflictingPair
// unless the claim itself was added as dependent (in which case the silent
// mark is redundant and dropped).
func (b *Builder) MarkSilentDependent(i, j int) *Builder {
	if !b.checkRange(i, j) {
		return b
	}
	k := pairKey{i, j}
	if n := len(b.silent); n > 0 && comparePairs(b.silent[n-1], k) > 0 {
		b.silentSorted = false
	}
	b.silent = append(b.silent, k)
	return b
}

// Build freezes the accumulated structure into a Dataset. When several
// pairs conflict, the error names the lowest in (source, assertion) order.
// The Builder stays usable: further marks and Builds see every mark so far.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.normalize()
	// Each silent mark either matches no claim (kept), a dependent claim
	// (redundant: the claim already carries D = 1) or an independent claim
	// (a conflict). Both lists are sorted, so one merge walk finds the
	// lowest conflict before anything is dropped.
	redundant := 0
	for c, s := 0, 0; c < len(b.claims) && s < len(b.silent); {
		switch d := comparePairs(b.claims[c].pairKey, b.silent[s]); {
		case d < 0:
			c++
		case d > 0:
			s++
		default:
			if !b.claims[c].dep {
				k := b.claims[c]
				return nil, fmt.Errorf("%w: (source=%d, assertion=%d)", ErrConflictingPair, k.i, k.j)
			}
			redundant++
			c++
			s++
		}
	}
	if redundant > 0 {
		kept := b.silent[:0]
		c := 0
		for _, k := range b.silent {
			for c < len(b.claims) && comparePairs(b.claims[c].pairKey, k) < 0 {
				c++
			}
			if c < len(b.claims) && b.claims[c].pairKey == k {
				continue // claim already carries the dependent mark
			}
			kept = append(kept, k)
		}
		b.silent = kept
	}
	return newDataset(b.n, b.m, b.claims, b.silent), nil
}

// normalize sorts both mark lists into (source, assertion) order and
// collapses repeats, a dependent claim mark winning over an independent one.
func (b *Builder) normalize() {
	if !b.claimsSorted {
		slices.SortFunc(b.claims, compareClaims)
		b.claimsSorted = true
	}
	if !b.silentSorted {
		slices.SortFunc(b.silent, comparePairs)
		b.silentSorted = true
	}
	w := 0
	for _, c := range b.claims {
		if w > 0 && b.claims[w-1].pairKey == c.pairKey {
			b.claims[w-1].dep = b.claims[w-1].dep || c.dep
			continue
		}
		b.claims[w] = c
		w++
	}
	b.claims = b.claims[:w]
	b.silent = slices.Compact(b.silent)
}

// newDataset lays out a Dataset and its SparseView from sorted, distinct
// claims and silent-dependent pairs that share no (source, assertion).
// Every index is a window into one flat array per view: the by-source rows
// fill in (source, assertion) order directly, and the by-assertion columns
// by a counting scatter that keeps sources ascending within each column.
func newDataset(n, m int, cl []claimPair, sil []pairKey) *Dataset {
	d := &Dataset{
		n:                    n,
		m:                    m,
		byAssertion:          make([][]ClaimRef, m),
		silentDepByAssertion: make([][]int, m),
		claimsD0BySource:     make([][]int, n),
		claimsD1BySource:     make([][]int, n),
		silentD1BySource:     make([][]int, n),
		numClaims:            len(cl),
	}
	sv := &SparseView{
		Claims:   &model.CSC{NumRows: n, NumCols: m, ColPtr: make([]int32, m+1), Row: make([]int32, len(cl))},
		ClaimDep: make([]bool, len(cl)),
		Silent:   &model.CSC{NumRows: n, NumCols: m, ColPtr: make([]int32, m+1)},
		ClaimsD0: &model.CSR{NumRows: n, NumCols: m, RowPtr: make([]int32, n+1)},
		ClaimsD1: &model.CSR{NumRows: n, NumCols: m, RowPtr: make([]int32, n+1)},
		SilentD1: &model.CSR{NumRows: n, NumCols: m, RowPtr: make([]int32, n+1)},
	}
	d.sparse = sv
	for _, c := range cl {
		sv.Claims.ColPtr[c.j+1]++
		if c.dep {
			sv.ClaimsD1.RowPtr[c.i+1]++
			d.numDependent++
		} else {
			sv.ClaimsD0.RowPtr[c.i+1]++
		}
	}
	for _, k := range sil {
		sv.Silent.ColPtr[k.j+1]++
		sv.SilentD1.RowPtr[k.i+1]++
	}
	prefixSum(sv.Claims.ColPtr)
	prefixSum(sv.Silent.ColPtr)
	prefixSum(sv.ClaimsD0.RowPtr)
	prefixSum(sv.ClaimsD1.RowPtr)
	prefixSum(sv.SilentD1.RowPtr)

	// By source: the marks arrive row-major, so each row is a contiguous,
	// assertion-ascending run.
	d0 := nilIfEmpty(make([]int, 0, d.numClaims-d.numDependent))
	d1 := nilIfEmpty(make([]int, 0, d.numDependent))
	for _, c := range cl {
		if c.dep {
			d1 = append(d1, c.j)
		} else {
			d0 = append(d0, c.j)
		}
	}
	s1 := nilIfEmpty(make([]int, 0, len(sil)))
	for _, k := range sil {
		s1 = append(s1, k.j)
	}
	sv.ClaimsD0.Col = toInt32(d0)
	sv.ClaimsD1.Col = toInt32(d1)
	sv.SilentD1.Col = toInt32(s1)
	rowWindows(d.claimsD0BySource, d0, sv.ClaimsD0.RowPtr)
	rowWindows(d.claimsD1BySource, d1, sv.ClaimsD1.RowPtr)
	rowWindows(d.silentD1BySource, s1, sv.SilentD1.RowPtr)

	// By assertion: scatter into column slots; visiting sources in
	// ascending order keeps every column sorted.
	next := make([]int32, m)
	copy(next, sv.Claims.ColPtr)
	refs := make([]ClaimRef, len(cl))
	for _, c := range cl {
		k := next[c.j]
		next[c.j]++
		sv.Claims.Row[k] = int32(c.i)
		sv.ClaimDep[k] = c.dep
		refs[k] = ClaimRef{Source: c.i, Dependent: c.dep}
	}
	for j := 0; j < m; j++ {
		if lo, hi := sv.Claims.ColPtr[j], sv.Claims.ColPtr[j+1]; lo < hi {
			d.byAssertion[j] = refs[lo:hi:hi]
		}
	}
	if len(sil) > 0 {
		copy(next, sv.Silent.ColPtr)
		sv.Silent.Row = make([]int32, len(sil))
		silentBy := make([]int, len(sil))
		for _, k := range sil {
			p := next[k.j]
			next[k.j]++
			sv.Silent.Row[p] = int32(k.i)
			silentBy[p] = k.i
		}
		rowWindows(d.silentDepByAssertion, silentBy, sv.Silent.ColPtr)
	}
	return d
}

// prefixSum turns per-slot counts stored at ptr[k+1] into offsets.
func prefixSum(ptr []int32) {
	for k := 1; k < len(ptr); k++ {
		ptr[k] += ptr[k-1]
	}
}

// rowWindows points dst[r] at flat[ptr[r]:ptr[r+1]], leaving empty rows nil.
func rowWindows(dst [][]int, flat []int, ptr []int32) {
	for r := range dst {
		if lo, hi := ptr[r], ptr[r+1]; lo < hi {
			dst[r] = flat[lo:hi:hi]
		}
	}
}

// nilIfEmpty returns nil for a zero-capacity slice, so an empty stratum's
// flat arrays are nil (null in the SparseView's JSON form), never empty.
func nilIfEmpty(s []int) []int {
	if cap(s) == 0 {
		return nil
	}
	return s
}

// toInt32 narrows a flat index array for the sparse view; nil stays nil.
func toInt32(s []int) []int32 {
	if s == nil {
		return nil
	}
	out := make([]int32, len(s))
	for k, v := range s {
		out[k] = int32(v)
	}
	return out
}
