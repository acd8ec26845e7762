package core

import (
	"math"

	"depsense/internal/model"
	"depsense/internal/parallel"
)

// Scratch holds every buffer the EM kernels touch per iteration: the
// per-source log tables and correction tables, the source pattern, the
// posterior vector, the M-step numerators/denominators, and the per-block
// reduction partials. A run
// without an explicit Scratch allocates one internally (the historical
// behaviour); callers on a refit loop — the stream estimator's warm
// refits, the plug-in re-score, benchmark harnesses — pass one through
// Options.Scratch so consecutive fits reuse the same memory and the
// serial kernel iteration allocates nothing at all.
//
// A Scratch is exclusive to one running fit: it must not be shared by
// concurrent runs. The concurrent-restarts path (Restarts > 1 with
// Workers > 1) therefore ignores Options.Scratch and allocates per
// restart; intra-run E/M-step parallelism is fine, since all workers of
// one run share one engine by design. Buffers grow monotonically. Every
// entry a fit reads is written by that fit first — correction-table
// entries of empty strata are skipped on both sides, the memo is keyed
// on its inputs' bits — so reuse across datasets of different shapes and
// claim patterns is safe (TestScratchReuseAcrossPatterns).
//
//depsense:scratch
type Scratch struct {
	// Per-source log tables, refreshed each iteration. Only the silent
	// factors log(1-a_i), log(1-b_i) are kept whole: everything else the
	// E-step needs is folded into the correction tables below.
	log1A, log1B []float64

	// Per-source sparse-correction tables: what one nonzero of SC (or of
	// the silent-dependent pattern) adds to the all-silent baseline, per
	// hypothesis. corrA1 = log a_i - log(1-a_i) (independent claim, C=1),
	// corrB0 the same under C=0; corrF1/corrG0 for dependent claims;
	// corrSF1/corrSG0 for silent-dependent pairs. An entry is refreshed
	// only when source i has a nonzero the E-step reads it for (see
	// engine.refreshLogs); the entries of empty strata hold whatever an
	// earlier iteration or fit left and are never read.
	corrA1, corrB0   []float64
	corrF1, corrG0   []float64
	corrSF1, corrSG0 []float64

	// pattern[i] records which of source i's strata are nonempty
	// (stratIndep, stratDep, stratSilent); 0 marks a silent source.
	// Rebuilt for every fit from the dataset's SparseView.
	pattern []uint8

	// silentMemo caches log(1-a), log(1-b) for the silent sources, which
	// an M-step leaves sharing one (a, b).
	silentMemo logMemo

	post []float64 // Z_j = P(C_j = 1 | SC_j; θ)

	// Per-block reduction partials (E-step log-likelihood, M-step posterior
	// mass) and per-source M-step numerators/denominators.
	llPart, zPart []float64
	nums, dens    [][4]float64

	// prev is the previous iteration's parameter snapshot for the
	// convergence check.
	prev *model.Params
}

// logMemo is a one-entry memo of (log(1-a), log(1-b)) keyed on the bits
// of (a, b), so a hit returns exactly what model.SafeLog would.
type logMemo struct {
	ok       bool
	a, b     uint64
	l1a, l1b float64
}

// logs1m returns model.SafeLog(1-a), model.SafeLog(1-b), computing them
// only when (a, b) differs bitwise from the previous call.
func (m *logMemo) logs1m(a, b float64) (float64, float64) {
	ka, kb := math.Float64bits(a), math.Float64bits(b)
	if !m.ok || ka != m.a || kb != m.b {
		*m = logMemo{ok: true, a: ka, b: kb, l1a: model.SafeLog(1 - a), l1b: model.SafeLog(1 - b)}
	}
	return m.l1a, m.l1b
}

// NewScratch returns an empty Scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow (re)sizes every buffer for an n-source, m-assertion dataset. Slices
// keep their backing arrays whenever capacity suffices, so repeated fits at
// a stable problem size never reallocate.
func (s *Scratch) grow(n, m int) {
	growTo(&s.log1A, n)
	growTo(&s.log1B, n)
	growTo(&s.corrA1, n)
	growTo(&s.corrB0, n)
	growTo(&s.corrF1, n)
	growTo(&s.corrG0, n)
	growTo(&s.corrSF1, n)
	growTo(&s.corrSG0, n)
	growTo(&s.pattern, n)
	growTo(&s.post, m)
	growTo(&s.llPart, parallel.Blocks(m, emBlockSize))
	growTo(&s.zPart, parallel.Blocks(m, emBlockSize))
	growTo(&s.nums, n)
	growTo(&s.dens, n)
}

func growTo[T any](sl *[]T, size int) {
	if cap(*sl) < size {
		*sl = make([]T, size)
	} else {
		*sl = (*sl)[:size]
	}
}

// borrowPrev returns a snapshot buffer holding a copy of p, reusing the
// scratch-resident one when its shape matches.
func (s *Scratch) borrowPrev(p *model.Params) *model.Params {
	if s.prev == nil || len(s.prev.Sources) != len(p.Sources) {
		s.prev = p.Clone()
		return s.prev
	}
	copy(s.prev.Sources, p.Sources)
	s.prev.Z = p.Z
	return s.prev
}
