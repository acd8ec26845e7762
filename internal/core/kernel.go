package core

import "fmt"

// Kernel selects the estimator's hot-path implementation. Both kernels
// compute the identical floating-point operations in the identical order,
// so they produce bit-identical Results at any worker count — the
// dense-reference contract the kernelequiv differential suite enforces
// (see DESIGN.md §13). The sparse kernel is the production default; the
// dense kernel exists as the slow, obviously-correct oracle and as the
// baseline the benchhot harness times against.
type Kernel int

// Kernel implementations.
const (
	// KernelSparse iterates only the nonzeros of SC and D through the
	// flattened CSR/CSC view (claims.SparseView): O(n + m + nnz) per
	// E-step, O(m + nnz) per M-step.
	KernelSparse Kernel = iota
	// KernelDense scans the full n×m grid, consulting the sparse pattern
	// at every cell: O(n·m) per E-step and M-step. Reference only.
	KernelDense
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelSparse:
		return "sparse"
	case KernelDense:
		return "dense"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// eStepBlock computes posteriors and the log-likelihood partial for the
// assertion block [lo, hi) under the selected kernel.
func (e *engine) eStepBlock(lo, hi int, base1, base0, logZ, log1Z float64) float64 {
	if e.kernel == KernelDense {
		return e.eStepBlockDense(lo, hi, base1, base0, logZ, log1Z)
	}
	return e.eStepBlockSparse(lo, hi, base1, base0, logZ, log1Z)
}

// mStepBlock rebuilds stratum masses and the Eq. (10)-(13)
// numerator/denominator slots for the source block [lo, hi).
func (e *engine) mStepBlock(lo, hi int, sumZ, sumY float64) {
	if e.kernel == KernelDense {
		e.mStepBlockDense(lo, hi, sumZ, sumY)
		return
	}
	e.mStepBlockSparse(lo, hi, sumZ, sumY)
}

// eStepBlockSparse is the production E-step inner loop: each assertion
// starts from the shared all-silent baseline and applies one correction
// per nonzero of its SC column, then one per silent-dependent pair. The
// variant switch is hoisted out of the column loop so each inner loop
// stays branch-light.
func (e *engine) eStepBlockSparse(lo, hi int, base1, base0, logZ, log1Z float64) float64 {
	var (
		colPtr = e.sv.Claims.ColPtr
		rows   = e.sv.Claims.Row
		dep    = e.sv.ClaimDep
		silPtr = e.sv.Silent.ColPtr
		silRow = e.sv.Silent.Row
		post   = e.post
		ll     = 0.0
	)
	switch e.variant {
	case VariantExt:
		corrA1, corrB0 := e.corrA1, e.corrB0
		corrF1, corrG0 := e.corrF1, e.corrG0
		corrSF1, corrSG0 := e.corrSF1, e.corrSG0
		for j := lo; j < hi; j++ {
			l1, l0 := base1, base0
			for k := colPtr[j]; k < colPtr[j+1]; k++ {
				i := rows[k]
				if dep[k] {
					l1 += corrF1[i]
					l0 += corrG0[i]
				} else {
					l1 += corrA1[i]
					l0 += corrB0[i]
				}
			}
			for k := silPtr[j]; k < silPtr[j+1]; k++ {
				i := silRow[k]
				l1 += corrSF1[i]
				l0 += corrSG0[i]
			}
			w1 := l1 + logZ
			w0 := l0 + log1Z
			var lse float64
			post[j], lse = posteriorLSE(w1, w0)
			ll += lse
		}
	case VariantSocial:
		corrA1, corrB0 := e.corrA1, e.corrB0
		log1A, log1B := e.log1A, e.log1B
		for j := lo; j < hi; j++ {
			l1, l0 := base1, base0
			for k := colPtr[j]; k < colPtr[j+1]; k++ {
				i := rows[k]
				if dep[k] {
					// Pair unobserved: remove the baseline silent factor.
					l1 -= log1A[i]
					l0 -= log1B[i]
				} else {
					l1 += corrA1[i]
					l0 += corrB0[i]
				}
			}
			w1 := l1 + logZ
			w0 := l0 + log1Z
			var lse float64
			post[j], lse = posteriorLSE(w1, w0)
			ll += lse
		}
	default: // VariantIndependent: dependency indicators ignored
		corrA1, corrB0 := e.corrA1, e.corrB0
		for j := lo; j < hi; j++ {
			l1, l0 := base1, base0
			for k := colPtr[j]; k < colPtr[j+1]; k++ {
				i := rows[k]
				l1 += corrA1[i]
				l0 += corrB0[i]
			}
			w1 := l1 + logZ
			w0 := l0 + log1Z
			var lse float64
			post[j], lse = posteriorLSE(w1, w0)
			ll += lse
		}
	}
	return ll
}

// mStepBlockSparse accumulates each source's stratum masses over its CSR
// rows — independent claims, dependent claims, silent-dependent pairs, in
// ascending assertion order, matching the dense kernel's per-stratum
// accumulation order exactly. Silent sources take the class slots mStep
// computed from zero masses, which is what their empty rows would sum to.
func (e *engine) mStepBlockSparse(lo, hi int, sumZ, sumY float64) {
	var (
		d0Ptr, d0Col = e.sv.ClaimsD0.RowPtr, e.sv.ClaimsD0.Col
		d1Ptr, d1Col = e.sv.ClaimsD1.RowPtr, e.sv.ClaimsD1.Col
		sPtr, sCol   = e.sv.SilentD1.RowPtr, e.sv.SilentD1.Col
		post         = e.post
	)
	for i := lo; i < hi; i++ {
		if e.pattern[i] == 0 {
			e.nums[i], e.dens[i] = e.silentNums, e.silentDens
			continue
		}
		var st strata
		for k := d0Ptr[i]; k < d0Ptr[i+1]; k++ {
			z := post[d0Col[k]]
			st.az += z
			st.ay += 1 - z
		}
		for k := d1Ptr[i]; k < d1Ptr[i+1]; k++ {
			z := post[d1Col[k]]
			st.fz += z
			st.fy += 1 - z
		}
		for k := sPtr[i]; k < sPtr[i+1]; k++ {
			z := post[sCol[k]]
			st.sz += z
			st.sy += 1 - z
		}
		e.variant.ratios(&st, sumZ, sumY, &e.nums[i], &e.dens[i])
	}
}

// strata holds one source's posterior masses by stratum: claimed
// independently (a), claimed dependently (f), silent-dependent (s); Z
// carries P(true) mass and Y carries P(false) mass.
type strata struct{ az, ay, fz, fy, sz, sy float64 }

// ratios fills the Eq. (10)-(13) numerator/denominator slots (A, B, F, G)
// of a source with stratum masses st, per variant. Shared by both kernels
// and by the M-step's silent class.
func (v Variant) ratios(st *strata, sumZ, sumY float64, nums, dens *[4]float64) {
	switch v {
	case VariantExt:
		depZ := st.fz + st.sz
		depY := st.fy + st.sy
		*nums = [4]float64{st.az, st.ay, st.fz, st.fy}
		*dens = [4]float64{sumZ - depZ, sumY - depY, depZ, depY}
	case VariantIndependent:
		*nums = [4]float64{st.az + st.fz, st.ay + st.fy}
		*dens = [4]float64{sumZ, sumY}
	case VariantSocial:
		*nums = [4]float64{st.az, st.ay}
		*dens = [4]float64{sumZ - st.fz, sumY - st.fy}
	}
}
