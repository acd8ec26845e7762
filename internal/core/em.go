// Package core implements the paper's primary contribution: the
// dependency-aware maximum-likelihood estimator EM-Ext (Section IV,
// Algorithm 2). The estimator jointly infers the source parameter set
// θ = {a_i, b_i, f_i, g_i, z} and per-assertion truth posteriors
// P(C_j = 1 | SC; θ) from the source-claim matrix and the dependency
// indicators alone, iterating the E-step of Eq. (9) against the closed-form
// M-step of Eqs. (10)-(14) until convergence.
//
// The same expectation-maximization engine also powers the two model-based
// baselines the paper compares against — EM (IPSN'12, source independence
// assumed) and EM-Social (IPSN'14, dependent claims discarded) — selected by
// a Variant. Those baselines are exposed under internal/baselines; this
// package exposes EMExt.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/parallel"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
)

// Variant selects which likelihood the EM engine maximizes.
type Variant int

// EM variants.
const (
	// VariantExt is the paper's dependency-aware estimator: independent
	// pairs go through the (a_i, b_i) channel, dependent pairs (claimed or
	// silent) through the (f_i, g_i) channel.
	VariantExt Variant = iota + 1
	// VariantIndependent is EM (IPSN'12): the dependency indicators are
	// ignored and every pair goes through the (a_i, b_i) channel.
	VariantIndependent
	// VariantSocial is EM-Social (IPSN'14): dependent claims are treated as
	// unobserved — they contribute no likelihood factor and are excluded
	// from the M-step sums.
	VariantSocial
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantExt:
		return "EM-Ext"
	case VariantIndependent:
		return "EM"
	case VariantSocial:
		return "EM-Social"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options tunes an EM run. The zero value selects sensible defaults.
type Options struct {
	// MaxIters caps EM iterations (default 200).
	MaxIters int
	// Tol declares convergence when no parameter moves more than Tol
	// between iterations (default 1e-6).
	Tol float64
	// Seed drives the random initialization (Algorithm 2 line 1).
	Seed int64
	// Init overrides random initialization with explicit parameters. The
	// parameter set is copied; the caller's value is not mutated.
	Init *model.Params
	// Restarts > 1 runs EM from that many random initializations and keeps
	// the result with the highest data log-likelihood (default 1).
	Restarts int
	// InitMode selects the initialization strategy when Init is nil.
	InitMode InitMode
	// Smoothing is the strength (in pseudo-observations) of the M-step's
	// empirical-Bayes shrinkage for the independent channel (a_i, b_i):
	// each per-source estimate is pulled toward the pooled all-source
	// estimate of the same channel. Negative disables all smoothing (the
	// paper's raw M-step); zero selects the default (2).
	Smoothing float64
	// DepSmoothing is the same for the dependent channel (f_i, g_i), which
	// typically rests on far fewer pairs per source — on Twitter-sparse
	// data a couple — so it defaults stronger (8). A source with only a
	// handful of dependent pairs then keeps essentially the pooled
	// channel, while sources with dozens (dense simulation data) retain
	// per-source resolution. Zero selects the default; it is ignored when
	// Smoothing is negative.
	DepSmoothing float64
	// DepMode controls how VariantExt fits the dependent channel; see
	// DepMode. Zero selects DepModeAuto.
	DepMode DepMode
	// DenseThreshold is the dependent-pairs-per-source level above which
	// DepModeAuto selects the joint fit (default 5).
	DenseThreshold float64
	// Workers bounds the run's parallelism: the E-step and M-step shard
	// across fixed-size blocks of assertions/sources, and independent
	// restarts run concurrently, on up to Workers goroutines. Results are
	// bit-for-bit identical for every Workers value because the block
	// decomposition and all reduction orders are fixed (see DESIGN.md,
	// "Deterministic parallel execution"). 0 or 1 runs serial.
	Workers int
	// Kernel selects the hot-path implementation; the zero value is the
	// production sparse kernel. Both kernels are bit-identical (see Kernel
	// and DESIGN.md §13); KernelDense exists as the differential-testing
	// oracle and benchmark baseline.
	Kernel Kernel
	// Scratch, when non-nil, supplies preallocated kernel buffers reused
	// across fits (see Scratch). It must not be shared by concurrent runs;
	// the concurrent-restarts path ignores it. Nil allocates internally.
	Scratch *Scratch
}

// DepMode selects EM-Ext's strategy for the dependent channel (f_i, g_i).
//
// The dependency-aware likelihood is only as identifiable as the dependent
// strata are populated. On dense matrices (the paper's simulations: tens of
// dependent pairs per source) the full joint EM of Algorithm 2 works and is
// the most accurate. On Twitter-sparse matrices (a couple of dependent
// pairs per source) the per-source dependent parameters are unidentified
// and the joint likelihood drifts into a "popularity" labeling: heavily
// retweeted assertions are relabeled true, the dependent channel inverts to
// match, and accuracy collapses — observed directly, and the likelihood
// cannot detect it (the drifted optimum scores higher). The plug-in mode
// guards against this: fit the dependency-blind model first, estimate ONE
// pooled dependent channel from its posteriors, and re-score once.
type DepMode int

// Dependent-channel fitting modes.
const (
	// DepModeAuto (default) picks DepModeJoint when the dataset has at
	// least DenseThreshold dependent pairs per source, DepModePlugin
	// otherwise.
	DepModeAuto DepMode = iota
	// DepModeJoint runs the full joint EM over all of θ (Algorithm 2),
	// staged from the independent fit.
	DepModeJoint
	// DepModePlugin fits EM-Social, then plugs in a single pooled
	// (f, g) estimate and re-scores with one E-step.
	DepModePlugin
)

// InitMode selects how EM is initialized when no explicit parameters are
// given.
type InitMode int

// Initialization strategies.
const (
	// InitDefault resolves to InitVote for every variant. (EM-Ext's joint
	// mode used InitStaged until the dependent-channel smoothing landed;
	// with it, vote initialization matches or beats staging on every
	// simulated regime — see BenchmarkAblationInit.)
	InitDefault InitMode = iota
	// InitVote seeds the posteriors with each assertion's smoothed support
	// fraction and derives θ from an immediate M-step. Anchoring "more
	// support ⇒ more credible" places EM in the basin where sources are
	// better than chance, resolving the likelihood's global label-swap
	// symmetry; restarts perturb the seed posteriors. This is the standard
	// initialization for truth-discovery EM.
	InitVote
	// InitStaged is coarse-to-fine: first fit the independent-source model
	// (vote-initialized), then refine with the full dependency-aware
	// likelihood starting from the coarse solution with both channels
	// initialized to the independent one. This avoids the poor local
	// optima the 4-parameters-per-source landscape exhibits under
	// data-blind starts. Used by EM-Ext's joint mode (see DepMode).
	InitStaged
	// InitInformed draws random parameters with true-claim probabilities
	// above false-claim probabilities (label-identified but data-blind).
	InitInformed
	// InitRandom draws parameters fully at random ("initialize parameter
	// set θ with random probability", Algorithm 2 line 1, taken literally).
	// Subject to label switching; useful for studying the symmetry.
	InitRandom
)

func (o Options) normalized() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.Smoothing == 0 {
		o.Smoothing = 2
	} else if o.Smoothing < 0 {
		o.Smoothing = 0
		o.DepSmoothing = 0
		return o
	}
	if o.DepSmoothing == 0 {
		o.DepSmoothing = 8
	} else if o.DepSmoothing < 0 {
		o.DepSmoothing = 0
	}
	return o
}

// Errors returned by the estimators.
var (
	ErrEmptyDataset = errors.New("core: dataset has no sources or no assertions")
	ErrParamsShape  = errors.New("core: initial parameters do not match dataset")
)

// EMExt is the paper's dependency-aware estimator.
type EMExt struct {
	Opts Options
}

var _ factfind.FactFinder = (*EMExt)(nil)

// Name implements factfind.FactFinder.
func (e *EMExt) Name() string { return "EM-Ext" }

// Run implements factfind.FactFinder.
func (e *EMExt) Run(ds *claims.Dataset) (*factfind.Result, error) {
	return e.RunContext(context.Background(), ds)
}

// RunContext implements factfind.FactFinder.
func (e *EMExt) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	return RunCtx(ctx, ds, VariantExt, e.Opts)
}

// Run executes the EM engine for the given variant without cancellation or
// observability, the pre-runctx contract kept for batch callers.
func Run(ds *claims.Dataset, variant Variant, opts Options) (*factfind.Result, error) {
	return RunCtx(context.Background(), ds, variant, opts)
}

// RunCtx executes the EM engine for the given variant under a run-context.
// Cancellation is checked once per E/M iteration; on cancellation it returns
// the context's error together with the partial result of the interrupted
// restart (posteriors from the last completed E-step, Stopped set from the
// context error). Any runctx hook on ctx fires after every iteration with
// the current log-likelihood.
func RunCtx(ctx context.Context, ds *claims.Dataset, variant Variant, opts Options) (*factfind.Result, error) {
	opts = opts.normalized()
	if ds.N() == 0 || ds.M() == 0 {
		return nil, ErrEmptyDataset
	}
	if err := runctx.Err(ctx); err != nil {
		return nil, err
	}
	if opts.Init != nil {
		if err := opts.Init.Validate(); err != nil {
			return nil, fmt.Errorf("core: init params: %w", err)
		}
		if opts.Init.NumSources() != ds.N() {
			return nil, fmt.Errorf("%w: init has %d sources, dataset %d",
				ErrParamsShape, opts.Init.NumSources(), ds.N())
		}
	}

	if variant == VariantExt && opts.Init == nil &&
		(opts.InitMode == InitDefault || opts.InitMode == InitStaged) {
		if depMode(ds, opts) == DepModePlugin {
			return runPlugin(ctx, ds, opts)
		}
	}

	mode := opts.InitMode
	if mode == InitDefault {
		mode = InitVote
	}

	if opts.Init == nil && opts.Restarts > 1 && opts.Workers > 1 {
		return runRestartsParallel(ctx, ds, variant, mode, opts)
	}

	var best *factfind.Result
	for r := 0; r < opts.Restarts; r++ {
		res, err := runRestart(ctx, ds, variant, mode, opts, r)
		if err != nil {
			// Cancellation mid-restart: surface the interrupted restart's
			// partial state rather than silently keeping an earlier best —
			// partial results must be deterministic functions of where the
			// run stopped.
			return res, err
		}
		if best == nil || res.LogLikelihood > best.LogLikelihood {
			best = res
		}
		if opts.Init != nil {
			break // explicit init: restarts would all be identical
		}
	}
	return best, nil
}

// runRestart executes restart r: initialization derived from r's seed, then
// one EM run. Every restart is a deterministic function of (opts, r) alone,
// which is what allows the parallel path to run them concurrently and still
// match the serial path bit for bit.
func runRestart(ctx context.Context, ds *claims.Dataset, variant Variant, mode InitMode, opts Options, r int) (*factfind.Result, error) {
	rng := randutil.New(opts.Seed + int64(r)*7919)
	var init *model.Params
	var seedPost []float64
	switch {
	case opts.Init != nil:
		init = opts.Init.Clone()
	case mode == InitStaged:
		coarseOpts := opts
		coarseOpts.Init = nil
		coarseOpts.InitMode = InitVote
		coarseOpts.Restarts = 1
		coarseOpts.Seed = opts.Seed + int64(r)*7919
		coarse, err := RunCtx(ctx, ds, VariantIndependent, coarseOpts)
		if err != nil {
			if runctx.Reason(err) != "" {
				return coarse, err
			}
			return nil, fmt.Errorf("core: staged init: %w", err)
		}
		init = coarse.Params.Clone()
		for i := range init.Sources {
			s := &init.Sources[i]
			s.F, s.G = s.A, s.B
		}
	case mode == InitInformed:
		init = model.InformedInitParams(rng, ds.N())
	case mode == InitRandom:
		init = model.RandomParams(rng, ds.N())
	default: // InitVote
		init = model.NewParams(ds.N(), 0.5)
		seedPost = votePosteriors(ds, rng, r > 0)
	}
	return runOnce(ctx, ds, variant, init, seedPost, opts, r)
}

// runRestartsParallel fans the restarts out over the worker budget. Each
// restart is deterministic given its index, the best-of selection scans the
// completed slots in restart order with the same strictly-greater rule as
// the serial loop, and on cancellation the lowest-indexed interrupted
// restart's partial state is surfaced — the restart the serial loop would
// have been inside. Hooks are serialized because concurrent restarts emit
// concurrently.
func runRestartsParallel(ctx context.Context, ds *claims.Dataset, variant Variant, mode InitMode, opts Options) (*factfind.Result, error) {
	type slot struct {
		res *factfind.Result
		err error
	}
	slots := make([]slot, opts.Restarts)
	// A Scratch is exclusive to one running fit; concurrent restarts each
	// allocate their own.
	opts.Scratch = nil
	sctx := runctx.WithSerializedHook(ctx)
	poolErr := parallel.ForEachCtx(ctx, opts.Restarts, opts.Workers, func(r int) error {
		slots[r].res, slots[r].err = runRestart(sctx, ds, variant, mode, opts, r)
		return nil
	})
	for r := range slots {
		if slots[r].err != nil {
			return slots[r].res, slots[r].err
		}
		if slots[r].res == nil {
			// Cancellation stopped dispatch before restart r ran. The serial
			// loop would have entered it and returned its initial partial
			// state from the first iteration checkpoint; reproduce that.
			return runRestart(sctx, ds, variant, mode, opts, r)
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}
	var best *factfind.Result
	for r := range slots {
		if best == nil || slots[r].res.LogLikelihood > best.LogLikelihood {
			best = slots[r].res
		}
	}
	return best, nil
}

// votePosteriors seeds per-assertion posteriors from support counts in a
// scale-free way: count/(count + meanCount), which maps the average-support
// assertion to 0.5 on dense simulation matrices (tens of claims per
// assertion) and sparse Twitter-scale ones (one or two claims per
// assertion) alike. Normalizing by the number of sources instead collapses
// every seed toward zero on sparse data and strands EM in a degenerate
// "everything is false" basin. When perturb is set (restart runs after the
// first), uniform noise moves the seed so restarts explore different basins.
func votePosteriors(ds *claims.Dataset, rng interface{ Float64() float64 }, perturb bool) []float64 {
	post := make([]float64, ds.M())
	mean := 0.0
	for j := 0; j < ds.M(); j++ {
		mean += float64(len(ds.Claimants(j)))
	}
	mean /= float64(ds.M())
	if mean <= 0 {
		mean = 1
	}
	for j := range post {
		count := float64(len(ds.Claimants(j)))
		p := (count + 0.25) / (count + mean + 0.5)
		if perturb {
			p += 0.3 * (rng.Float64() - 0.5)
		}
		post[j] = model.ClampProb(p)
	}
	return post
}

// emBlockSize is the fixed shard granularity of the E-step (assertions) and
// M-step (sources). The decomposition depends only on the problem size, so
// per-block partials reduced in block index order make every run
// scheduler-independent: Workers changes wall-clock time, never a bit of
// the result.
const emBlockSize = 256

// engine binds one run's configuration to its Scratch buffers and the
// dataset's flattened sparse view. All mutable per-iteration state lives in
// the embedded Scratch, which outlives the engine when the caller passed
// one through Options.Scratch.
type engine struct {
	ds        *claims.Dataset
	sv        *claims.SparseView
	variant   Variant
	kernel    Kernel
	smooth    float64
	smoothDep float64
	workers   int

	// readA, readF, readS are the strata whose nonzeros make the E-step
	// read corrA1/corrB0, corrF1/corrG0 and corrSF1/corrSG0 under this
	// variant; refreshLogs refreshes a source's entries only when its
	// pattern intersects them.
	readA, readF, readS uint8

	// silentNums/silentDens are this M-step's Eq. (10)-(13) slots for a
	// silent source (pattern 0), shared by every such source.
	silentNums, silentDens [4]float64

	*Scratch
}

// Source stratum bits of Scratch.pattern.
const (
	stratIndep  uint8 = 1 << iota // claims with D = 0
	stratDep                      // claims with D = 1
	stratSilent                   // silent-dependent pairs
)

// newEngine prepares an engine for one fit, borrowing the caller's Scratch
// when provided (and safe) or allocating a private one.
func newEngine(ds *claims.Dataset, variant Variant, opts Options) *engine {
	s := opts.Scratch
	if s == nil {
		s = NewScratch()
	}
	s.grow(ds.N(), ds.M())
	e := &engine{
		ds:        ds,
		sv:        ds.Sparse(),
		variant:   variant,
		kernel:    opts.Kernel,
		smooth:    opts.Smoothing,
		smoothDep: opts.DepSmoothing,
		workers:   opts.Workers,
		Scratch:   s,
	}
	switch variant {
	case VariantExt:
		e.readA, e.readF, e.readS = stratIndep, stratDep, stratSilent
	case VariantIndependent:
		e.readA = stratIndep | stratDep
	case VariantSocial:
		e.readA = stratIndep // dependent claims read log1A/log1B
	}
	d0, d1, sil := e.sv.ClaimsD0.RowPtr, e.sv.ClaimsD1.RowPtr, e.sv.SilentD1.RowPtr
	for i := range s.pattern {
		var p uint8
		if d0[i+1] > d0[i] {
			p |= stratIndep
		}
		if d1[i+1] > d1[i] {
			p |= stratDep
		}
		if sil[i+1] > sil[i] {
			p |= stratSilent
		}
		s.pattern[i] = p
	}
	return e
}

// runOnce executes one EM run. restart is the 0-based restart index, fired
// through the hook as Iteration.Chain so observers (trace recorders) can
// attribute records to their restart under parallel fan-out.
func runOnce(ctx context.Context, ds *claims.Dataset, variant Variant, params *model.Params, seedPost []float64, opts Options, restart int) (*factfind.Result, error) {
	eng := newEngine(ds, variant, opts)
	params.Clamp()
	if seedPost != nil {
		// Vote initialization: derive θ from the seed posteriors via one
		// M-step before the first E-step.
		copy(eng.post, seedPost)
		eng.mStep(params)
	} else {
		// A reused Scratch may carry a previous fit's posteriors; zero them
		// so a cancellation before the first E-step surfaces the same
		// all-zero partial state a fresh allocation would.
		clear(eng.post)
	}

	var (
		iter      int
		converged bool
		ll        float64
	)
	hook := runctx.HookFrom(ctx)
	start := time.Now() //lint:allow seedsource wall-clock timing for the observability hook Elapsed field, not part of results
	result := func(stopped string) *factfind.Result {
		return &factfind.Result{
			Posterior:     append([]float64(nil), eng.post...),
			Params:        params,
			Iterations:    iter,
			Converged:     converged,
			LogLikelihood: ll,
			Stopped:       stopped,
		}
	}
	prev := eng.borrowPrev(params)
	for iter = 1; iter <= opts.MaxIters; iter++ {
		// One cancellation check per E/M iteration bounds the latency of a
		// cancel to a single iteration's work, and the partial state — the
		// posteriors of the last completed E-step — stays deterministic.
		if err := runctx.Err(ctx); err != nil {
			iter--
			stopped := runctx.Reason(err)
			hook.Emit(runctx.Iteration{
				Algorithm: variant.String(), N: iter, Chain: restart,
				LogLikelihood: ll, HasLL: iter > 0,
				Elapsed: time.Since(start), Done: true, Stopped: stopped,
			})
			return result(stopped), err
		}
		eng.refreshLogs(params)
		ll = eng.eStep(params)
		eng.mStep(params)
		if params.MaxAbsDiff(prev) < opts.Tol {
			converged = true
		}
		it := runctx.Iteration{
			Algorithm: variant.String(), N: iter, Chain: restart,
			LogLikelihood: ll, HasLL: true,
			Elapsed: time.Since(start), Done: converged,
		}
		if converged {
			it.Stopped = runctx.StopConverged
		}
		hook.Emit(it)
		if converged {
			break
		}
		copy(prev.Sources, params.Sources)
		prev.Z = params.Z
	}
	// Final E-step so posteriors reflect the final parameters.
	eng.refreshLogs(params)
	ll = eng.eStep(params)
	if !converged {
		hook.Emit(runctx.Iteration{
			Algorithm: variant.String(), N: opts.MaxIters, Chain: restart,
			LogLikelihood: ll, HasLL: true,
			Elapsed: time.Since(start), Done: true, Stopped: runctx.StopIterationCap,
		})
	}

	return result(runctx.StopOf(converged)), nil
}

// refreshLogs rebuilds the per-source log tables and folds them into the
// sparse-correction tables the E-step adds per nonzero. model.SafeLog is
// exactly math.Log on the clamped parameter range ([ProbEpsilon,
// 1-ProbEpsilon], which Clamp and the M-step guarantee), so routing
// through it changes no bits while making the log-space intent explicit
// and keeping degenerate inputs finite.
//
// The work follows the claim pattern: every source gets its baseline
// factors log(1-a_i), log(1-b_i), but a correction pair is computed only
// for sources with nonzeros the E-step reads it for (engine.readA/F/S).
// Silent sources — no claims, no silent-dependent pairs — need only the
// baseline, and since the M-step gives them all one (a, b) they share a
// memoised pair of logs.
func (e *engine) refreshLogs(p *model.Params) {
	for i, s := range p.Sources {
		pat := e.pattern[i]
		var l1a, l1b float64
		if pat == 0 {
			l1a, l1b = e.silentMemo.logs1m(s.A, s.B)
		} else {
			l1a, l1b = model.SafeLog(1-s.A), model.SafeLog(1-s.B)
		}
		e.log1A[i] = l1a
		e.log1B[i] = l1b
		if pat&e.readA != 0 {
			e.corrA1[i] = model.SafeLog(s.A) - l1a
			e.corrB0[i] = model.SafeLog(s.B) - l1b
		}
		if pat&e.readF != 0 {
			e.corrF1[i] = model.SafeLog(s.F) - l1a
			e.corrG0[i] = model.SafeLog(s.G) - l1b
		}
		if pat&e.readS != 0 {
			e.corrSF1[i] = model.SafeLog(1-s.F) - l1a
			e.corrSG0[i] = model.SafeLog(1-s.G) - l1b
		}
	}
}

// eStep computes Z_j = P(C_j = 1 | SC_j; θ) for all assertions (Eq. 9) and
// returns the data log-likelihood (Eq. 7).
//
// The all-silent baseline Σ_i log(1-a_i) is shared across assertions; each
// assertion then applies precomputed sparse corrections for its claimants
// and (under VariantExt) its silent-dependent sources, so the production
// kernel costs O(n + m + nnz) rather than O(n·m); see eStepBlockSparse.
//
// Assertions shard into fixed blocks: each block writes its posteriors
// (disjoint slots) and a block-local log-likelihood partial, and the
// partials are summed in block index order afterwards — the same reduction
// whether the blocks ran on one goroutine or many. At Workers <= 1 the
// blocks run inline without a closure so the step allocates nothing.
func (e *engine) eStep(p *model.Params) float64 {
	var base1, base0 float64
	log1A, log1B := e.log1A, e.log1B
	for i := range log1A {
		base1 += log1A[i]
		base0 += log1B[i]
	}
	logZ := model.SafeLog(p.Z)
	log1Z := model.SafeLog(1 - p.Z)

	m := e.ds.M()
	nb := parallel.Blocks(m, emBlockSize)
	llPart := e.llPart[:nb]
	if e.workers <= 1 {
		for b := 0; b < nb; b++ {
			lo, hi := parallel.BlockRange(b, m, emBlockSize)
			llPart[b] = e.eStepBlock(lo, hi, base1, base0, logZ, log1Z)
		}
	} else {
		_ = parallel.ForEach(nb, e.workers, func(b int) error {
			lo, hi := parallel.BlockRange(b, m, emBlockSize)
			llPart[b] = e.eStepBlock(lo, hi, base1, base0, logZ, log1Z)
			return nil
		})
	}
	ll := 0.0
	for b := 0; b < nb; b++ {
		ll += llPart[b]
	}
	return ll
}

// mStep recomputes θ from the posteriors (Eqs. 10-14).
//
// Each per-source ratio is shrunk toward the pooled all-source estimate of
// the same channel with e.smooth pseudo-observations (empirical-Bayes
// smoothing): â = (num_i + s·pooled) / (den_i + s). With s = 0 this is the
// paper's raw M-step, in which a parameter whose stratum carries no
// posterior mass keeps its previous value.
func (e *engine) mStep(p *model.Params) {
	n, m := e.ds.N(), e.ds.M()

	// Total posterior mass, reduced block-wise in index order (the same
	// decomposition as the E-step) so the sum is Workers-independent.
	nbM := parallel.Blocks(m, emBlockSize)
	zPart := e.zPart[:nbM]
	if e.workers <= 1 {
		for b := 0; b < nbM; b++ {
			zPart[b] = e.sumPostBlock(b, m)
		}
	} else {
		_ = parallel.ForEach(nbM, e.workers, func(b int) error {
			zPart[b] = e.sumPostBlock(b, m)
			return nil
		})
	}
	sumZ := 0.0
	for b := 0; b < nbM; b++ {
		sumZ += zPart[b]
	}
	sumY := float64(m) - sumZ

	// Per-source stratum masses and the numerators/denominators of
	// Eqs. (10)-(13): every source is independent, so source blocks shard
	// freely; each slot is written exactly once (see mStepBlock). A silent
	// source's strata are all empty, so its slots are the ratios of zero
	// masses, computed once here for the whole class.
	e.variant.ratios(&strata{}, sumZ, sumY, &e.silentNums, &e.silentDens)
	nbN := parallel.Blocks(n, emBlockSize)
	if e.workers <= 1 {
		for b := 0; b < nbN; b++ {
			lo, hi := parallel.BlockRange(b, n, emBlockSize)
			e.mStepBlock(lo, hi, sumZ, sumY)
		}
	} else {
		_ = parallel.ForEach(nbN, e.workers, func(b int) error {
			lo, hi := parallel.BlockRange(b, n, emBlockSize)
			e.mStepBlock(lo, hi, sumZ, sumY)
			return nil
		})
	}

	// Pooled channel totals for shrinkage, accumulated serially in source
	// index order — a cheap O(n) reduction whose order fixes the result.
	// One scalar accumulator per sum keeps the chains in registers.
	var pa, pb, pf, pg ratio
	for i := 0; i < n; i++ {
		nm, dn := &e.nums[i], &e.dens[i]
		pa.num += nm[0]
		pa.den += dn[0]
		pb.num += nm[1]
		pb.den += dn[1]
		pf.num += nm[2]
		pf.den += dn[2]
		pg.num += nm[3]
		pg.den += dn[3]
	}
	pool := [4]ratio{pa, pb, pf, pg} // A, B, F, G

	var pooled, shrink [4]float64
	for c := 0; c < 4; c++ {
		if pool[c].den > 0 {
			pooled[c] = pool[c].num / pool[c].den
		} else {
			pooled[c] = 0.5
		}
		if c < 2 {
			shrink[c] = e.smooth
		} else {
			shrink[c] = e.smoothDep
		}
	}

	// The silent class's update is computed once; keep[c] marks an
	// unsmoothed empty stratum, where each source keeps its own value. The
	// dense oracle updates silent sources one by one, which is what the
	// class value must reproduce bit for bit.
	var silent [4]float64
	var keep [4]bool
	for c := range silent {
		silent[c], keep[c] = shrunk(0, e.silentNums[c], e.silentDens[c], shrink[c], pooled[c])
	}
	silentClass := e.kernel != KernelDense
	ext := e.variant == VariantExt
	for i := range p.Sources {
		s := &p.Sources[i]
		if silentClass && e.pattern[i] == 0 {
			setUnlessKept(&s.A, silent[0], keep[0])
			setUnlessKept(&s.B, silent[1], keep[1])
			if ext {
				setUnlessKept(&s.F, silent[2], keep[2])
				setUnlessKept(&s.G, silent[3], keep[3])
			}
		} else {
			nm, dn := &e.nums[i], &e.dens[i]
			s.A, _ = shrunk(s.A, nm[0], dn[0], shrink[0], pooled[0])
			s.B, _ = shrunk(s.B, nm[1], dn[1], shrink[1], pooled[1])
			if ext {
				s.F, _ = shrunk(s.F, nm[2], dn[2], shrink[2], pooled[2])
				s.G, _ = shrunk(s.G, nm[3], dn[3], shrink[3], pooled[3])
			}
		}
		if e.variant == VariantIndependent {
			// One channel: keep the dependent parameters mirrored so the
			// estimated θ remains interpretable downstream.
			s.F, s.G = s.A, s.B
		}
	}
	p.Z = model.ClampProb(sumZ / float64(m))
}

// shrunk is one parameter's smoothed M-step update: the ratio num/den
// shrunk toward pooled with shrink pseudo-observations. An unsmoothed
// empty stratum (den + shrink <= 1e-12) keeps prev and reports kept.
func shrunk(prev, num, den, shrink, pooled float64) (v float64, kept bool) {
	den += shrink
	if den <= 1e-12 {
		return prev, true
	}
	return model.ClampProb((num + shrink*pooled) / den), false
}

// setUnlessKept stores v into dst unless the update keeps the previous
// value.
func setUnlessKept(dst *float64, v float64, kept bool) {
	if !kept {
		*dst = v
	}
}

// sumPostBlock sums the posterior mass of assertion block b.
func (e *engine) sumPostBlock(b, m int) float64 {
	lo, hi := parallel.BlockRange(b, m, emBlockSize)
	z := 0.0
	for j := lo; j < hi; j++ {
		z += e.post[j]
	}
	return z
}

// ratio is a numerator/denominator pair of posterior masses.
type ratio struct{ num, den float64 }

// sigmoidDiff returns exp(w1)/(exp(w1)+exp(w0)) computed stably.
func sigmoidDiff(w1, w0 float64) float64 {
	d := w1 - w0
	if d >= 0 {
		return 1 / (1 + math.Exp(-d))
	}
	ed := math.Exp(d)
	return ed / (1 + ed)
}

// posteriorLSE returns sigmoidDiff(w1, w0) and logSumExp(w1, w0), bit for
// bit, from one shared exponential: both need exp(-|w1-w0|), and w0-w1 is
// exactly -(w1-w0) in IEEE arithmetic. The sparse E-step uses it; the
// dense oracle keeps the two separate calls it must agree with.
func posteriorLSE(w1, w0 float64) (post, lse float64) {
	hi, lo := w1, w0
	if hi < lo {
		hi, lo = lo, hi
	}
	if math.IsInf(hi, -1) {
		return sigmoidDiff(w1, w0), hi
	}
	ed := math.Exp(lo - hi)
	if w1-w0 >= 0 {
		post = 1 / (1 + ed)
	} else {
		post = ed / (1 + ed)
	}
	return post, hi + math.Log1p(ed)
}

// logSumExp returns log(exp(a)+exp(b)) computed stably. It delegates to
// the shared log-space helpers next to the clamp in internal/model.
func logSumExp(a, b float64) float64 {
	return model.LogSumExp(a, b)
}
