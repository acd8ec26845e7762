package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/model"
)

// The kernel differential harness: the dense-reference kernel scans the
// full n×m grid and exists purely so the production sparse kernel has an
// oracle to be bit-identical against (DESIGN.md §13). Every case runs the
// full estimator — not a single step — under both kernels at Workers 1
// and 8 and demands byte-equal Result structs.

// kernelGrid is the (n, m, density, seed) case grid. Densities span
// Twitter-sparse (empty columns included) through the paper's dense
// simulation regime.
var kernelGrid = []struct {
	n, m    int
	density float64
	seed    int64
}{
	{5, 12, 0.08, 1},
	{16, 40, 0.02, 2},
	{25, 80, 0.15, 3},
	{40, 64, 0.5, 4},
	{64, 160, 0.05, 5},
	{12, 30, 0.9, 6},
}

// buildRandomDataset draws a dataset at the given claim density, with a
// mix of dependent claims and silent-dependent pairs.
func buildRandomDataset(t *testing.T, n, m int, density float64, seed int64) *claims.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := claims.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			switch {
			case rng.Float64() < density:
				b.AddClaim(i, j, rng.Float64() < 0.35)
			case rng.Float64() < density/4:
				b.MarkSilentDependent(i, j)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestKernelEquivalence: for every grid case, variant, kernel, and worker
// count, the Result must be bit-identical to the serial sparse run.
func TestKernelEquivalence(t *testing.T) {
	for _, tc := range kernelGrid {
		ds := buildRandomDataset(t, tc.n, tc.m, tc.density, tc.seed)
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			opts := Options{Seed: tc.seed, DepMode: DepModeJoint}
			ref, err := Run(ds, v, opts)
			if err != nil {
				t.Fatalf("n=%d m=%d %v ref: %v", tc.n, tc.m, v, err)
			}
			for _, kernel := range []Kernel{KernelSparse, KernelDense} {
				for _, workers := range []int{1, 8} {
					o := opts
					o.Kernel = kernel
					o.Workers = workers
					got, err := Run(ds, v, o)
					if err != nil {
						t.Fatalf("n=%d m=%d %v kernel=%v workers=%d: %v", tc.n, tc.m, v, kernel, workers, err)
					}
					assertKernelIdentical(t, ref, got, tc.n, tc.m, v, kernel, workers)
				}
			}
		}
	}
}

// TestKernelEquivalencePlugin covers EM-Ext's plug-in path (coarse
// EM-Social fit + pooled-channel re-score), which routes through
// PosteriorOpts rather than the joint iteration.
func TestKernelEquivalencePlugin(t *testing.T) {
	ds := buildRandomDataset(t, 30, 90, 0.04, 11)
	ref, err := Run(ds, VariantExt, Options{Seed: 9, DepMode: DepModePlugin})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelSparse, KernelDense} {
		for _, workers := range []int{1, 8} {
			got, err := Run(ds, VariantExt, Options{
				Seed: 9, DepMode: DepModePlugin, Kernel: kernel, Workers: workers,
			})
			if err != nil {
				t.Fatalf("kernel=%v workers=%d: %v", kernel, workers, err)
			}
			assertKernelIdentical(t, ref, got, 30, 90, VariantExt, kernel, workers)
		}
	}
}

// TestKernelEquivalenceRestartsAndScratch: restarts (serial and
// concurrent) and a reused Scratch must not perturb a single bit either.
func TestKernelEquivalenceRestartsAndScratch(t *testing.T) {
	ds := buildRandomDataset(t, 20, 50, 0.12, 13)
	ref, err := Run(ds, VariantExt, Options{Seed: 21, Restarts: 3, DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch()
	for _, kernel := range []Kernel{KernelSparse, KernelDense} {
		for _, workers := range []int{1, 8} {
			// Run twice through the same scratch: the second fit starts from
			// dirty buffers and must still match.
			for pass := 0; pass < 2; pass++ {
				got, err := Run(ds, VariantExt, Options{
					Seed: 21, Restarts: 3, DepMode: DepModeJoint,
					Kernel: kernel, Workers: workers, Scratch: scratch,
				})
				if err != nil {
					t.Fatalf("kernel=%v workers=%d pass=%d: %v", kernel, workers, pass, err)
				}
				assertKernelIdentical(t, ref, got, 20, 50, VariantExt, kernel, workers)
			}
		}
	}
}

func assertKernelIdentical(t *testing.T, ref, got *factfind.Result, n, m int, v Variant, kernel Kernel, workers int) {
	t.Helper()
	t.Run(fmt.Sprintf("n=%d_m=%d_%v_%v_w%d", n, m, v, kernel, workers), func(t *testing.T) {
		requireBitIdentical(t, ref, got)
	})
}

// patternSequence grows one claim set through datasets whose per-source
// strata change from step to step: silent sources gain independent and
// dependent claims, claimants become silent-dependent on new assertions,
// and the id spaces grow. Every dataset keeps some silent sources.
func patternSequence(t *testing.T) []*claims.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	type mark struct {
		i, j       int
		dep, claim bool
	}
	var marks []mark
	claimed := map[[2]int]bool{}
	add := func(m mark) {
		k := [2]int{m.i, m.j}
		if claimed[k] {
			return
		}
		claimed[k] = true
		marks = append(marks, m)
	}
	var seq []*claims.Dataset
	n, m := 24, 30
	for step := 0; step < 5; step++ {
		// The first third of the sources claims; of the rest, each step
		// wakes a few: a claim, a dependent claim, or a silent pair.
		for i := 0; i < n; i++ {
			switch {
			case i < n/3:
				add(mark{i: i, j: rng.Intn(m), claim: true, dep: rng.Intn(3) == 0})
			case rng.Intn(6) == 0:
				switch rng.Intn(3) {
				case 0:
					add(mark{i: i, j: rng.Intn(m), claim: true})
				case 1:
					add(mark{i: i, j: rng.Intn(m), claim: true, dep: true})
				default:
					add(mark{i: i, j: rng.Intn(m)})
				}
			}
		}
		// A claimant turns silent-dependent on a fresh assertion.
		add(mark{i: step % (n / 3), j: m - 1})
		b := claims.NewBuilder(n, m)
		for _, mk := range marks {
			if mk.claim {
				b.AddClaim(mk.i, mk.j, mk.dep)
			} else {
				b.MarkSilentDependent(mk.i, mk.j)
			}
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ds)
		n, m = n+5, m+7
	}
	return seq
}

// poisonScratch sizes s for n sources and m assertions and fills every
// per-source table a fit might leave unrefreshed with NaN, so reading any
// entry the fit did not write first poisons the result.
func poisonScratch(s *Scratch, n, m int) {
	s.grow(n, m)
	nan := math.NaN()
	for _, tab := range [][]float64{s.log1A, s.log1B, s.corrA1, s.corrB0, s.corrF1, s.corrG0, s.corrSF1, s.corrSG0, s.post} {
		for k := range tab {
			tab[k] = nan
		}
	}
	for i := range s.nums {
		s.nums[i] = [4]float64{nan, nan, nan, nan}
		s.dens[i] = [4]float64{nan, nan, nan, nan}
	}
}

// TestScratchReuseAcrossPatterns guards the pattern-gated log tables: the
// correction entries of empty strata are never refreshed, so one Scratch
// reused across datasets whose strata change holds stale values in them.
// With every table poisoned with NaN before each fit, every variant and
// kernel at Workers 1 and 8 — full fits, the plug-in path, PosteriorOpts
// and the KernelStepper — must still match a fresh-scratch run bit for
// bit, which holds only if no stale entry is ever read.
func TestScratchReuseAcrossPatterns(t *testing.T) {
	seq := patternSequence(t)
	last := seq[len(seq)-1]
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		refs := make([]*factfind.Result, len(seq))
		for k, ds := range seq {
			var err error
			if refs[k], err = Run(ds, v, Options{Seed: 7, DepMode: DepModeJoint}); err != nil {
				t.Fatal(err)
			}
		}
		for _, kernel := range []Kernel{KernelSparse, KernelDense} {
			for _, workers := range []int{1, 8} {
				s := NewScratch()
				for k, ds := range seq {
					poisonScratch(s, last.N(), last.M())
					got, err := Run(ds, v, Options{Seed: 7, DepMode: DepModeJoint, Kernel: kernel, Workers: workers, Scratch: s})
					if err != nil {
						t.Fatal(err)
					}
					t.Run(fmt.Sprintf("%v_%v_w%d_step%d", v, kernel, workers, k), func(t *testing.T) {
						requireBitIdentical(t, refs[k], got)
					})
				}
			}
		}
	}

	for _, kernel := range []Kernel{KernelSparse, KernelDense} {
		for _, workers := range []int{1, 8} {
			s := NewScratch()
			for k, ds := range seq {
				name := fmt.Sprintf("%v_w%d_step%d", kernel, workers, k)
				// The plug-in path: coarse EM-Social fit plus PosteriorOpts.
				ref, err := Run(ds, VariantExt, Options{Seed: 7, DepMode: DepModePlugin})
				if err != nil {
					t.Fatal(err)
				}
				poisonScratch(s, last.N(), last.M())
				got, err := Run(ds, VariantExt, Options{Seed: 7, DepMode: DepModePlugin, Kernel: kernel, Workers: workers, Scratch: s})
				if err != nil {
					t.Fatal(err)
				}
				t.Run("plugin_"+name, func(t *testing.T) { requireBitIdentical(t, ref, got) })

				// PosteriorOpts alone, at the fitted parameters.
				wantPost, wantLL, err := PosteriorOpts(ds, ref.Params, Options{})
				if err != nil {
					t.Fatal(err)
				}
				poisonScratch(s, last.N(), last.M())
				gotPost, gotLL, err := PosteriorOpts(ds, ref.Params, Options{Kernel: kernel, Workers: workers, Scratch: s})
				if err != nil {
					t.Fatal(err)
				}
				if gotLL != wantLL || !reflect.DeepEqual(gotPost, wantPost) {
					t.Fatalf("PosteriorOpts %s: ll %v want %v", name, gotLL, wantLL)
				}

				// The KernelStepper, three E/M rounds per variant.
				for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
					fresh, err := NewKernelStepper(ds, v, ref.Params, Options{})
					if err != nil {
						t.Fatal(err)
					}
					poisonScratch(s, last.N(), last.M())
					reused, err := NewKernelStepper(ds, v, ref.Params, Options{Kernel: kernel, Workers: workers, Scratch: s})
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 3; round++ {
						if a, b := fresh.EStep(), reused.EStep(); a != b {
							t.Fatalf("stepper %s %v round %d: E-step ll %v want %v", name, v, round, b, a)
						}
						fresh.MStep()
						reused.MStep()
					}
					if !reflect.DeepEqual(fresh.Posterior(), reused.Posterior()) || !reflect.DeepEqual(fresh.Params(), reused.Params()) {
						t.Fatalf("stepper %s %v: state differs from a fresh-scratch stepper", name, v)
					}
				}
			}
		}
	}
}

// TestKernelEquivalenceUnsmoothedSilent covers the M-step's silent class
// under the paper's raw M-step (smoothing off), where an empty stratum
// keeps each source's previous value: from a random start the silent
// sources all hold different values, and the sparse kernel's one-shot
// class update must still match the dense oracle's per-source update.
func TestKernelEquivalenceUnsmoothedSilent(t *testing.T) {
	seq := patternSequence(t)
	ds := seq[len(seq)-1]
	init := model.RandomParams(rand.New(rand.NewSource(3)), ds.N())
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		opts := Options{Init: init, Smoothing: -1, MaxIters: 25, DepMode: DepModeJoint}
		ref, err := Run(ds, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range []Kernel{KernelSparse, KernelDense} {
			for _, workers := range []int{1, 8} {
				o := opts
				o.Kernel, o.Workers = kernel, workers
				got, err := Run(ds, v, o)
				if err != nil {
					t.Fatal(err)
				}
				assertKernelIdentical(t, ref, got, ds.N(), ds.M(), v, kernel, workers)
			}
		}
	}
}
