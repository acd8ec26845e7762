package main

import (
	"context"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// tinyConfig shrinks every workload so the self-test runs in seconds.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 0.1
	cfg.trace = traced
	cfg.rate = 40
	cfg.outDir = t.TempDir()
	cfg.replay = ingestSpec{scale: 60, batch: 16}
	cfg.durable = ingestSpec{scale: 60, batch: 8, durable: true, boundEvery: 4}
	cfg.ff.scales = []int{60}
	cfg.ff.roundSeconds = 0.2
	cfg.minSamples = 0
	return cfg
}

// usedLayers names per-layer metrics that must be nonzero on a workload,
// because the workload runs through that layer.
var usedLayers = map[string][]string{
	wlReplay: {"cluster.batch_ms", "cluster.clusters", "depgraph.build_ms", "claims.build_ms",
		"claims.events_rebuilt", "core.iterations", "core.iter_ms", "core.estep_us", "core.mstep_us",
		"stream.refit_ms_p50", "stream.refit_ms_p90", "ingest.estimator_busy_share", "bench.trace_overhead"},
	wlDurable: {"cluster.batch_ms", "depgraph.build_ms", "claims.build_ms", "core.iterations",
		"stream.refit_ms_p90", "qual.observe_ms", "qual.bound_ms", "qual.bound_evals",
		"ingest.wal_ms", "ingest.wal_bytes", "ingest.estimator_busy_share", "bench.trace_overhead"},
	wlFactfind: {"cluster.request_ms", "cluster.clusters", "depgraph.build_ms", "claims.build_ms",
		"claims.events_rebuilt", "core.iterations", "core.iter_ms", "core.estep_us", "core.mstep_us",
		"qual.observe_ms", "apollo.build_ms", "apollo.fit_ms", "apollo.rank_ms", "httpapi.decode_ms",
		"httpapi.handler_ms", "bench.trace_overhead"},
}

// mustBeZero names per-layer metrics a correct run reports as exactly 0.
var mustBeZero = []string{"ingest.dropped", "serve.cache_hits", "serve.shed"}

func TestEveryMetricEmittedAndChecksPass(t *testing.T) {
	for _, wl := range []string{wlReplay, wlDurable, wlFactfind} {
		for _, traced := range []bool{false, true} {
			name := wl + "/e2e"
			if traced {
				name = wl + "/trace"
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(context.Background(), tinyConfig(t, wl, traced), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d problems=%q", out.Correct, out.Failed, out.Attempted, out.problems)
				}
				set := endToEnd
				if traced {
					set = perLayer
				}
				if len(out.Metrics) != len(set) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(set))
				}
				for _, m := range set {
					got, ok := out.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
						t.Errorf("metric %s = %v", m.name, got.Value)
					case !traced && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.name)
					}
				}
				if !traced {
					return
				}
				for _, name := range usedLayers[wl] {
					if out.Metrics[name].Value <= 0 {
						t.Errorf("%s does not use layer metric %s (value %v)", wl, name, out.Metrics[name].Value)
					}
				}
				for _, name := range mustBeZero {
					if v := out.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v, want 0", name, v)
					}
				}
			})
		}
	}
}

func TestParallelWorkersRunWhenCPUsAllow(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs")
	}
	cfg := tinyConfig(t, wlReplay, true)
	cfg.workers = 2
	out, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("problems: %q", out.problems)
	}
}

func TestWorkersAboveNumCPURefused(t *testing.T) {
	if err := checkWorkers(1, 1); err != nil {
		t.Errorf("workers=1 on 1 CPU: %v", err)
	}
	if err := checkWorkers(0, 4); err == nil {
		t.Error("workers=0 accepted")
	}
	if err := checkWorkers(3, 2); err == nil || !strings.Contains(err.Error(), "needs at least 3 CPUs") {
		t.Errorf("workers=3 on 2 CPUs: err = %v", err)
	}
	cfg := tinyConfig(t, wlReplay, false)
	cfg.workers = runtime.NumCPU() + 1
	if _, err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("run accepted more workers than CPUs")
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", wlReplay, "--seed", "7", "--seconds", "12", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != wlReplay || cfg.seed != 7 || cfg.seconds != 12 || !cfg.trace || cfg.workers != 1 {
		t.Errorf("parsed %+v", cfg)
	}
	for _, args := range [][]string{
		{"--workload", wlReplay, "--trace", "2"},
		{"--workload", wlFactfind},
		{"--workload", wlReplay, "--seconds", "0"},
		{"--workload", wlReplay, "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	if got := covered(0, 100, spans, []int{1, 2, 3}); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}
