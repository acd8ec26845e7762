// Command depbench is depsense's end-to-end benchmark. One invocation runs
// one workload and prints, as the last line of its standard output, one JSON
// object with the run's correctness verdict and its metrics:
//
//	depbench --workload ingest-replay --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with nothing
// traced. With --trace 1 it makes one untraced pass as a baseline, then
// replays the same inputs layer by layer with spans recorded around every
// call into a layer, and prints the per-layer metrics derived from them.
// README.md in this directory gives each workload's reason for existing and
// the layer -> metric -> workload map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workload names.
const (
	wlReplay   = "ingest-replay"
	wlDurable  = "ingest-durable"
	wlFactfind = "factfind-cold"
)

// runDeadline bounds one invocation; a run that would overshoot it is
// cancelled and reported as an error instead of hanging.
const runDeadline = 170 * time.Second

// config is one invocation's workload, seed and sizes. The sizes are fixed
// by defaultConfig; the self-test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is the estimator parallelism. The ingest and serving
	// defaults are 1; a larger value is refused on a machine with fewer
	// CPUs, where a parallel measurement would mean nothing.
	workers int
	// rate is the factfind-cold offered load in requests per second.
	rate float64
	// outDir receives the span dumps, run reports and temporary WALs.
	outDir string

	replay  ingestSpec
	durable ingestSpec
	ff      factfindSpec

	// minRounds is the fewest factfind rounds a measured run makes.
	minRounds int
	// minSamples is the fewest samples a reported p90 may rest on: at
	// least 10 beyond it.
	minSamples int
}

func defaultConfig() config {
	return config{
		workers: 1,
		outDir:  ".bench_out",
		replay:  ingestSpec{scale: 1, batch: 64},
		durable: ingestSpec{scale: 16, batch: 8, durable: true, boundEvery: 4},
		ff: factfindSpec{
			presets: []string{"Ukraine", "Kirkuk", "Superbug", "LA Marathon"},
			// One request in three is a ÷10 world, two in three ÷20: the
			// latency p50 falls inside the small-request mode and the p90
			// inside the large one, neither on the boundary between them.
			scales:       []int{10, 20, 20},
			roundSeconds: 5,
		},
		minRounds:  2,
		minSamples: 100,
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("depbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join([]string{wlReplay, wlDurable, wlFactfind}, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.IntVar(&cfg.workers, "workers", cfg.workers, "estimator parallelism (refused above NumCPU)")
	fs.Float64Var(&cfg.rate, "factfind-rate", 0, "factfind-cold offered load in requests per second")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch *traceFlag {
	case 0, 1:
		cfg.trace = *traceFlag == 1
	default:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if cfg.workload == wlFactfind && cfg.rate <= 0 {
		return cfg, fmt.Errorf("%s needs a positive --factfind-rate", wlFactfind)
	}
	return cfg, nil
}

// checkWorkers refuses a parallel measurement on fewer CPUs than workers.
func checkWorkers(workers, numCPU int) error {
	if workers < 1 {
		return fmt.Errorf("workers must be at least 1, got %d", workers)
	}
	if workers > numCPU {
		return fmt.Errorf("workers=%d needs at least %d CPUs, this machine has %d", workers, workers, numCPU)
	}
	return nil
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: the result plus a free-form
// report written next to the spans.
type outcome struct {
	result
	problems []string
	report   map[string]any
}

func newOutcome() *outcome {
	return &outcome{result: result{Correct: true, Metrics: map[string]metric{}}, report: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; the run stays correct only with none.
func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// Metric names. The end-to-end set is printed by every --trace 0 run and the
// per-layer set by every --trace 1 run, whatever the workload; a layer that
// a workload does not use reads 0 there (README.md has the map).
var (
	endToEnd = []struct{ name, unit string }{
		{"setup_s", "s"},
		{"tweets_per_s", "1/s"},
		{"refresh_p50_ms", "ms"},
		{"refresh_p90_ms", "ms"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"retained_heap_mib", "MiB"},
	}
	perLayer = []struct{ name, unit string }{
		{"cluster.batch_ms", "ms"},
		{"cluster.request_ms", "ms"},
		{"cluster.clusters", "count"},
		{"depgraph.build_ms", "ms"},
		{"claims.build_ms", "ms"},
		{"claims.events_rebuilt", "count"},
		{"core.iterations", "count"},
		{"core.iter_ms", "ms"},
		{"core.estep_us", "us"},
		{"core.mstep_us", "us"},
		{"stream.refit_ms_p50", "ms"},
		{"stream.refit_ms_p90", "ms"},
		{"qual.observe_ms", "ms"},
		{"qual.bound_ms", "ms"},
		{"qual.bound_evals", "count"},
		{"qual.alarms", "count"},
		{"ingest.wal_ms", "ms"},
		{"ingest.wal_bytes", "bytes"},
		{"ingest.dropped", "count"},
		{"ingest.estimator_busy_share", "ratio"},
		{"apollo.build_ms", "ms"},
		{"apollo.fit_ms", "ms"},
		{"apollo.rank_ms", "ms"},
		{"httpapi.decode_ms", "ms"},
		{"httpapi.handler_ms", "ms"},
		{"httpapi.wait_ms", "ms"},
		{"serve.cache_hits", "count"},
		{"serve.shed", "count"},
		{"client.late_p90_ms", "ms"},
		{"xcheck.disagreements", "count"},
		{"bench.trace_overhead", "ratio"},
	}
)

// finish fills every metric of the mode's set that the workload left unset
// with 0 (a layer the workload does not use) and drops the other mode's.
func (o *outcome) finish(traced bool) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	out := make(map[string]metric, len(set))
	for _, m := range set {
		v, ok := o.Metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		if v.Unit != m.unit {
			o.fail("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
		}
		out[m.name] = v
	}
	o.Metrics = out
	if o.Attempted < 1 {
		o.fail("nothing attempted")
		o.Attempted = 1
	}
	if o.Failed > 0 {
		o.Correct = false
	}
}

// machine records what the run ran on.
type machine struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpuModel"`
	Workers    int    `json:"workers"`
}

func describeMachine(workers int) machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Workers:    workers,
	}
}

// cpuModel reads the processor name the kernel reports, "unknown" when it
// offers none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run executes one workload and returns its outcome with every metric of
// the mode set.
func run(ctx context.Context, cfg config, log io.Writer) (*outcome, error) {
	if err := checkWorkers(cfg.workers, runtime.NumCPU()); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("output dir: %w", err)
	}
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case wlReplay:
		out, err = runIngest(ctx, cfg, cfg.replay, log)
	case wlDurable:
		out, err = runIngest(ctx, cfg, cfg.durable, log)
	case wlFactfind:
		out, err = runFactfind(ctx, cfg, log)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	out.finish(cfg.trace)
	return out, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "depbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	m := describeMachine(cfg.workers)
	out, err := run(ctx, cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "depbench:", err)
		os.Exit(1)
	}
	out.report["machine"] = m
	out.report["problems"] = out.problems
	out.report["result"] = out.result
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	if err := writeJSON(fmt.Sprintf("%s/%s-seed%d-%s-report.json", cfg.outDir, cfg.workload, cfg.seed, mode), out.report); err != nil {
		fmt.Fprintln(os.Stderr, "depbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "depbench: check failed:", p)
	}
	line, err := json.Marshal(map[string]any{"machine": m})
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "depbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)]
}

// nearestRank is the 0-based index of the nearest-rank q-quantile among n
// sorted values.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank - 1
}

// median is the middle value of xs, the mean of the middle two for an even
// count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkSamples fails the run when a p90 rests on fewer samples than the
// configured minimum.
func (o *outcome) checkSamples(cfg config, what string, n int) {
	if n < cfg.minSamples {
		o.fail("%s has %d samples; a p90 needs at least %d", what, n, cfg.minSamples)
	}
}

// retainedHeapMiB forces a collection and reads the live heap; keep must
// hold whatever the measurement should count as retained.
func retainedHeapMiB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
