package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/ingest"
	"depsense/internal/model"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
	"depsense/internal/stream"
	"depsense/internal/trace"
	"depsense/internal/twittersim"
)

// ingestSpec sizes one ingest workload.
type ingestSpec struct {
	// scale divides the Ukraine preset (1 = Table III scale).
	scale int
	// batch is the number of tweets per committed batch.
	batch int
	// durable selects the operator's production configuration: an fsynced
	// WAL and periodic snapshots in a data directory, plus the quality
	// monitor evaluating the error bound every boundEvery refits.
	durable    bool
	boundEvery int
}

const (
	// emSeed is ssingest's -em-seed default, used for the estimator and
	// the quality monitor's bound.
	emSeed = 1
	// topK is the published ranking size (the ingest and serving default).
	topK = 100
	// The warm-refit settings stream.Estimator applies by default; the
	// traced replay mirrors them.
	warmMaxIters = 60
	warmTol      = 1e-3
	// snapshotEvery is ssingest's -snapshot-every default.
	snapshotEvery = 16
	// walFile is the claim log's name inside an ingest data directory.
	walFile = "claims.log"
	// kernelSampleEvery picks every n-th batch dataset for the isolated
	// E-step/M-step timings; kernelSteps is how many steps are timed on
	// each.
	kernelSampleEvery = 16
	kernelSteps       = 5
)

// generateUkraine builds world k of a run: world 0 comes from the run's seed
// itself, later worlds from seeds derived from it.
func generateUkraine(spec ingestSpec, seed int64, k int) (*twittersim.World, error) {
	w, err := twittersim.Generate(twittersim.Small("Ukraine", spec.scale), randutil.New(seed+int64(k)*1_000_003))
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	return w, nil
}

func ingestOptions(cfg config, spec ingestSpec, dir string) ingest.Options {
	o := ingest.Options{
		Stream:          stream.Options{EM: core.Options{Seed: emSeed, Workers: cfg.workers}},
		BatchSize:       spec.batch,
		DisableShedding: true,
		TopK:            topK,
	}
	if spec.durable {
		o.Dir = dir
		o.SnapshotEvery = snapshotEvery
		o.Quality = &qual.Options{BoundEvery: spec.boundEvery, BoundSeed: emSeed, Workers: cfg.workers}
	}
	return o
}

// exactCounts are the work counts that must repeat exactly whenever the
// same inputs are processed again.
type exactCounts struct {
	Iterations    int   `json:"coreIterations"`
	EventsRebuilt int   `json:"claimsEventsRebuilt"`
	Clusters      int   `json:"clusters"`
	BoundEvals    int   `json:"qualBoundEvals"`
	Alarms        int   `json:"qualAlarms"`
	WALBytes      int64 `json:"walBytes"`
}

// timedSource stamps the moment each tweet leaves the source.
type timedSource struct {
	src *ingest.FirehoseSource
	at  []time.Time // at[seq], written by the collector, read after Run
}

func (s *timedSource) Next(ctx context.Context) (ingest.Tweet, bool) {
	tw, ok := s.src.Next(ctx)
	if ok && tw.Seq < len(s.at) {
		s.at[tw.Seq] = time.Now()
	}
	return tw, ok
}

func (s *timedSource) Seek(seq int) { s.src.Seek(seq) }

// ingestPass is one untraced run of the pipeline over a fresh world.
type ingestPass struct {
	setup     time.Duration
	wall      time.Duration // first Next to final publish
	generated int
	committed int
	dropped   int
	runErr    error
	refresh   []float64 // ms between consecutive publishes
	latency   []float64 // ms from a batch's last tweet leaving the source to its publish
	heapMiB   float64
	final     []byte // final Published, timestamp zeroed
	counts    exactCounts
	// telemetry is the pipeline's own mean ms per operation by layer.
	telemetry map[string]float64
	busyShare float64
}

func runIngestPass(ctx context.Context, cfg config, spec ingestSpec, k int) (*ingestPass, error) {
	start := time.Now()
	world, err := generateUkraine(spec, cfg.seed, k)
	if err != nil {
		return nil, err
	}
	src := &timedSource{
		src: ingest.NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{})),
		at:  make([]time.Time, len(world.Tweets)),
	}
	dir := ""
	if spec.durable {
		if dir, err = os.MkdirTemp(cfg.outDir, "wal-"); err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	p := &ingestPass{generated: len(world.Tweets)}
	var published []time.Time
	var last *ingest.Published
	opts := ingestOptions(cfg, spec, dir)
	opts.OnPublish = func(pub *ingest.Published) {
		published = append(published, time.Now())
		p.counts.Iterations += pub.Iterations
		p.counts.EventsRebuilt += pub.Claims
		last = pub
	}
	pipe, err := ingest.New(ctx, src, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	p.setup = time.Since(start)

	if err := pipe.Run(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("pipeline run: %w", err)
		}
		p.runErr = err
	}
	if last == nil || len(published) == 0 {
		return nil, errors.New("pipeline published nothing")
	}
	p.committed = last.Tweets
	p.counts.Clusters = last.Assertions
	p.wall = published[len(published)-1].Sub(src.at[0])
	for i := 1; i < len(published); i++ {
		p.refresh = append(p.refresh, ms(published[i].Sub(published[i-1])))
	}
	for b, t := range published {
		lastSeq := (b+1)*spec.batch - 1
		if lastSeq >= len(src.at) {
			lastSeq = len(src.at) - 1
		}
		p.latency = append(p.latency, ms(t.Sub(src.at[lastSeq])))
	}

	reg := pipe.Metrics()
	p.dropped = int(reg.Counter(ingest.MetricTweets, "", obs.L("outcome", "dropped")).Value())
	if spec.durable {
		st, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			return nil, fmt.Errorf("claim log: %w", err)
		}
		p.counts.WALBytes = st.Size()
	}
	if mon := pipe.Quality(); mon != nil {
		p.counts.Alarms = len(mon.Alarms())
		p.counts.BoundEvals = int(reg.Histogram(qual.MetricBoundSeconds, "", nil).Count())
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(ingest.MetricStageSeconds, "", nil, obs.L("stage", name))
	}
	warm := reg.Histogram(stream.MetricFitSeconds, "", nil, obs.L("mode", "warm"))
	cold := reg.Histogram(stream.MetricFitSeconds, "", nil, obs.L("mode", "cold"))
	p.telemetry = map[string]float64{
		"cluster":      histMeanMs(stage("cluster")),
		"wal":          histMeanMs(stage("wal")),
		"fit":          histMeanMs(stage("fit")),
		"stream fit":   1000 * (warm.Sum() + cold.Sum()) / float64(max(1, int(warm.Count()+cold.Count()))),
		"qual observe": histMeanMs(reg.Histogram(qual.MetricObserveSeconds, "", nil)),
		"qual bound":   histMeanMs(reg.Histogram(qual.MetricBoundSeconds, "", nil)),
	}
	p.busyShare = (stage("wal").Sum() + stage("fit").Sum()) / p.wall.Seconds()

	pub := *last
	pub.UpdatedAtUnixNS = 0
	if p.final, err = json.Marshal(&pub); err != nil {
		return nil, fmt.Errorf("encode ranking: %w", err)
	}
	p.heapMiB = retainedHeapMiB(pipe, src)
	return p, nil
}

func histMeanMs(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return 1000 * h.Sum() / float64(h.Count())
}

// runIngest measures one ingest workload: one lossless pass over each of
// several distinct worlds while the run's seconds last (so a run's figures
// average over inputs, not just one world's), then a repeat of world 0
// whose final ranking and exact counts must come out identical.
func runIngest(ctx context.Context, cfg config, spec ingestSpec, log io.Writer) (*outcome, error) {
	if cfg.trace {
		return traceIngest(ctx, cfg, spec, log)
	}
	out := newOutcome()
	var passes []*ingestPass
	start := time.Now()
	for k := 0; ; k++ {
		if k > 0 {
			// Leave room for this pass and the repeat.
			elapsed := time.Since(start)
			if elapsed+2*elapsed/time.Duration(k) > secondsDur(cfg.seconds) {
				break
			}
		}
		p, err := runIngestPass(ctx, cfg, spec, k)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		logPass(log, k, p)
	}
	again, err := runIngestPass(ctx, cfg, spec, 0)
	if err != nil {
		return nil, err
	}
	logPass(log, 0, again)
	if !bytes.Equal(again.final, passes[0].final) {
		out.Failed++
		out.fail("repeat of world 0: final published ranking differs from the first pass")
	}
	if again.counts != passes[0].counts {
		out.fail("repeat of world 0: exact counts %+v differ from the first pass's %+v", again.counts, passes[0].counts)
	}
	passes = append(passes, again)

	var setups, refresh, latency, heaps []float64
	committed, wall := 0, 0.0
	for i, p := range passes {
		setups = append(setups, p.setup.Seconds())
		committed += p.committed
		wall += p.wall.Seconds()
		refresh = append(refresh, p.refresh...)
		latency = append(latency, p.latency...)
		heaps = append(heaps, p.heapMiB)
		out.Attempted += p.generated
		out.checkPass(i, p)
	}
	out.checkSamples(cfg, "refresh intervals", len(refresh))
	out.checkSamples(cfg, "batch latencies", len(latency))
	out.set("setup_s", "s", median(setups))
	out.set("tweets_per_s", "1/s", float64(committed)/wall)
	out.set("refresh_p50_ms", "ms", quantile(refresh, 0.5))
	out.set("refresh_p90_ms", "ms", quantile(refresh, 0.9))
	out.set("latency_p50_ms", "ms", quantile(latency, 0.5))
	out.set("latency_p90_ms", "ms", quantile(latency, 0.9))
	out.set("retained_heap_mib", "MiB", median(heaps))
	out.report["passes"] = len(passes)
	out.report["samples"] = map[string]int{"refresh": len(refresh), "latency": len(latency)}
	out.report["counts"] = passes[0].counts
	return out, nil
}

func logPass(log io.Writer, world int, p *ingestPass) {
	fmt.Fprintf(log, "world %d: setup %.3fs, %d/%d tweets in %.3fs (%.1f tweets/s)\n",
		world, p.setup.Seconds(), p.committed, p.generated, p.wall.Seconds(),
		float64(p.committed)/p.wall.Seconds())
}

// checkPass applies the per-pass checks: lossless, and no failed commit.
func (o *outcome) checkPass(i int, p *ingestPass) {
	o.Failed += p.generated - p.committed
	if p.committed != p.generated {
		o.fail("pass %d: %d of %d tweets committed (%d dropped)", i+1, p.committed, p.generated, p.dropped)
	}
	if p.dropped != 0 {
		o.fail("pass %d: %d tweets dropped", i+1, p.dropped)
	}
	if p.runErr != nil {
		o.fail("pass %d: %v", i+1, p.runErr)
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceIngest makes one untraced pass as the baseline, then replays the
// same world layer by layer with spans, and checks that both agree.
func traceIngest(ctx context.Context, cfg config, spec ingestSpec, log io.Writer) (*outcome, error) {
	out := newOutcome()
	base, err := runIngestPass(ctx, cfg, spec, 0)
	if err != nil {
		return nil, err
	}
	out.Attempted = base.generated
	out.checkPass(0, base)

	tr := newTracer()
	rep, err := replayIngest(ctx, cfg, spec, tr)
	if err != nil {
		return nil, err
	}
	spans, err := tr.finish()
	if err != nil {
		return nil, err
	}
	if err := writeSpans(fmt.Sprintf("%s/%s-seed%d-spans.jsonl", cfg.outDir, cfg.workload, cfg.seed), spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "untraced pass %.3fs, traced replay %.3fs, %d spans\n",
		base.wall.Seconds(), rep.wall.Seconds(), len(spans))

	if !bytes.Equal(base.final, rep.final) {
		out.Failed++
		out.fail("final published ranking of the pipeline differs from the traced replay")
	}
	if base.counts != rep.counts {
		out.fail("exact counts differ: pipeline %+v, traced replay %+v", base.counts, rep.counts)
	}

	lt := groupSpans(spans)
	out.set("cluster.batch_ms", "ms", lt.mean("cluster.batch"))
	out.set("cluster.clusters", "count", float64(rep.counts.Clusters))
	out.set("depgraph.build_ms", "ms", lt.mean("depgraph.build"))
	out.set("claims.build_ms", "ms", lt.mean("claims.build"))
	out.set("claims.events_rebuilt", "count", float64(rep.counts.EventsRebuilt))
	out.set("core.iterations", "count", float64(rep.counts.Iterations))
	out.set("core.iter_ms", "ms", lt.mean("core.iter"))
	out.set("core.estep_us", "us", 1000*median(lt.total["core.estep"]))
	out.set("core.mstep_us", "us", 1000*median(lt.total["core.mstep"]))
	out.set("stream.refit_ms_p50", "ms", quantile(lt.total["stream.refit"], 0.5))
	out.set("stream.refit_ms_p90", "ms", quantile(lt.total["stream.refit"], 0.9))
	out.set("qual.observe_ms", "ms", lt.mean("qual.observe"))
	out.set("qual.bound_ms", "ms", lt.mean("qual.bound"))
	out.set("qual.bound_evals", "count", float64(rep.counts.BoundEvals))
	out.set("qual.alarms", "count", float64(rep.counts.Alarms))
	out.set("ingest.wal_ms", "ms", lt.mean("ingest.wal"))
	out.set("ingest.wal_bytes", "bytes", float64(rep.counts.WALBytes))
	out.set("ingest.dropped", "count", float64(base.dropped))
	out.set("ingest.estimator_busy_share", "ratio", base.busyShare)
	out.set("bench.trace_overhead", "ratio", rep.wall.Seconds()/base.wall.Seconds())

	fitParts := lt.mean("depgraph.build") + lt.mean("core.fit") +
		(lt.sum("qual.observe")+lt.sum("qual.bound"))/float64(max(1, len(lt.total["core.fit"])))
	xs := []xcheck{
		compareTelemetry("cluster", base.telemetry["cluster"], lt.mean("cluster.batch")),
		compareTelemetry("fit (build+EM+qual)", base.telemetry["fit"], fitParts),
		compareTelemetry("stream fit (EM)", base.telemetry["stream fit"], lt.mean("core.fit")),
	}
	if spec.durable {
		xs = append(xs,
			compareTelemetry("wal", base.telemetry["wal"], lt.mean("ingest.wal")),
			compareTelemetry("qual observe", base.telemetry["qual observe"], lt.mean("qual.observe")),
			compareTelemetry("qual bound", base.telemetry["qual bound"], lt.mean("qual.bound")))
	}
	out.reportXchecks(log, xs)
	out.report["counts"] = rep.counts
	out.report["selfMsByLayer"] = lt.selfSums()
	if spec.boundEvery > 0 {
		out.checkModes(log, spans)
	}
	return out, nil
}

// checkModes confirms from the trace that the median batch is a plain
// refit and the p90 batch one that evaluated the bound, so neither
// percentile sits on the boundary between the two modes.
func (o *outcome) checkModes(log io.Writer, spans []span) {
	type batch struct {
		dur   int64
		bound bool
	}
	byTrace := map[string]*batch{}
	var order []*batch
	for _, s := range spans {
		if s.Name == "batch" {
			b := &batch{dur: s.End - s.Start}
			byTrace[s.Trace] = b
			order = append(order, b)
		}
	}
	for _, s := range spans {
		if s.Name == "qual.bound" && byTrace[s.Trace] != nil {
			byTrace[s.Trace].bound = true
		}
	}
	if len(order) == 0 {
		o.fail("no batch spans recorded")
		return
	}
	sort.Slice(order, func(i, j int) bool { return order[i].dur < order[j].dur })
	p50, p90 := order[nearestRank(len(order), 0.5)], order[nearestRank(len(order), 0.9)]
	fmt.Fprintf(log, "modes: p50 batch %.1f ms (bound=%v), p90 batch %.1f ms (bound=%v)\n",
		float64(p50.dur)/1e6, p50.bound, float64(p90.dur)/1e6, p90.bound)
	o.report["modes"] = map[string]bool{"p50Bound": p50.bound, "p90Bound": p90.bound}
	if p50.bound || !p90.bound {
		o.fail("percentile modes: p50 batch bound=%v, p90 batch bound=%v; want plain and bound", p50.bound, p90.bound)
	}
}

// replayOut is the traced replay's result.
type replayOut struct {
	wall   time.Duration
	final  []byte
	counts exactCounts
}

// replica re-implements the pipeline's commit path through each layer's
// public API — tokenize and cluster (cluster), WAL (claims), follow graph
// and D (depgraph), Dataset and SparseView (claims), warm EM refits (core),
// quality (qual) — so spans can sit between the layers. The pipeline's
// final ranking must come out byte-identical.
type replica struct {
	cfg  config
	spec ingestSpec
	tr   *tracer

	inc   *cluster.Incremental
	texts []string

	graph     *depgraph.Graph
	numSrc    int
	numAssert int
	events    []depgraph.Event
	params    *model.Params
	scratch   *core.Scratch
	fits      int
	warmFits  int
	coldFits  int

	mon *qual.Monitor
	wal *os.File
	lw  *claims.LogWriter

	tweets int
	counts exactCounts
	last   *ingest.Published

	kernelSamples []kernelSample
}

// kernelSample is a batch dataset and the warm parameters its refit started
// from, kept for the isolated kernel-step timings.
type kernelSample struct {
	trace  string
	ds     *claims.Dataset
	params *model.Params
}

func replayIngest(ctx context.Context, cfg config, spec ingestSpec, tr *tracer) (*replayOut, error) {
	world, err := generateUkraine(spec, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	src := ingest.NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{}))
	var tweets []ingest.Tweet
	for {
		tw, ok := src.Next(ctx)
		if !ok {
			break
		}
		tweets = append(tweets, tw)
	}
	r := &replica{
		cfg:     cfg,
		spec:    spec,
		tr:      tr,
		inc:     (&cluster.Leader{}).Incremental(),
		graph:   depgraph.NewGraph(0),
		scratch: core.NewScratch(),
	}
	if spec.durable {
		dir, err := os.MkdirTemp(cfg.outDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		defer os.RemoveAll(dir)
		f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("claim log: %w", err)
		}
		defer f.Close() // error paths; the success path closes and checks below
		r.wal, r.lw = f, claims.NewLogWriter(f)
		r.mon = qual.NewMonitor(qual.Options{
			BoundEvery: spec.boundEvery,
			BoundSeed:  emSeed,
			Workers:    cfg.workers,
			Metrics:    obs.NewRegistry(),
			Flight:     trace.NewFlightRecorder(0, 0),
		})
	}

	var wall time.Duration
	for seq, lo := 0, 0; lo < len(tweets); seq, lo = seq+1, lo+spec.batch {
		hi := min(lo+spec.batch, len(tweets))
		start := time.Now()
		ds, err := r.commit(ctx, seq, tweets[lo:hi])
		wall += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", seq, err)
		}
		if err := timeClaimsBuild(tr, "batch", seq, ds); err != nil {
			return nil, err
		}
	}
	if err := r.timeKernels(); err != nil {
		return nil, err
	}

	if r.wal != nil {
		st, err := r.wal.Stat()
		if err != nil {
			return nil, fmt.Errorf("claim log: %w", err)
		}
		r.counts.WALBytes = st.Size()
		if err := r.wal.Close(); err != nil {
			return nil, fmt.Errorf("claim log: %w", err)
		}
	}
	if r.mon != nil {
		r.counts.Alarms = len(r.mon.Alarms())
	}
	pub := *r.last
	final, err := json.Marshal(&pub)
	if err != nil {
		return nil, fmt.Errorf("encode ranking: %w", err)
	}
	return &replayOut{wall: wall, final: final, counts: r.counts}, nil
}

// commit replays one batch in pipeline order: cluster, WAL, refit,
// quality, publish. It returns the batch's dataset.
func (r *replica) commit(ctx context.Context, seq int, batch []ingest.Tweet) (*claims.Dataset, error) {
	traceID := fmt.Sprintf("batch-%06d", seq)
	root := r.tr.begin("batch", traceID, -1)
	defer r.tr.end(root)

	sp := r.tr.begin("cluster.batch", traceID, root)
	var events []depgraph.Event
	var follows [][2]int
	var newTexts []string
	for _, tw := range batch {
		toks := cluster.Tokenize(tw.Text)
		before := r.inc.NumClusters()
		cid := r.inc.Add(toks)
		if r.inc.NumClusters() > before {
			newTexts = append(newTexts, tw.Text)
		}
		events = append(events, depgraph.Event{Source: tw.Source, Assertion: cid, Time: tw.Time})
		if tw.RetweetOf >= 0 && tw.RetweetOf != tw.Source {
			follows = append(follows, [2]int{tw.Source, tw.RetweetOf})
		}
	}
	r.tr.end(sp)

	if r.lw != nil {
		sp = r.tr.begin("ingest.wal", traceID, root)
		err := r.appendWAL(seq, batch)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	res, ds, err := r.refit(ctx, traceID, root, follows, events)
	if err != nil {
		return nil, err
	}

	if r.mon != nil {
		name := "qual.observe"
		if r.mon.Ticks()%r.spec.boundEvery == 0 {
			name = "qual.bound"
			r.counts.BoundEvals++
		}
		sp = r.tr.begin(name, traceID, root)
		_, err := r.mon.ObserveRefit(ctx, qual.Refit{Result: res, Dataset: ds, Edges: r.graph.NumEdges()})
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = r.tr.begin("publish", traceID, root)
	r.tweets += len(batch)
	r.texts = append(r.texts, newTexts...)
	r.last = r.publish(seq, res, ds)
	r.counts.Iterations += res.Iterations
	r.counts.EventsRebuilt += len(r.events)
	r.counts.Clusters = r.numAssert
	r.tr.end(sp)
	return ds, nil
}

// appendWAL logs a batch's tweets and its commit marker, then flushes and
// fsyncs, as the pipeline does before each refit.
func (r *replica) appendWAL(seq int, batch []ingest.Tweet) error {
	for _, tw := range batch {
		rec := claims.LogRecord{Kind: claims.RecordTweet, Seq: tw.Seq, Source: tw.Source,
			Time: tw.Time, Text: tw.Text, RetweetOf: tw.RetweetOf}
		if err := r.lw.Append(rec); err != nil {
			return err
		}
	}
	commit := claims.LogRecord{Kind: claims.RecordCommit, RetweetOf: -1, Batch: seq,
		Tweets: r.tweets + len(batch), SrcSeq: batch[len(batch)-1].Seq}
	if err := r.lw.Append(commit); err != nil {
		return err
	}
	if err := r.lw.Flush(); err != nil {
		return err
	}
	return r.wal.Sync()
}

// refit mirrors stream.Estimator: observe the follows, grow the id spaces,
// rebuild D, the Dataset and its SparseView from every event so far, and
// warm-start EM-Ext from the previous parameters.
func (r *replica) refit(ctx context.Context, traceID string, parent int, follows [][2]int, batch []depgraph.Event) (*factfind.Result, *claims.Dataset, error) {
	refit := r.tr.begin("stream.refit", traceID, parent)
	defer r.tr.end(refit)
	for _, f := range follows {
		r.growSources(max(f[0], f[1]) + 1)
		if err := r.graph.AddFollow(f[0], f[1]); err != nil {
			return nil, nil, err
		}
	}
	maxSrc, maxAssert := -1, -1
	for _, ev := range batch {
		maxSrc, maxAssert = max(maxSrc, ev.Source), max(maxAssert, ev.Assertion)
	}
	r.growSources(maxSrc + 1)
	if maxAssert >= r.numAssert {
		r.numAssert = maxAssert + 1
	}
	r.events = append(r.events, batch...)

	sp := r.tr.begin("depgraph.build", traceID, refit)
	ds, err := depgraph.BuildDataset(r.graph, r.events, r.numAssert)
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}

	opts := core.Options{Seed: emSeed, Workers: r.cfg.workers, Scratch: r.scratch}
	warm := r.params != nil && r.params.NumSources() == ds.N()
	if warm {
		opts.Init = r.params
		opts.MaxIters = warmMaxIters
		opts.Tol = warmTol
		if (r.fits-1)%kernelSampleEvery == 0 {
			r.kernelSamples = append(r.kernelSamples, kernelSample{trace: traceID, ds: ds, params: r.params.Clone()})
		}
	}
	res, err := fitTraced(ctx, r.tr, traceID, refit, func(ctx context.Context) (*factfind.Result, error) {
		return core.RunCtx(ctx, ds, core.VariantExt, opts)
	})
	if err != nil {
		return nil, nil, err
	}
	r.params = res.Params.Clone()
	r.fits++
	if warm {
		r.warmFits++
	} else {
		r.coldFits++
	}
	return res, ds, nil
}

// growSources mirrors stream.Estimator's id-space growth: a larger follow
// graph with the same edges, and neutral warm-start channels for new
// sources.
func (r *replica) growSources(n int) {
	if n <= r.numSrc {
		return
	}
	grown := depgraph.NewGraph(n)
	for i := 0; i < r.numSrc; i++ {
		for _, anc := range r.graph.Ancestors(i) {
			_ = grown.AddFollow(i, anc) // in range by construction
		}
	}
	r.graph = grown
	if r.params != nil {
		p := model.NewParams(n, r.params.Z)
		copy(p.Sources, r.params.Sources)
		for i := r.numSrc; i < n; i++ {
			p.Sources[i] = model.SourceParams{A: 0.5, B: 0.5, F: 0.5, G: 0.5}
		}
		r.params = p
	}
	r.numSrc = n
}

// publish assembles the ranking exactly as the pipeline publishes it.
func (r *replica) publish(seq int, res *factfind.Result, ds *claims.Dataset) *ingest.Published {
	pub := &ingest.Published{
		Batch:      seq,
		Tweets:     r.tweets,
		Sources:    r.numSrc,
		Assertions: r.numAssert,
		Claims:     len(r.events),
		Fits:       r.fits,
		WarmFits:   r.warmFits,
		ColdFits:   r.coldFits,
		Converged:  res.Converged,
		Iterations: res.Iterations,
	}
	if r.mon != nil {
		pub.Quality = r.mon.Latest()
	}
	for _, j := range res.TopK(topK) {
		ra := ingest.RankedAssertion{Assertion: j, Posterior: res.Posterior[j]}
		if j < len(r.texts) {
			ra.Text = r.texts[j]
		}
		refs := ds.Claimants(j)
		ra.Claims = len(refs)
		for _, ref := range refs {
			if ref.Dependent {
				ra.Dependent++
			}
		}
		pub.Ranked = append(pub.Ranked, ra)
	}
	return pub
}

// fitTraced runs one EM fit under a "core.fit" span, with one "core.iter"
// child per iteration taken from the estimator's iteration-hook firings.
func fitTraced(ctx context.Context, tr *tracer, traceID string, parent int, fit func(context.Context) (*factfind.Result, error)) (*factfind.Result, error) {
	start := time.Now()
	sp := tr.open("core.fit", traceID, parent, start)
	mark, lastN := start, 0
	hook := func(it runctx.Iteration) {
		now := time.Now()
		if it.N > lastN {
			id := tr.open("core.iter", traceID, sp, mark)
			tr.close(id, now)
			lastN = it.N
		}
		mark = now
	}
	res, err := fit(runctx.WithHook(ctx, hook))
	tr.end(sp)
	return res, err
}

// timeKernels times isolated E-steps and M-steps on the sampled batch
// datasets, after the replay so they do not disturb its batch timings.
func (r *replica) timeKernels() error {
	for _, s := range r.kernelSamples {
		if err := timeKernel(r.tr, s, r.cfg.workers); err != nil {
			return err
		}
	}
	return nil
}

func timeKernel(tr *tracer, s kernelSample, workers int) error {
	st, err := core.NewKernelStepper(s.ds, core.VariantExt, s.params, core.Options{Seed: emSeed, Workers: workers})
	if err != nil {
		return fmt.Errorf("kernel stepper on %s: %w", s.trace, err)
	}
	id := "kernel-" + s.trace
	for i := 0; i < kernelSteps; i++ {
		sp := tr.begin("core.estep", id, -1)
		st.EStep()
		tr.end(sp)
		sp = tr.begin("core.mstep", id, -1)
		st.MStep()
		tr.end(sp)
	}
	return nil
}

// timeClaimsBuild times the claims layer alone: the Dataset and SparseView
// build (claims.Builder) over the pairs of a dataset depgraph just built.
// depgraph.BuildDataset calls the same builder, so its span includes this
// work; this separate root span, kept out of the replay's timing, splits
// it out.
func timeClaimsBuild(tr *tracer, kind string, seq int, ds *claims.Dataset) error {
	sp := tr.begin("claims.build", fmt.Sprintf("claims-%s-%06d", kind, seq), -1)
	b := claims.NewBuilder(ds.N(), ds.M())
	for j := 0; j < ds.M(); j++ {
		for _, c := range ds.Claimants(j) {
			b.AddClaim(c.Source, j, c.Dependent)
		}
		for _, i := range ds.SilentDependents(j) {
			b.MarkSilentDependent(i, j)
		}
	}
	_, err := b.Build()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("claims rebuild of %s %d: %w", kind, seq, err)
	}
	return nil
}
