package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/httpapi"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/trace"
	"depsense/internal/twittersim"
)

// factfindSpec sizes the factfind-cold workload.
type factfindSpec struct {
	// Request i is a world of presets[i%len] at scale
	// scales[(i/len(presets))%len(scales)], with a seed of its own.
	presets []string
	scales  []int
	// roundSeconds is the length of one open-loop round; each round gets
	// its own server and its own distinct payloads.
	roundSeconds float64
}

const (
	// serverSeed seeds the server's estimators (and the reference).
	serverSeed = 1
	// connections caps the client's goroutines and connections at the
	// CPU count of the machine the workload was sized on (2).
	connections = 2
	// ffKernelSampleEvery picks every n-th request dataset for the isolated
	// kernel-step timings.
	ffKernelSampleEvery = 8
	// Headers carrying the trace id and the client span to the traced
	// handler wrapper.
	traceHeader = "X-Depbench-Trace"
	spanHeader  = "X-Depbench-Span"
)

// payload is one pre-encoded request and the response it must get.
type payload struct {
	body   []byte
	tweets int
	// want is the reference response (trace id empty) computed with
	// apollo.Run during set-up.
	want []byte
}

func newFinder(cfg config) factfind.FactFinder {
	return baselines.ExtendedByName("EM-Ext", core.Options{Seed: serverSeed, Workers: cfg.workers})
}

// makePayload builds request i: a fresh twittersim world encoded as a
// /v1/factfind body, plus its reference response.
func makePayload(cfg config, i int) (payload, error) {
	spec := cfg.ff
	preset := spec.presets[i%len(spec.presets)]
	scale := spec.scales[(i/len(spec.presets))%len(spec.scales)]
	w, err := twittersim.Generate(twittersim.Small(preset, scale), randutil.New(cfg.seed*1_000_003+int64(i)))
	if err != nil {
		return payload{}, fmt.Errorf("generate request %d: %w", i, err)
	}
	req := httpapi.Request{Sources: w.Graph.N(), Algorithm: "EM-Ext", TopK: topK}
	for s := 0; s < w.Graph.N(); s++ {
		for _, anc := range w.Graph.Ancestors(s) {
			req.Follows = append(req.Follows, [2]int{s, anc})
		}
	}
	for _, t := range w.Tweets {
		req.Messages = append(req.Messages, httpapi.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return payload{}, fmt.Errorf("encode request %d: %w", i, err)
	}
	in, err := inputOf(req)
	if err != nil {
		return payload{}, fmt.Errorf("request %d: %w", i, err)
	}
	out, err := apollo.Run(in, newFinder(cfg), apollo.Options{TopK: topK})
	if err != nil {
		return payload{}, fmt.Errorf("reference %d: %w", i, err)
	}
	want, err := json.Marshal(responseOf(out.Dataset, out.Result, out.Ranked, out.RepresentativeText))
	if err != nil {
		return payload{}, fmt.Errorf("encode reference %d: %w", i, err)
	}
	return payload{body: body, tweets: len(req.Messages), want: want}, nil
}

// inputOf turns a decoded request into the pipeline input, as the server
// does for the default message format.
func inputOf(req httpapi.Request) (apollo.Input, error) {
	g := depgraph.NewGraph(req.Sources)
	for _, e := range req.Follows {
		if err := g.AddFollow(e[0], e[1]); err != nil {
			return apollo.Input{}, err
		}
	}
	msgs := make([]apollo.Message, len(req.Messages))
	for i, m := range req.Messages {
		msgs[i] = apollo.Message{Source: m.Source, Time: m.Time, Text: m.Text}
	}
	return apollo.Input{NumSources: req.Sources, Messages: msgs, Graph: g}, nil
}

// responseOf renders a result as the server's /v1/factfind response, with
// no trace id.
func responseOf(ds *claims.Dataset, res *factfind.Result, ranked []int, reps []string) httpapi.Response {
	resp := httpapi.Response{
		Algorithm:  "EM-Ext",
		Sources:    ds.N(),
		Assertions: ds.M(),
		Claims:     ds.NumClaims(),
		Dependent:  ds.NumDependentClaims(),
		Converged:  res.Converged,
		Iterations: res.Iterations,
		Stopped:    res.Stopped,
	}
	for _, c := range ranked {
		refs := ds.Claimants(c)
		dep := 0
		for _, ref := range refs {
			if ref.Dependent {
				dep++
			}
		}
		resp.Ranked = append(resp.Ranked, httpapi.RankedAssertion{
			Assertion: c, Posterior: res.Posterior[c], Text: reps[c], Claims: len(refs), Dependent: dep,
		})
	}
	return resp
}

// server is an httpapi.Server on a loopback listener.
type server struct {
	api  *httpapi.Server
	http *http.Server
	done chan error
	url  string
}

func startServer(cfg config, wrap func(http.Handler) http.Handler) (*server, error) {
	api := httpapi.New(httpapi.Options{CacheSize: -1, Seed: serverSeed, Workers: cfg.workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	s := &server{
		api:  api,
		http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/v1/factfind",
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// counter reads a counter of the server's registry.
func (s *server) counter(name string, labels ...obs.Label) int {
	return int(s.api.Metrics().Counter(name, "", labels...).Value())
}

// servingFaults counts cache hits and shed requests; a cold run has none.
func (s *server) servingFaults() (hits, shed int) {
	hits = s.counter(httpapi.MetricCacheHits)
	shed = s.counter(httpapi.MetricShed, obs.L("reason", "queue-full")) +
		s.counter(httpapi.MetricShed, obs.L("reason", "budget"))
	return hits, shed
}

// sent is one request's timing and response.
type sent struct {
	due, start, done time.Time
	status           int
	cache            string
	body             []byte
	err              error
}

// openLoop sends payloads[i] at origin + i/rate regardless of how earlier
// requests fare, over at most `connections` goroutines and connections.
// A request that finds both busy waits, and that wait counts in its
// latency, which runs from the due time to the last byte read.
func openLoop(ctx context.Context, url string, payloads []payload, rate float64, tr *tracer) []sent {
	transport := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	out := make([]sent, len(payloads))
	origin := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(payloads) {
					return
				}
				due := origin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						out[i] = sent{due: due, err: ctx.Err()}
						continue
					}
				}
				out[i] = post(ctx, client, url, payloads[i].body, due, tr, fmt.Sprintf("req-%05d", i))
			}
		}()
	}
	wg.Wait()
	return out
}

func post(ctx context.Context, client *http.Client, url string, body []byte, due time.Time, tr *tracer, traceID string) sent {
	s := sent{due: due, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	sp := -1
	if tr != nil {
		sp = tr.open("client.request", traceID, -1, due)
		req.Header.Set(traceHeader, traceID)
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := client.Do(req)
	if err == nil {
		s.status = resp.StatusCode
		s.cache = resp.Header.Get("X-Cache")
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.done = time.Now()
	s.err = err
	if tr != nil {
		tr.close(sp, s.done)
	}
	return s
}

// traceHandler records an "httpapi.handler" span around each request,
// parented to the client span named in the request headers.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get(spanHeader))
			if err != nil {
				parent = -1
			}
			sp := tr.begin("httpapi.handler", r.Header.Get(traceHeader), parent)
			h.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
}

// checkResponse reports why a response is not the expected cold answer,
// "" when it is.
func checkResponse(s sent, want []byte) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.status != http.StatusOK:
		return fmt.Sprintf("status %d", s.status)
	case s.cache != "miss":
		return fmt.Sprintf("X-Cache %q, want miss", s.cache)
	}
	var resp httpapi.Response
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return "decode response: " + err.Error()
	}
	resp.TraceID = ""
	got, err := json.Marshal(resp)
	if err != nil {
		return "encode response: " + err.Error()
	}
	if !bytes.Equal(got, want) {
		return "ranking differs from the reference"
	}
	return ""
}

// round is one open-loop round over its own server and payloads.
type round struct {
	setup    time.Duration
	payloads []payload
	sent     []sent
	heapMiB  float64
	hits     int
	shed     int
	// telemetry is the server's own mean ms per operation by layer;
	// handlerSum its total /v1/factfind handler seconds.
	telemetry  map[string]float64
	handlerSum float64
}

func runRound(ctx context.Context, cfg config, first, n int, reuse []payload, tr *tracer) (*round, error) {
	start := time.Now()
	r := &round{payloads: reuse}
	if r.payloads == nil {
		for i := first; i < first+n; i++ {
			p, err := makePayload(cfg, i)
			if err != nil {
				return nil, err
			}
			r.payloads = append(r.payloads, p)
		}
	}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = traceHandler(tr)
	}
	srv, err := startServer(cfg, wrap)
	if err != nil {
		return nil, err
	}
	if reuse == nil {
		r.setup = time.Since(start)
	}
	r.sent = openLoop(ctx, srv.url, r.payloads, cfg.rate, tr)
	r.heapMiB = retainedHeapMiB(srv, r.payloads)
	r.hits, r.shed = srv.servingFaults()
	reg := srv.api.Metrics()
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(httpapi.MetricStageSeconds, "", nil, obs.L("stage", name))
	}
	handler := reg.Histogram(httpapi.MetricRequestSeconds, "", nil, obs.L("endpoint", "/v1/factfind"))
	r.telemetry = map[string]float64{
		"cluster":      histMeanMs(stage("ingest")) + histMeanMs(stage("cluster")),
		"build":        histMeanMs(stage("build")),
		"fit":          histMeanMs(stage("fit")),
		"qual observe": histMeanMs(reg.Histogram(qual.MetricObserveSeconds, "", nil)),
		"handler":      histMeanMs(handler),
	}
	r.handlerSum = handler.Sum()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return r, nil
}

// score checks every response of the round and counts the failures.
func (o *outcome) score(r *round, label string) {
	for i, s := range r.sent {
		o.Attempted++
		if why := checkResponse(s, r.payloads[i].want); why != "" {
			o.Failed++
			if o.Failed <= 5 {
				o.fail("%s request %d: %s", label, i, why)
			}
		}
	}
	if r.hits != 0 || r.shed != 0 {
		o.fail("%s: %d cache hits and %d shed requests, want none", label, r.hits, r.shed)
	}
}

func roundSize(cfg config) int {
	n := int(cfg.rate*cfg.ff.roundSeconds + 0.5)
	return max(n, 1)
}

// runFactfind measures factfind-cold: open-loop rounds at the fixed rate,
// each against a fresh cache-disabled server with distinct payloads.
func runFactfind(ctx context.Context, cfg config, log io.Writer) (*outcome, error) {
	if cfg.trace {
		return traceFactfind(ctx, cfg, log)
	}
	out := newOutcome()
	n := roundSize(cfg)
	rounds := max(cfg.minRounds, int(cfg.seconds/cfg.ff.roundSeconds+0.5))
	var setups, latency, late, refresh, heaps []float64
	tweets, span := 0, 0.0
	for k := 0; k < rounds; k++ {
		r, err := runRound(ctx, cfg, k*n, n, nil, nil)
		if err != nil {
			return nil, err
		}
		out.score(r, fmt.Sprintf("round %d", k+1))
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.heapMiB)
		var dones []time.Time
		first, last := r.sent[0].due, r.sent[0].done
		for i, s := range r.sent {
			latency = append(latency, ms(s.done.Sub(s.due)))
			late = append(late, ms(s.start.Sub(s.due)))
			dones = append(dones, s.done)
			if s.done.After(last) {
				last = s.done
			}
			if s.err == nil && s.status == http.StatusOK {
				tweets += r.payloads[i].tweets
			}
		}
		span += last.Sub(first).Seconds()
		sort.Slice(dones, func(i, j int) bool { return dones[i].Before(dones[j]) })
		for i := 1; i < len(dones); i++ {
			refresh = append(refresh, ms(dones[i].Sub(dones[i-1])))
		}
		fmt.Fprintf(log, "round %d: setup %.3fs, %d requests, latency p50 %.2f ms p90 %.2f ms\n",
			k+1, r.setup.Seconds(), len(r.sent), quantile(latency[len(latency)-len(r.sent):], 0.5),
			quantile(latency[len(latency)-len(r.sent):], 0.9))
	}
	out.checkSamples(cfg, "request latencies", len(latency))
	out.set("setup_s", "s", median(setups))
	out.set("tweets_per_s", "1/s", float64(tweets)/span)
	out.set("refresh_p50_ms", "ms", quantile(refresh, 0.5))
	out.set("refresh_p90_ms", "ms", quantile(refresh, 0.9))
	out.set("latency_p50_ms", "ms", quantile(latency, 0.5))
	out.set("latency_p90_ms", "ms", quantile(latency, 0.9))
	out.set("retained_heap_mib", "MiB", median(heaps))
	fmt.Fprintf(log, "generator lateness: p50 %.3f ms, p90 %.3f ms, max %.3f ms\n",
		quantile(late, 0.5), quantile(late, 0.9), quantile(late, 1))
	out.report["rounds"] = rounds
	out.report["requestsPerRound"] = n
	out.report["samples"] = map[string]int{"latency": len(latency), "refresh": len(refresh)}
	out.report["generatorLateMs"] = map[string]float64{
		"p50": quantile(late, 0.5), "p90": quantile(late, 0.9), "max": quantile(late, 1)}
	return out, nil
}

// traceFactfind runs one untraced round as the baseline, the same payloads
// again over HTTP with client and handler spans, and then each request layer
// by layer with spans around every call.
func traceFactfind(ctx context.Context, cfg config, log io.Writer) (*outcome, error) {
	out := newOutcome()
	n := roundSize(cfg)
	base, err := runRound(ctx, cfg, 0, n, nil, nil)
	if err != nil {
		return nil, err
	}
	out.score(base, "untraced round")
	var late []float64
	for _, s := range base.sent {
		late = append(late, ms(s.start.Sub(s.due)))
	}

	tr := newTracer()
	traced, err := runRound(ctx, cfg, 0, n, base.payloads, tr)
	if err != nil {
		return nil, err
	}
	out.score(traced, "traced round")

	mon := qual.NewMonitor(qual.Options{DisableDrift: true, BoundEvery: -1, Metrics: obs.NewRegistry(),
		Flight: trace.NewFlightRecorder(0, 0)})
	var counts exactCounts
	var samples []kernelSample
	for i, p := range base.payloads {
		got, c, sample, err := replayRequest(ctx, cfg, tr, i, p, mon)
		if err != nil {
			return nil, err
		}
		if err := timeClaimsBuild(tr, "request", i, sample.ds); err != nil {
			return nil, err
		}
		out.Attempted++
		if !bytes.Equal(got, p.want) {
			out.Failed++
			out.fail("traced replay of request %d differs from the reference", i)
		}
		counts.Iterations += c.Iterations
		counts.EventsRebuilt += c.EventsRebuilt
		counts.Clusters += c.Clusters
		if i%ffKernelSampleEvery == 0 {
			samples = append(samples, sample)
		}
	}
	for _, s := range samples {
		if err := timeKernel(tr, s, cfg.workers); err != nil {
			return nil, err
		}
	}
	spans, err := tr.finish()
	if err != nil {
		return nil, err
	}
	if err := writeSpans(fmt.Sprintf("%s/%s-seed%d-spans.jsonl", cfg.outDir, cfg.workload, cfg.seed), spans); err != nil {
		return nil, err
	}
	lt := groupSpans(spans)

	// Handler time and the wait around it, per traced request.
	handler := map[string]float64{}
	for _, s := range spans {
		if s.Name == "httpapi.handler" {
			handler[s.Trace] = float64(s.End-s.Start) / 1e6
		}
	}
	var waits []float64
	for _, s := range spans {
		if s.Name == "client.request" {
			waits = append(waits, float64(s.End-s.Start)/1e6-handler[s.Trace])
		}
	}

	out.set("cluster.request_ms", "ms", lt.mean("cluster.request"))
	out.set("cluster.clusters", "count", float64(counts.Clusters))
	out.set("depgraph.build_ms", "ms", lt.mean("depgraph.build"))
	out.set("claims.build_ms", "ms", lt.mean("claims.build"))
	out.set("claims.events_rebuilt", "count", float64(counts.EventsRebuilt))
	out.set("core.iterations", "count", float64(counts.Iterations))
	out.set("core.iter_ms", "ms", lt.mean("core.iter"))
	out.set("core.estep_us", "us", 1000*median(lt.total["core.estep"]))
	out.set("core.mstep_us", "us", 1000*median(lt.total["core.mstep"]))
	out.set("qual.observe_ms", "ms", lt.mean("qual.observe"))
	out.set("apollo.build_ms", "ms", lt.mean("apollo.build"))
	out.set("apollo.fit_ms", "ms", lt.mean("apollo.fit"))
	out.set("apollo.rank_ms", "ms", lt.mean("apollo.rank"))
	out.set("httpapi.decode_ms", "ms", lt.mean("httpapi.decode"))
	out.set("httpapi.handler_ms", "ms", lt.mean("httpapi.handler"))
	out.set("httpapi.wait_ms", "ms", mean(waits))
	out.set("serve.cache_hits", "count", float64(base.hits+traced.hits))
	out.set("serve.shed", "count", float64(base.shed+traced.shed))
	out.set("client.late_p90_ms", "ms", quantile(late, 0.9))
	out.set("bench.trace_overhead", "ratio", lt.sum("request")/1000/base.handlerSum)

	out.reportXchecks(log, []xcheck{
		compareTelemetry("cluster (tokenize+cluster)", base.telemetry["cluster"], lt.mean("cluster.request")),
		compareTelemetry("build", base.telemetry["build"], lt.mean("apollo.build")),
		compareTelemetry("fit", base.telemetry["fit"], lt.mean("apollo.fit")),
		compareTelemetry("qual observe", base.telemetry["qual observe"], lt.mean("qual.observe")),
		compareTelemetry("handler", base.telemetry["handler"], lt.mean("httpapi.handler")),
	})
	out.report["counts"] = counts
	out.report["selfMsByLayer"] = lt.selfSums()
	fmt.Fprintf(log, "untraced handler total %.3fs, traced replay total %.3fs, %d spans\n",
		base.handlerSum, lt.sum("request")/1000, len(spans))
	return out, nil
}

// replayRequest computes one request layer by layer, as the server and
// apollo do, under spans; it returns the rendered response (no trace id).
func replayRequest(ctx context.Context, cfg config, tr *tracer, i int, p payload, mon *qual.Monitor) ([]byte, exactCounts, kernelSample, error) {
	var c exactCounts
	traceID := fmt.Sprintf("req-%05d", i)
	root := tr.begin("request", traceID, -1)
	defer tr.end(root)

	sp := tr.begin("httpapi.decode", traceID, root)
	var req httpapi.Request
	dec := json.NewDecoder(bytes.NewReader(p.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(sp)
	if err != nil {
		return nil, c, kernelSample{}, fmt.Errorf("decode request %d: %w", i, err)
	}
	in, err := inputOf(req)
	if err != nil {
		return nil, c, kernelSample{}, err
	}

	sp = tr.begin("cluster.request", traceID, root)
	docs := make([][]string, len(in.Messages))
	for k, m := range in.Messages {
		docs[k] = cluster.Tokenize(m.Text)
	}
	assign := (&cluster.Leader{}).Cluster(docs)
	tr.end(sp)

	build := tr.begin("apollo.build", traceID, root)
	events := make([]depgraph.Event, len(in.Messages))
	for k, m := range in.Messages {
		events[k] = depgraph.Event{Source: m.Source, Assertion: assign.Cluster[k], Time: m.Time}
	}
	sp = tr.begin("depgraph.build", traceID, build)
	ds, err := depgraph.BuildDataset(in.Graph, events, assign.NumClusters)
	tr.end(sp)
	tr.end(build)
	if err != nil {
		return nil, c, kernelSample{}, err
	}
	reps := make([]string, assign.NumClusters)
	for k, leader := range assign.Leaders {
		reps[k] = in.Messages[leader].Text
	}

	fit := tr.begin("apollo.fit", traceID, root)
	finder := newFinder(cfg)
	res, err := fitTraced(ctx, tr, traceID, fit, func(ctx context.Context) (*factfind.Result, error) {
		return finder.RunContext(ctx, ds)
	})
	tr.end(fit)
	if err != nil {
		return nil, c, kernelSample{}, err
	}

	sp = tr.begin("apollo.rank", traceID, root)
	ranked := res.TopK(topK)
	tr.end(sp)

	sp = tr.begin("qual.observe", traceID, root)
	_, err = mon.ObserveRefit(ctx, qual.Refit{Result: res, Dataset: ds, Edges: -1})
	tr.end(sp)
	if err != nil {
		return nil, c, kernelSample{}, err
	}

	got, err := json.Marshal(responseOf(ds, res, ranked, reps))
	if err != nil {
		return nil, c, kernelSample{}, err
	}
	c.Iterations = res.Iterations
	c.EventsRebuilt = len(events)
	c.Clusters = assign.NumClusters
	return got, c, kernelSample{trace: traceID, ds: ds, params: res.Params.Clone()}, nil
}
