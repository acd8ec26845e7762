package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run, recorded around a call into a
// layer. Spans of one ingest batch or one factfind request share a Trace id.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs"`
	// Self is the span's duration minus the part its children cover,
	// filled in by finish.
	Self int64 `json:"selfNs"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use (the traced HTTP pass records from client and handler
// goroutines).
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

// begin opens a span now and returns its id.
func (t *tracer) begin(name, traceID string, parent int) int {
	return t.open(name, traceID, parent, time.Now())
}

// open opens a span that started at start.
func (t *tracer) open(name, traceID string, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: traceID, ID: id, Parent: parent, Start: t.at(start), End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) { t.close(id, time.Now()) }

// close closes span id at tm.
func (t *tracer) close(id int, tm time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.at(tm)
}

// finish computes self times and returns the spans; every span must be
// closed by then.
func (t *tracer) finish() ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, t.spans, children[i])
	}
	return append([]span(nil), t.spans...), nil
}

// covered is the length of [lo, hi) covered by the union of the given
// spans' intervals.
func covered(lo, hi int64, spans []span, ids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max64(spans[id].Start, lo), min64(spans[id].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64 = 0, lo
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			total += v.b - reach
			reach = v.b
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// layerTimes groups span durations (ms) by name.
type layerTimes struct {
	total map[string][]float64
	self  map[string][]float64
}

func groupSpans(spans []span) layerTimes {
	lt := layerTimes{total: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		lt.total[s.Name] = append(lt.total[s.Name], float64(s.End-s.Start)/1e6)
		lt.self[s.Name] = append(lt.self[s.Name], float64(s.Self)/1e6)
	}
	return lt
}

// mean of the named spans' total durations in ms, 0 when none were
// recorded.
func (lt layerTimes) mean(name string) float64 { return mean(lt.total[name]) }

// sum of the named spans' total durations in ms.
func (lt layerTimes) sum(name string) float64 {
	total := 0.0
	for _, d := range lt.total[name] {
		total += d
	}
	return total
}

// selfSums totals self time per span name, in ms.
func (lt layerTimes) selfSums() map[string]float64 {
	out := make(map[string]float64, len(lt.self))
	for name, xs := range lt.self {
		for _, d := range xs {
			out[name] += d
		}
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// xcheck compares the program's own telemetry with the traced per-layer
// numbers, both as mean ms per operation. A pair disagrees when they differ
// by more than half the traced value and by more than 0.5 ms.
type xcheck struct {
	Layer     string  `json:"layer"`
	Telemetry float64 `json:"telemetryMs"`
	Traced    float64 `json:"tracedMs"`
	Disagrees bool    `json:"disagrees"`
}

func compareTelemetry(layer string, telemetry, traced float64) xcheck {
	d := telemetry - traced
	if d < 0 {
		d = -d
	}
	return xcheck{Layer: layer, Telemetry: telemetry, Traced: traced, Disagrees: d > 0.5*traced && d > 0.5}
}

// reportXchecks records the comparisons and their disagreement count.
func (o *outcome) reportXchecks(log io.Writer, xs []xcheck) {
	n := 0
	for _, x := range xs {
		flag := ""
		if x.Disagrees {
			n++
			flag = "  <- disagrees"
		}
		fmt.Fprintf(log, "xcheck %-22s telemetry %9.3f ms  traced %9.3f ms%s\n", x.Layer, x.Telemetry, x.Traced, flag)
	}
	o.report["xcheck"] = xs
	o.set("xcheck.disagreements", "count", float64(n))
}
