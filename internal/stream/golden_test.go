package stream

// Stream-level golden regression: a seeded twittersim Ukraine ÷20 stream
// fed through an Estimator in batches of 64, with follow edges observed as
// retweets arrive (the ingest pipeline's order). The fixture pins every
// refit's iteration count and log-likelihood, the final posteriors and
// parameters, and the final dataset's summary and flattened sparse view,
// so any drift in the D/Dataset build, the id-space growth or the warm
// refit kernels fails here. Unlike the root golden (a 12×40 synthetic
// world built directly), this stream has many silent sources and always
// goes through depgraph.BuildDataset.
//
// Regenerate deliberately with:
//
//	go test -run TestStreamGolden -update ./internal/stream/

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

type goldenRefit struct {
	Sources       int     `json:"sources"`
	Assertions    int     `json:"assertions"`
	Iterations    int     `json:"iterations"`
	LogLikelihood float64 `json:"logLikelihood"`
}

type streamGolden struct {
	Refits    []goldenRefit      `json:"refits"`
	Posterior []float64          `json:"posterior"`
	Params    *model.Params      `json:"params"`
	Summary   claims.Summary     `json:"summary"`
	Sparse    *claims.SparseView `json:"sparse"`
}

const (
	goldenScale = 20
	goldenSeed  = 2016
	goldenBatch = 64
)

func computeStreamGolden(t *testing.T, workers int) *streamGolden {
	t.Helper()
	w, err := twittersim.Generate(twittersim.Small("Ukraine", goldenScale), randutil.New(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	est := New(Options{EM: core.Options{Seed: 5, Workers: workers}})
	g := &streamGolden{}
	for lo := 0; lo < len(w.Tweets); lo += goldenBatch {
		hi := min(lo+goldenBatch, len(w.Tweets))
		batch := make([]depgraph.Event, 0, hi-lo)
		for _, tw := range w.Tweets[lo:hi] {
			if anc := w.RetweetedSource(tw); anc >= 0 {
				if err := est.ObserveFollow(tw.Source, anc); err != nil {
					t.Fatal(err)
				}
			}
			batch = append(batch, depgraph.Event{Source: tw.Source, Assertion: tw.Assertion, Time: int64(tw.ID)})
		}
		r, err := est.AddBatch(batch)
		if err != nil {
			t.Fatalf("batch at tweet %d: %v", lo, err)
		}
		ds, _ := est.Dataset()
		g.Refits = append(g.Refits, goldenRefit{
			Sources: ds.N(), Assertions: ds.M(),
			Iterations: r.Iterations, LogLikelihood: r.LogLikelihood,
		})
	}
	r, _ := est.Result()
	ds, _ := est.Dataset()
	g.Posterior = r.Posterior
	g.Params = r.Params
	g.Summary = ds.Summarize()
	g.Sparse = ds.Sparse()
	return g
}

func TestStreamGolden(t *testing.T) {
	path := filepath.Join("testdata", "stream_golden.json")
	for _, workers := range []int{1, 4} {
		got, err := json.MarshalIndent(computeStreamGolden(t, workers), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *updateGolden {
			if workers != 1 {
				continue // one canonical fixture; workers=4 must match it below
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read fixture (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: stream output drifted from %s\n%s", workers, path, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first differing line of two fixtures.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  fixture: %s\n  current: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: fixture %d, current %d", len(wl), len(gl))
}
