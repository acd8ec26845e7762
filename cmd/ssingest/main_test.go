package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/trace"
	"depsense/internal/twittersim"
)

// TestRunOnce drives the binary end to end in batch mode: short seeded
// firehose, persistence and trace spill on, no HTTP. The run must leave a
// final snapshot, a claim log, and well-formed refit traces behind — and a
// second run over the same directory must resume (not refit from scratch)
// and exit cleanly.
func TestRunOnce(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-scenario", "Ukraine",
		"-scale", "60",
		"-seed", "7",
		"-batch", "32",
		"-once",
		"-addr", "",
		"-data", dir,
		"-trace-dir", dir,
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no final snapshot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "claims.log")); err != nil {
		t.Fatalf("no claim log: %v", err)
	}
	traces, err := trace.ReadFile(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		t.Fatalf("trace spill unreadable: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("no refit traces spilled")
	}
	firstRun := len(traces)

	// Second run resumes at the committed stream position: the firehose is
	// already exhausted there, so no new batches are fitted.
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	traces, err = trace.ReadFile(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != firstRun {
		t.Fatalf("resumed run refitted: %d traces, want %d", len(traces), firstRun)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunOnceLossless: a full-speed replay (-interval 0) whose stream is
// larger than the 1024-tweet raw queue must still commit every generated
// tweet, report accepted=N dropped=0, and end in the same final snapshot
// (cluster state, texts and the fitted model behind the rankings) byte
// for byte on every run. A replay that sheds under load fails all three.
func TestRunOnceLossless(t *testing.T) {
	const scenario, scale, seed = "Ukraine", 4, 7
	world, err := twittersim.Generate(twittersim.Small(scenario, scale), randutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	total := len(world.Tweets)
	if total <= 1024 {
		t.Fatalf("stream of %d tweets fits the raw queue; the test needs more", total)
	}
	var snaps [2][]byte
	for i := range snaps {
		dir := t.TempDir()
		var stderr bytes.Buffer
		err := run([]string{
			"-scenario", scenario, "-scale", fmt.Sprint(scale), "-seed", fmt.Sprint(seed),
			"-once", "-addr", "", "-data", dir,
		}, &stderr)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if want := fmt.Sprintf("accepted=%d dropped=0", total); !strings.Contains(stderr.String(), want) {
			t.Fatalf("run %d: summary missing %q in:\n%s", i, want, stderr.String())
		}
		snaps[i], err = os.ReadFile(filepath.Join(dir, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}
		var st struct{ Tweets int }
		if err := json.Unmarshal(snaps[i], &st); err != nil {
			t.Fatal(err)
		}
		if st.Tweets != total {
			t.Fatalf("run %d committed %d of %d tweets", i, st.Tweets, total)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("two replays of the same stream ended in different snapshots")
	}
}
