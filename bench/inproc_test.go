package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/obs/quality"
)

// TestInprocMatchesCommand checks that the traced run's in-process wiring
// is the one cmd/staleserve -live -store builds with its default flags: the
// same manager configuration, and the same hooks, seen through what a
// server booted from one store answers.
func TestInprocMatchesCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs staleserve")
	}
	root := t.TempDir()
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bin, err := buildServer(ctx, repo, root)
	if err != nil {
		t.Fatal(err)
	}

	help, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by design
	defaults := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+).*\n\s+.*\(default ([^)]+)\)$`).FindAllSubmatch(help, -1) {
		defaults[string(m[1])] = string(m[2])
	}
	mc := liveConfig(core.DefaultConfig())
	for flag, want := range map[string]string{
		"retrain-every":       mc.RetrainInterval.String(),
		"retrain-changes":     fmt.Sprint(mc.RetrainChanges),
		"retrain-incremental": fmt.Sprint(mc.Incremental),
		"retrain-full-every":  fmt.Sprint(mc.FullRebuildEvery),
		"quality-horizon":     fmt.Sprint(quality.DefaultHorizonDays),
		"store-retain":        fmt.Sprint(epochstore.DefaultRetain),
	} {
		if defaults[flag] != want {
			t.Errorf("staleserve -%s defaults to %q, the in-process wiring uses %q", flag, defaults[flag], want)
		}
	}

	in, err := prepare(ctx, filepath.Join(root, "inputs"), corpusConfig(true), 1)
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func(trace bool) *runner {
		r := &runner{cfg: config{root: repo, seed: 1, trace: trace, small: true, work: filepath.Join(root, "work"), server: bin},
			in: in, tally: &tally{}, metrics: map[string]metric{}}
		if trace {
			r.spans = newSpanLog()
		}
		return r
	}
	// A first server catches the lagging store up and persists the new
	// epoch with its quality state; both systems then boot from it.
	first := newRunner(false)
	sys, _, err := first.start(ctx, "first", launch{feed: in.feed, store: in.storeLag}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.finish(ctx, first); err != nil {
		t.Fatal(err)
	}
	caughtUp := filepath.Join(root, "work", "store-first")

	bodies := map[bool]map[string][]byte{}
	for _, trace := range []bool{false, true} {
		r := newRunner(trace)
		sys, _, err := r.start(ctx, fmt.Sprint("boot-", trace), launch{feed: in.feed, store: caughtUp}, 1)
		if err != nil {
			t.Fatal(err)
		}
		bodies[trace] = map[string][]byte{}
		for _, path := range []string{"/debug/quality", "/v1/stats", "/v1/stale?window=7"} {
			status, body, err := sys.get(path)
			if err != nil || status != 200 {
				t.Errorf("trace=%v %s: status %d, %v", trace, path, status, err)
			}
			bodies[trace][path] = body
		}
		status, body, err := sys.get("/debug/slo")
		if err != nil || status != 200 || !bytes.Contains(body, []byte(`"ingest_lag_seconds"`)) {
			t.Errorf("trace=%v /debug/slo has no ingest lag (status %d, %v): %.300s", trace, status, err, body)
		}
		sys.kill()
	}
	for path, want := range bodies[false] {
		if got := bodies[true][path]; !bytes.Equal(got, want) {
			t.Errorf("%s differs in-process:\n got %.400s\nwant %.400s", path, got, want)
		}
	}
}
