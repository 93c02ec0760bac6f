package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Quartiles must match Python's statistics.quantiles(values, n=4), the
// definition the benchmark's acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values      []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7, 7, 7, 8}, 7, 7, 7.75},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.values)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.values, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

const testSpec = `{
  "end_to_end": [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
  ],
  "per_layer": [
    {"name": "core.detect_stale_ms.p50", "unit": "ms", "better": "lower"}
  ]
}`

// writeResults writes one record per value, seeds 1..n, as the benchmark
// appends them.
func writeResults(t *testing.T, path, workload, name string, values []float64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, v := range values {
		rec := record{Workload: workload, Seed: int64(i + 1), Valid: true, result: result{
			Correct: true, Attempted: 1, Metrics: map[string]metric{name: {Value: v, Unit: "x"}},
		}}
		line, _ := json.Marshal(rec)
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = k * v
		}
		return out
	}
	wide := []float64{1, 2, 1, 2, 1.5, 1, 2, 1, 2, 1.5}
	cases := []struct {
		name     string
		metric   string
		old, new []float64
		want     string
	}{
		{"same", "p50_ms", steady, scaled(1.02), "unchanged"},
		{"slower beyond the bound", "p50_ms", steady, scaled(1.3), "worse"},
		{"slower within the bound", "p50_ms", steady, scaled(1.05), "unchanged"},
		{"faster", "p50_ms", steady, scaled(0.8), "better"},
		{"higher is better", "rate", steady, scaled(0.8), "worse"},
		{"old spread wider than the bound", "p50_ms", wide, wide, "unresolved"},
		{"wide, but every new run is better", "p50_ms", wide, scaled(0.5), "better"},
		{"per-layer, no bound", "core.detect_stale_ms.p50", steady, scaled(1.5), "worse"},
		{"per-layer, no bound, noise", "core.detect_stale_ms.p50", steady, steady, "unchanged"},
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		oldPath := filepath.Join(dir, c.name+".old.jsonl")
		newPath := filepath.Join(dir, c.name+".new.jsonl")
		writeResults(t, oldPath, "w", c.metric, c.old)
		writeResults(t, newPath, "w", c.metric, c.new)
		olds, err := loadRecords(oldPath)
		if err != nil {
			t.Fatal(err)
		}
		news, err := loadRecords(newPath)
		if err != nil {
			t.Fatal(err)
		}
		rows := compareRecords(s, olds, news)
		if len(rows) != 1 {
			t.Fatalf("case %d %q: %d rows, want 1", i, c.name, len(rows))
		}
		if rows[0].verdict != c.want {
			t.Errorf("case %q: verdict %s, want %s (old %+v, new %+v)", c.name, rows[0].verdict, c.want, rows[0].old, rows[0].new)
		}
	}
}

// Runs pair by seed: a seed run on one side only is left out of the
// pairing, a seed run twice counts with its latest run, and runs that failed
// an operation or were invalid do not count at all.
func TestCompareCollectsBySeed(t *testing.T) {
	rec := func(seed int64, v float64, edit func(*record)) record {
		r := record{Workload: "w", Seed: seed, Valid: true, result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"core.detect_stale_ms.p50": {Value: v}}}}
		if edit != nil {
			edit(&r)
		}
		return r
	}
	var olds, news []record
	for seed := int64(1); seed <= 10; seed++ {
		olds = append(olds, rec(seed, 10+float64(seed)/100, nil))
		if seed != 3 {
			news = append(news, rec(seed, 9+float64(seed)/100, nil)) // better on every seed both sides ran
		}
	}
	news = append(news,
		rec(11, 1000, nil), // no old run to pair with
		rec(5, 100, nil),   // the seed's earlier run is superseded...
		rec(5, 9.05, nil),  // ...by this one
		rec(6, 1000, func(r *record) { r.Correct, r.Failed = false, 1 }),
		rec(7, 1000, func(r *record) { r.Valid = false }),
	)
	s := &spec{PerLayer: []specMetric{{Name: "core.detect_stale_ms.p50", Better: "lower"}}}
	rows := compareRecords(s, olds, news)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	if got := len(rows[0].new.values); got != 10 {
		t.Errorf("new side has %d values, want 10 (seeds 1-11 without 3)", got)
	}
	if got := rows[0].new.bySeed[5]; got != 9.05 {
		t.Errorf("seed 5 counts %v, want its latest run's 9.05", got)
	}
	if got := rows[0].new.bySeed[6]; got != 9.06 {
		t.Errorf("seed 6 counts %v, want its correct run's 9.06", got)
	}
	if rows[0].verdict != "better" {
		t.Errorf("verdict %s, want better: the new side wins all 9 paired seeds", rows[0].verdict)
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	oldPath, newPath := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	base := []float64{1, 1.01, 0.99, 1, 1, 1, 1.01, 0.99, 1, 1}
	writeResults(t, oldPath, "serve_hot", "p50_ms", base)
	writeResults(t, oldPath, "backfill", "p50_ms", base)
	writeResults(t, oldPath, "live_mixed", "p50_ms", base)
	writeResults(t, newPath, "serve_hot", "p50_ms", base)
	writeResults(t, newPath, "backfill", "p50_ms", []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	writeResults(t, newPath, "live_mixed", "p50_ms", []float64{2, 2, 2, 2, 2}) // too few runs to judge

	var out, errOut bytes.Buffer
	code := compareMain([]string{"-benchmark", specPath, oldPath, newPath}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (a worse metric); stderr %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a header and one row per workload, got:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[1], "backfill") || !strings.HasSuffix(lines[1], "worse") {
		t.Errorf("backfill row: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "live_mixed") || !strings.HasSuffix(lines[2], "unresolved") {
		t.Errorf("live_mixed row: %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "serve_hot") || !strings.HasSuffix(lines[3], "unchanged") {
		t.Errorf("serve_hot row: %q", lines[3])
	}

	if code := compareMain([]string{"-benchmark", specPath, oldPath}, &out, &errOut); code != 2 {
		t.Errorf("one results file: exit %d, want 2", code)
	}
}
