package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestHarness runs every workload end to end and traced on the small
// corpus with one-second phases, and checks that each run is correct and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds staleserve and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w
			want := spec.EndToEnd
			if traced {
				name += "-trace"
				want = spec.PerLayer
			}
			cfg := config{root: root, workload: w, seed: 1, seconds: 1, trace: traced, small: true,
				work: filepath.Join(dir, "work"), out: filepath.Join(dir, name), server: bin}
			res, err := run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s: metric %s missing", name, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
			}
			if traced {
				checkTrace(t, cfg.out)
			}
		}
	}
}

// checkTrace checks that trace.jsonl holds well-formed spans whose parents
// exist, and that trace_summary.json accounts for every span name.
func checkTrace(t *testing.T, dir string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		ID      uint64 `json:"id"`
		Parent  uint64 `json:"parent"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	ids := map[uint64]bool{}
	counts := map[string]int{}
	var spans []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("trace.jsonl: %v", err)
		}
		if l.ID == 0 || ids[l.ID] || l.Name == "" || l.EndNS < l.StartNS {
			t.Errorf("trace.jsonl: bad span %+v", l)
		}
		ids[l.ID] = true
		counts[l.Name]++
		spans = append(spans, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("trace.jsonl: span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "trace_summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []layerStats
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("trace_summary.json: %v", err)
	}
	if len(rows) != len(counts) {
		t.Errorf("trace_summary.json has %d names, trace.jsonl %d", len(rows), len(counts))
	}
	for i, r := range rows {
		if r.Count != counts[r.Name] || r.SelfS < 0 || r.SelfS > r.TotalS+1e-9 {
			t.Errorf("trace_summary.json: bad row %+v (%d spans in trace.jsonl)", r, counts[r.Name])
		}
		if i > 0 && r.SelfS > rows[i-1].SelfS {
			t.Errorf("trace_summary.json: not sorted by self time at %s", r.Name)
		}
	}
}
