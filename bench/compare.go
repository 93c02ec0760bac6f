package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening, as a share of the old median
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads a results file: one record per line, as the benchmark
// appends them.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// row is one metric on one workload, old side against new side.
type row struct {
	workload, metric, unit string
	old, new               summary
	verdict                string
}

type summary struct {
	values      []float64
	bySeed      map[int64]float64 // the same values, so the two sides pair run for run
	q1, med, q3 float64
}

// compareRecords applies the benchmark's rule to every workload × metric
// both sides measured:
//   - unresolved: either side has fewer than minRuns runs that count, or
//     the old side's quartile spread, as a share of its median, is wider
//     than the bound, unless every new run is better than every old run;
//   - worse: the new median is worse than the old by more than the bound;
//   - better: the new side wins at least nine tenths of the runs paired by
//     seed (ties count for neither; a seed run on one side only is not
//     paired) and the medians differ by more than the old side's quartile
//     spread;
//   - unchanged otherwise.
//
// Per-layer metrics have no bound: they are better or worse by the pairing
// rule alone.
func compareRecords(s *spec, olds, news []record) []row {
	metricsByName := map[string]specMetric{}
	var order []string
	for _, m := range s.EndToEnd {
		metricsByName[m.Name] = m
		order = append(order, m.Name)
	}
	for _, m := range s.PerLayer {
		metricsByName[m.Name] = m
		order = append(order, m.Name)
	}
	workloadSet := map[string]bool{}
	for _, r := range append(append([]record(nil), olds...), news...) {
		workloadSet[r.Workload] = true
	}
	var wls []string
	for w := range workloadSet {
		wls = append(wls, w)
	}
	sort.Strings(wls)

	var rows []row
	for _, w := range wls {
		for _, name := range order {
			m := metricsByName[name]
			o, n := collect(olds, w, name), collect(news, w, name)
			if len(o.values) == 0 || len(n.values) == 0 {
				continue
			}
			rows = append(rows, row{workload: w, metric: name, unit: m.Unit, old: o, new: n, verdict: verdict(m, o, n)})
		}
	}
	return rows
}

// collect gathers one metric of one workload by seed. Runs that failed an
// operation or whose generator ran late do not count, and when a seed was
// run more than once its latest run counts.
func collect(recs []record, workload, name string) summary {
	bySeed := map[int64]float64{}
	for _, r := range recs {
		if r.Workload != workload || !r.Correct || r.Failed > 0 || !r.Valid {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = m.Value
		}
	}
	s := summary{bySeed: bySeed}
	for _, v := range bySeed {
		s.values = append(s.values, v)
	}
	if len(s.values) > 0 {
		s.q1, s.med, s.q3 = quartiles(s.values)
	}
	return s
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// exclusive method) for the outer two and returns the median between them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	med = median(d)
	if len(d) < 2 {
		return d[0], med, d[0]
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

// minRuns is the fewest runs per side compare judges: ten, as the
// benchmark's rule for claiming a gain asks.
const minRuns = 10

func verdict(m specMetric, o, n summary) string {
	if len(o.values) < minRuns || len(n.values) < minRuns {
		return "unresolved"
	}
	better := func(a, b float64) bool { // a is better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	spread := o.q3 - o.q1
	allBetter := true
	for _, nv := range n.values {
		for _, ov := range o.values {
			allBetter = allBetter && better(nv, ov)
		}
	}
	if m.Bound > 0 {
		if spread > m.Bound*math.Abs(o.med) {
			if allBetter {
				return "better"
			}
			return "unresolved"
		}
		limit := m.Bound * math.Abs(o.med)
		if (m.Better == "higher" && n.med < o.med-limit) || (m.Better != "higher" && n.med > o.med+limit) {
			return "worse"
		}
	}
	pairs, wins, losses := 0, 0, 0
	for seed, ov := range o.bySeed {
		nv, ok := n.bySeed[seed]
		if !ok {
			continue
		}
		pairs++
		switch {
		case better(nv, ov):
			wins++
		case better(ov, nv):
			losses++
		}
	}
	apart := math.Abs(n.med-o.med) > spread
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && apart:
		return "better"
	case m.Bound == 0 && pairs > 0 && 10*losses >= 9*pairs && apart:
		return "worse"
	}
	return "unchanged"
}

// compareMain is `bench compare [-benchmark BENCHMARK.json] OLD NEW`. It
// exits 1 when any metric is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] OLD.jsonl NEW.jsonl")
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	olds, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	news, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-12s %-38s %-6s %30s %30s %8s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3] n", "new median [q1, q3] n", "change", "verdict")
	for _, r := range compareRecords(s, olds, news) {
		change := math.NaN()
		if r.old.med != 0 {
			change = 100 * (r.new.med - r.old.med) / math.Abs(r.old.med)
		}
		fmt.Fprintf(stdout, "%-12s %-38s %-6s %30s %30s %+7.1f%%  %s\n", r.workload, r.metric, r.unit,
			fmtSummary(r.old), fmtSummary(r.new), change, r.verdict)
		worse = worse || r.verdict == "worse"
	}
	if worse {
		return 1
	}
	return 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.med, s.q1, s.q3, len(s.values))
}
