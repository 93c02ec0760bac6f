// Command bench is wikistale's benchmark. For one workload and seed it
// generates a corpus, a JSONL feed and an epoch store, runs staleserve
// (built from the checkout under test) through the workload, checks the
// served outputs against in-process references, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
//	bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0   # from the repository root
//	go run . -root .. --workload serve_hot --seed 1 --seconds 10 --trace 0  # from bench/
//	bash bench/run.sh compare old.jsonl new.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to the results file that compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Valid is false when the generator released requests late in some
	// measured phase (see lateLimit); compare leaves such runs out.
	Valid bool `json:"valid"`
	result
}

// config is one invocation.
type config struct {
	root     string // repository checkout under test
	workload string
	seed     int64
	seconds  int
	trace    bool
	small    bool   // tiny corpus and short phases, for the harness test
	work     string // scratch space, removed when the run ends
	out      string // logs and trace.jsonl, kept
	server   string // staleserve binary (built when empty)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same corpus, feed and requests")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	traceRun := fs.Int("trace", 0, "1: run the workload in-process with spans and print per-layer metrics")
	root := fs.String("root", ".", "repository checkout to build and measure")
	out := fs.String("out", "", "directory for logs and trace.jsonl (default .bench_build/out/<workload>-seed<N>[-trace])")
	results := fs.String("results", "", "append the run's record to this JSONL file (default .bench_build/results.jsonl)")
	_ = fs.Parse(os.Args[1:])

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	build := filepath.Join(abs, ".bench_build")
	cfg := config{
		root:     abs,
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceRun == 1,
		work:     filepath.Join(build, "work"),
		out:      *out,
	}
	if cfg.out == "" {
		name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if cfg.trace {
			name += "-trace"
		}
		cfg.out = filepath.Join(build, "out", name)
	}
	if *results == "" {
		*results = filepath.Join(build, "results.jsonl")
	}

	// The program's own logs (epoch store, staging) are noise here; warnings
	// still reach stderr.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rec, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := appendRecord(*results, *rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	res := rec.result
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run prepares the inputs and runs one workload. Scratch space is removed
// on every path; logs of a failed run are copied to cfg.out first.
func run(ctx context.Context, cfg config) (*record, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(cfg.out); err != nil {
		return nil, err
	}
	for _, d := range []string{cfg.work, cfg.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(cfg.work)

	if cfg.server == "" && !cfg.trace {
		bin, err := buildServer(ctx, cfg.root, filepath.Join(cfg.root, ".bench_build"))
		if err != nil {
			return nil, err
		}
		cfg.server = bin
	}
	start := time.Now()
	in, err := prepare(ctx, filepath.Join(cfg.work, "inputs"), corpusConfig(cfg.small), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d events, %d observed fields, backlog %d events, inputs ready in %.1fs\n",
		cfg.workload, cfg.seed, len(in.events), len(in.catalog), in.backlog, time.Since(start).Seconds())

	r := &runner{cfg: cfg, in: in, tally: &tally{}, metrics: map[string]metric{}, speed: newSpeed()}
	defer func() {
		if r.twin != nil {
			r.twin.close()
		}
	}()
	if cfg.trace {
		r.spans = newSpanLog()
	}
	if err := workloads[cfg.workload](ctx, r); err != nil {
		r.keepLogs()
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.speed.report()
	if r.twin != nil {
		r.twin.report()
	}
	if r.tally.failed > 0 {
		r.keepLogs()
		for _, n := range r.tally.notes {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", n)
		}
	}
	if cfg.trace {
		if err := r.spans.write(cfg.out, os.Stderr); err != nil {
			return nil, err
		}
	}
	// A traced run reports the per-layer metrics (named module.metric), an
	// end-to-end run the rest; workloads record both kinds where they are
	// measured and the other kind is dropped here.
	for name := range r.metrics {
		if strings.Contains(name, ".") != cfg.trace {
			delete(r.metrics, name)
		}
	}
	return &record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Valid: !r.invalid, result: result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   r.metrics,
	}}, nil
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runner carries one run's state through a workload.
type runner struct {
	cfg     config
	in      *inputs
	tally   *tally
	metrics map[string]metric
	spans   *spanLog // traced runs only
	speed   *speed
	twin    *twin    // the measured open loop's twin, when there is one
	invalid bool     // some measured phase broke the generator's lateness limit
	logs    []string // system-under-test logs, copied to cfg.out on failure
}

func (r *runner) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// keepLogs copies the system-under-test logs out of the scratch space.
func (r *runner) keepLogs() {
	for _, p := range r.logs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		_ = os.WriteFile(filepath.Join(r.cfg.out, filepath.Base(p)), data, 0o644)
	}
}

// tally counts attempted and failed operations: requests, probes and
// output checks.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string // the first few failures, for stderr
}

func (t *tally) add(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one output check and fails it when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.add(1)
	if !ok {
		t.fail(format, args...)
	}
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(values []float64) float64 {
	m := 0.0
	for _, v := range values {
		if v > m {
			m = v
		}
	}
	return m
}

// errStopped reports that the run was interrupted.
var errStopped = errors.New("interrupted")

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return errStopped
	case <-t.C:
		return nil
	}
}
