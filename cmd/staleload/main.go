// Command staleload drives HTTP load at a running staleserve and reports
// serving latency. It discovers the servable keyspace from /v1/catalog,
// aims zipf-distributed traffic at it across a mixed route profile
// (/v1/field, /v1/explain, /v1/stale, plus the /debug/quality and
// /debug/epochdiff observability reports), and measures in two loop
// disciplines:
//
//   - closed: N workers issue requests back-to-back. Measures service
//     time at a fixed offered concurrency; slow responses throttle the
//     arrival rate, so the tail stays flattering under overload.
//   - open: requests arrive on a fixed schedule at -rps regardless of
//     completions, and latency is charged from the *scheduled* arrival.
//     Queue delay under overload lands in the histogram (coordinated-
//     omission corrected) — this is what users experience.
//
// A warmup phase runs first and is discarded. Results print as a table
// and, with -json, land in the BENCH_PR2.json-style envelope so the
// repo's benchmark trajectory stays uniform.
//
// Usage:
//
//	staleserve -live -source sim &
//	staleload -url http://localhost:8080 -mode both -c 8 -rps 500 \
//	          -d 10s -warmup 2s -json BENCH_HTTP.json
//
// A server without -live has no /debug/quality (it scores alerts against
// the feed), so drive staleserve -i corpus.wcc with the quality route
// left out of -mix, e.g. -mix field=55,explain=20,stale=20.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/wikistale/wikistale/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("staleload: ")
	var (
		baseURL = flag.String("url", "http://localhost:8080", "base URL of the staleserve instance")
		mode    = flag.String("mode", "both", `loop discipline: "closed", "open", or "both"`)
		conc    = flag.Int("c", 8, "worker count (offered concurrency in closed mode, pool size in open mode)")
		rps     = flag.Float64("rps", 500, "scheduled arrival rate for open mode")
		dur     = flag.Duration("d", 10*time.Second, "measured duration per mode")
		warmup  = flag.Duration("warmup", 2*time.Second, "closed-loop warmup before each measured run (discarded)")
		zipfS   = flag.Float64("zipf", 1.1, "zipf skew for page popularity (> 1; larger = more head-heavy)")
		mixStr  = flag.String("mix", "field=55,explain=20,stale=20,quality=5", "route mix as route=weight[,route=weight...]")
		limit   = flag.Int("catalog-limit", 4096, "cap on catalog fields fetched (0 = all)")
		seed    = flag.Int64("seed", 1, "base seed for the per-worker random streams")
		wait    = flag.Duration("wait", 30*time.Second, "how long to wait for the server to become ready")
		jsonOut = flag.String("json", "", "write a BENCH_HTTP-style JSON report to this file")
		comment = flag.String("comment", "", "comment recorded in the JSON report")
	)
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixStr)
	if err != nil {
		log.Fatal(err)
	}
	var modes []string
	switch *mode {
	case "both":
		modes = []string{loadgen.ModeClosed, loadgen.ModeOpen}
	case loadgen.ModeClosed, loadgen.ModeOpen:
		modes = []string{*mode}
	default:
		log.Fatalf("bad -mode %q: want closed, open, or both", *mode)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &http.Client{Timeout: 10 * time.Second}
	if err := waitReady(ctx, client, *baseURL, *wait); err != nil {
		log.Fatal(err)
	}
	fields, err := loadgen.FetchCatalog(client, *baseURL, *limit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "catalog: %d servable fields at %s\n", len(fields), *baseURL)

	w := &loadgen.Workload{BaseURL: *baseURL, Fields: fields, ZipfS: *zipfS, Mix: mix}
	rep := loadgen.NewReport(*comment, *baseURL, w)

	for _, m := range modes {
		res, err := loadgen.Run(ctx, w, loadgen.Options{
			Mode:        m,
			Concurrency: *conc,
			TargetRPS:   *rps,
			Duration:    *dur,
			Warmup:      *warmup,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		loadgen.Summarize(os.Stdout, res)
		rep.Add(res)
		if ctx.Err() != nil {
			break
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

// waitReady polls /readyz until the server answers 200 — live-mode cold
// starts return 503 until enough history has streamed in.
func waitReady(ctx context.Context, client *http.Client, baseURL string, timeout time.Duration) error {
	u := strings.TrimRight(baseURL, "/") + "/readyz"
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(u)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s not ready after %v: %v", baseURL, timeout, err)
			}
			return fmt.Errorf("server at %s not ready after %v", baseURL, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}
