// Command staleserve trains the detector on a change cube and serves
// stale-data findings over HTTP — the backend for the paper's Figure 1
// marker and for editor dashboards.
//
// Endpoints:
//
//	GET /healthz                            liveness + field count
//	GET /readyz                             readiness (503 until a detector is installed)
//	GET /v1/stale?asof=2019-09-01&window=7  everything stale in the window
//	GET /v1/field?page=P&property=X&...     marker lookup for one field
//	GET /v1/explain?page=P&property=X&...   full evidence audit for one field
//	GET /v1/audit                           recent positive verdicts served
//	GET /v1/stats                           corpus and rule statistics
//	GET /v1/ingest/stats                    live-feed progress (-live only)
//	GET /v1/catalog                         servable (page, property) pairs (for load harnesses)
//	GET /statusz                            human-readable status page
//	GET /metrics                            Prometheus text (?format=json for JSON)
//	GET /debug/traces                       recent request/retrain traces (?route=, ?min_ns=)
//	GET /debug/quality                      online alert-outcome scoring report (-live only)
//	GET /debug/epochdiff                    last-N epoch diffs: rule and alert-set churn per swap
//	GET /debug/slo                          SLO burn rates over rolling windows (JSON)
//	GET /debug/profiles                     pprof profiles captured by burn-rate trips
//	GET /debug/pprof/                       Go profiling endpoints
//
// There is one way to serve. At boot the server installs the newest valid
// epoch from -store, or else trains on the -i corpus (default corpus.wcc
// unless -live is set, where -i is an optional warm start). Without -live
// that detector is served as is. With -live a change-event feed streams in
// as well, the detector is retrained in the background, and each new
// epoch is hot-swapped in with zero downtime:
//
//	staleserve -i corpus.wcc                     # train once and serve
//	staleserve -i corpus.wcc -store epochs/      # persist the trained epoch; restarts boot from it
//	staleserve -live -source sim                 # simulated EventStreams feed
//	staleserve -live -source sim:scale=8         # ~10M-change corpus streamed straight from the generator
//	staleserve -live -source events.jsonl        # replay a JSONL dump, then keep serving
//	staleserve -live -source events.jsonl -follow # tail the file as it grows
//	staleserve -live -source feed.jsonl -i corpus.wcc  # warm start from a corpus
//	staleserve -live -source feed.jsonl -store epochs/ # persist epochs; restart boots instantly
//
// With -store DIR every trained epoch (model + training cube + feed
// checkpoint), the one trained on -i included, is persisted into an epoch
// store; on the next start the newest valid epoch is served immediately —
// /readyz is 200 in milliseconds with no retraining — and a -live feed
// resumes exactly at the epoch's checkpoint. Corrupt or torn snapshots
// fall back to the previous epoch, then to training from scratch.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests get up to -drain to finish, then the
// process exits.
//
// Usage:
//
//	staleserve [-i corpus.wcc] [-store DIR] [-live -source SRC] [-addr :8080]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs/olog"
	"github.com/wikistale/wikistale/internal/obs/quality"
	"github.com/wikistale/wikistale/internal/obs/trace"
	"github.com/wikistale/wikistale/internal/staleserve"
	"github.com/wikistale/wikistale/internal/timeline"
)

var (
	in    = flag.String("i", "", "input binary change cube to train on when -store has no epoch (default corpus.wcc; optional warm start with -live)")
	addr  = flag.String("addr", ":8080", "listen address")
	drain = flag.Duration("drain", 10*time.Second, "graceful-shutdown timeout for in-flight requests")

	logLevel  = flag.String("log-level", "info", "structured-log level: debug, info, warn, or error")
	logFormat = flag.String("log-format", "text", `structured-log format: "text" or "json"`)

	live           = flag.Bool("live", false, "live mode: stream a change feed, retrain in the background, hot-swap the detector")
	source         = flag.String("source", "sim", `live feed: "sim" for a simulated EventStreams feed, "sim:scale=N" to stream an N-times-larger corpus straight from the generator, or a JSONL file path`)
	memLimit       = flag.String("memlimit", "", `soft Go memory limit (e.g. "4GiB"): wires debug.SetMemoryLimit; the limit and live-heap headroom show on /statusz`)
	follow         = flag.Bool("follow", false, "tail the JSONL source for new events instead of stopping at its end")
	retrainEvery   = flag.Duration("retrain-every", 15*time.Second, "live mode: retrain at most this often while changes are pending (0 disables)")
	retrainChanges = flag.Int("retrain-changes", 5000, "live mode: retrain after this many new changes (0 disables)")
	retrainInc     = flag.Bool("retrain-incremental", true, "live mode: every model stage reuses its rules for the pages, templates, fields and families whose filtered histories did not change between retrains (bit-identical, faster)")
	retrainFull    = flag.Int("retrain-full-every", 32, "live mode: force a full rebuild after this many incremental retrains (0 never)")

	storeDir    = flag.String("store", "", "epoch store directory — persist every trained epoch and boot from the newest valid one instead of retraining")
	storeRetain = flag.Int("store-retain", epochstore.DefaultRetain, "epoch snapshots kept on disk")

	qualityHorizon = flag.Int("quality-horizon", quality.DefaultHorizonDays, "live mode: event-time days an alert has to be confirmed by a change before it scores as expired (/debug/quality; 0 disables scoring)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("staleserve: ")
	flag.Parse()

	// Install the trace-aware slog handler before any server or manager is
	// constructed — both capture slog.Default() at construction time.
	if _, err := olog.Setup(os.Stderr, *logLevel, *logFormat); err != nil {
		log.Fatal(err)
	}

	if *memLimit != "" {
		n, err := parseByteSize(*memLimit)
		if err != nil {
			log.Fatalf("-memlimit: %v", err)
		}
		debug.SetMemoryLimit(n)
		fmt.Fprintf(os.Stderr, "memory limit: %s\n", *memLimit)
	}

	run()
}

// run wires store → server → feed and serves until SIGINT/SIGTERM. With
// -store, the newest valid persisted epoch is loaded first and swapped in
// before the listener opens (ready in milliseconds, no retraining);
// otherwise the -i corpus is trained and swapped in, and persisted as the
// store's first epoch. Without -live that detector is served as is: no
// feed, scorer, ingest stats or lag source is wired. With -live the feed
// resumes from the loaded epoch's checkpoint (or starts from the
// beginning), the ingest manager retrains in the background, and every
// later retrain persists a fresh epoch through the manager's post-swap
// hook.
func run() {
	cfg := core.DefaultConfig()

	var es *epochstore.Store
	var loaded *epochstore.LoadResult
	if *storeDir != "" {
		var err error
		if es, err = epochstore.Open(epochstore.Options{Dir: *storeDir, Retain: *storeRetain}); err != nil {
			log.Fatal(err)
		}
		if loaded, err = es.LoadLatest(context.Background(), cfg); err != nil {
			log.Fatal(err)
		}
		for _, e := range loaded.Errors {
			fmt.Fprintf(os.Stderr, "epoch store: %s\n", e)
		}
		if loaded.Outcome == "cold" {
			loaded = nil
		}
	}

	var src ingest.Source
	if *live {
		src, loaded = openSource(*source, es, loaded)
	}

	srv := staleserve.NewLive()

	// Online alert-outcome scoring: wired before the first Swap so a store
	// boot registers its alert set against the restored state (pending
	// predictions keep their original alert days and deadlines across the
	// restart; BeginEpoch skips already-pending keys).
	var scorer *quality.Scorer
	if *live && *qualityHorizon > 0 {
		scorer = quality.New(*qualityHorizon)
		if loaded != nil && len(loaded.Quality) > 0 {
			if err := scorer.Restore(loaded.Quality); err != nil {
				fmt.Fprintf(os.Stderr, "live: quality state from epoch %d unusable (%v); scoring starts fresh\n",
					loaded.Record.Seq, err)
			}
		}
		srv.SetQualityScorer(scorer)
		if es != nil {
			es.SetQualitySource(scorer.MarshalBinary)
		}
	}
	if es != nil {
		srv.SetStoreStats(func() any { return es.Stats() })
	}

	corpus := *in
	if corpus == "" && !*live {
		corpus = "corpus.wcc"
	}
	var st *ingest.Staging // nil when booting from the store (rebuilt in background)
	var err error
	switch {
	case loaded != nil:
		// Boot from the store: serve the persisted epoch immediately; a
		// feed picks up at its checkpoint, so no event is lost or applied
		// twice. A warm-start cube (-i) is ignored — the store is newer.
		srv.Swap(loaded.Detector)
		es.RecordRecovery(loaded.Outcome)
		fmt.Fprintf(os.Stderr, "booted epoch %d from %s in %.0f ms (%s; %d fields; feed checkpoint %+v)\n",
			loaded.Record.Seq, *storeDir, 1000*loaded.Seconds, loaded.Outcome,
			loaded.Record.Fields, loaded.Checkpoint)
	case corpus != "":
		cube := readCube(corpus)
		// Train under a root trace, so /debug/traces shows the startup
		// training's stage breakdown beside request and retrain traces.
		// A live warm start has filtered the corpus into staging already,
		// so it trains on the staging snapshot instead of filtering twice.
		start := time.Now()
		ctx, span := trace.Start(context.Background(), "train")
		var det *core.Detector
		if *live {
			if st, err = ingest.NewStagingFromCube(cube, cfg.Filter); err != nil {
				log.Fatal(err)
			}
			var hs *changecube.HistorySet
			var stats filter.Stats
			if hs, stats, err = st.Snapshot(); err == nil {
				det, err = core.TrainFilteredHintedCtx(ctx, hs, stats, cfg, core.TrainHints{})
			}
		} else {
			det, err = core.TrainCtx(ctx, cube, cfg)
		}
		span.End()
		if err != nil {
			log.Fatalf("training on %s: %v", corpus, err)
		}
		srv.Swap(det)
		fmt.Fprintf(os.Stderr, "trained on %s (%d changes) in %v; %d correlation rules, %d association rules\n",
			corpus, cube.NumChanges(), time.Since(start).Round(time.Millisecond),
			det.FieldCorrelations().NumRules(), det.AssociationRules().NumRules())
		if es != nil {
			// Persist the warm start so a restart boots from it instead of
			// retraining. Its checkpoint is the feed's beginning. A failed
			// snapshot is logged and counted by the store; serving continues.
			_, _ = es.Snapshot(context.Background(), det, ingest.Checkpoint{})
		}
	default:
		if st, err = ingest.NewStaging(cfg.Filter); err != nil {
			log.Fatal(err)
		}
		if es != nil {
			es.RecordRecovery("cold")
		}
		fmt.Fprintln(os.Stderr, "live: cold start; not ready until enough history has streamed in")
	}

	var startFeed func() (*ingest.Manager, error)
	if *live {
		startFeed = wireFeed(srv, src, st, loaded, es, scorer, cfg)
	}
	serve(srv, *addr, *drain, startFeed)
}

// openSource opens the -live feed. A loaded epoch whose checkpoint does
// not match the feed is discarded, so the returned epoch is nil then.
func openSource(source string, es *epochstore.Store, loaded *epochstore.LoadResult) (ingest.Source, *epochstore.LoadResult) {
	switch {
	case strings.HasPrefix(source, "sim:"):
		// Scaled simulated feed: events stream straight out of the
		// generator, one entity per batch — no corpus cube is ever
		// materialized on the producer side, so a 10M+-change feed costs
		// only the staging buffer's memory.
		scale, err := parseSimScale(source)
		if err != nil {
			log.Fatal(err)
		}
		sim := ingest.NewSimSource(dataset.Default().Scaled(scale))
		if loaded != nil {
			if loaded.Checkpoint.Kind != "" && loaded.Checkpoint.Kind != "sim" {
				loaded = discardLoaded(es, fmt.Errorf("checkpoint kind %q, feed is the streamed sim generator", loaded.Checkpoint.Kind))
			} else if err := sim.Seek(loaded.Checkpoint); err != nil {
				loaded = discardLoaded(es, err)
			}
		}
		fmt.Fprintf(os.Stderr, "live: streaming simulated feed at scale %d (%d templates)\n",
			scale, dataset.Default().Scaled(scale).NumTemplates)
		return sim, loaded
	case source == "sim":
		var cp ingest.SourcePosition
		if loaded != nil {
			if loaded.Checkpoint.Kind != "" && loaded.Checkpoint.Kind != "stream" {
				loaded = discardLoaded(es, fmt.Errorf("checkpoint kind %q, feed is the simulated stream", loaded.Checkpoint.Kind))
			} else {
				cp = loaded.Checkpoint
			}
		}
		// Corpus generation takes seconds; a store boot must open the
		// listener in milliseconds. The lazy source moves generation onto
		// the manager's consume goroutine — serving (on the loaded epoch)
		// starts immediately, the feed follows. The simulated feed is
		// deterministic, so the checkpoint's batch index identifies an
		// exact position in the regenerated replay.
		return &lazyStream{build: func() (*ingest.Stream, error) {
			cube, _, err := dataset.Generate(dataset.Default())
			if err != nil {
				return nil, fmt.Errorf("generating simulated feed: %w", err)
			}
			stream := ingest.NewStream(cube)
			if !cp.IsZero() {
				if err := stream.Seek(cp); err != nil {
					return nil, fmt.Errorf("resuming simulated feed: %w", err)
				}
			}
			fmt.Fprintf(os.Stderr, "live: simulated feed of %d change events\n", cube.NumChanges())
			return stream, nil
		}}, loaded
	default:
		f, err := os.Open(source)
		if err != nil {
			log.Fatal(err)
		}
		var js *ingest.JSONLSource
		if loaded != nil {
			// Resume re-reads and checksums the line before the checkpoint:
			// a truncated or rewritten feed fails loudly instead of
			// double-applying or skipping events.
			if js, err = ingest.ResumeJSONL(f, loaded.Checkpoint); err != nil {
				loaded = discardLoaded(es, err)
				// A failed resume leaves the file mid-seek; rewind for the
				// cold read.
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					log.Fatal(err)
				}
			}
		}
		if js == nil {
			js = ingest.NewJSONLSource(f)
		}
		if *follow {
			js.Follow(0)
		}
		fmt.Fprintf(os.Stderr, "live: reading events from %s (follow=%v)\n", source, *follow)
		return js, loaded
	}
}

// wireFeed wires the ingest stats and lag source into srv and returns the
// function that builds the ingest manager over src. st is the staging
// buffer, nil when loaded is set: it is rebuilt from the loaded epoch.
func wireFeed(srv *staleserve.Server, src ingest.Source, st *ingest.Staging, loaded *epochstore.LoadResult, es *epochstore.Store, scorer *quality.Scorer, cfg core.Config) func() (*ingest.Manager, error) {
	mcfg := ingest.Config{
		Train:            cfg,
		RetrainInterval:  *retrainEvery,
		RetrainChanges:   *retrainChanges,
		Incremental:      *retrainInc,
		FullRebuildEvery: *retrainFull,
	}
	// The manager is built on the feed goroutine: a store boot still has
	// to rebuild the staging buffer (grouping every change by field, tens
	// of milliseconds on big corpora), and that must not delay the
	// listener. Handlers reach the
	// manager through the atomic pointer, which stays nil until then — so
	// every closure is wired before serve, and nothing races.
	var mgrPtr atomic.Pointer[ingest.Manager]
	srv.SetIngestStats(func() any {
		mgr := mgrPtr.Load()
		if mgr == nil {
			return ingest.Stats{} // feed still starting up
		}
		return mgr.Stats()
	})
	srv.SetLagSource(func() float64 {
		mgr := mgrPtr.Load()
		if mgr == nil {
			return 0
		}
		return mgr.FeedLag()
	})
	return func() (*ingest.Manager, error) {
		if loaded != nil {
			var err error
			if st, err = loaded.Staging(); err != nil {
				return nil, fmt.Errorf("rebuilding staging from epoch %d: %w", loaded.Record.Seq, err)
			}
		}
		mgr := ingest.NewManager(src, st, srv.Swap, mcfg)
		if scorer != nil {
			// Every applied batch feeds the scorer: a change event for a
			// pending alert within its horizon confirms it; the advancing
			// event-time watermark expires the rest.
			mgr.SetEventObserver(func(events []ingest.Event) {
				for _, ev := range events {
					scorer.Observe(ev.Page, ev.Property, int32(timeline.DayOfUnix(ev.Time)))
				}
			})
		}
		if es != nil {
			// Persist every epoch the manager swaps in. Snapshot errors are
			// logged and counted by the store; serving continues regardless.
			mgr.SetPostSwap(func(ctx context.Context, det *core.Detector, cp ingest.Checkpoint) {
				_, _ = es.Snapshot(ctx, det, cp)
			})
		}
		mgrPtr.Store(mgr)
		return mgr, nil
	}
}

// lazyStream builds the simulated feed on first use, on the manager's
// consume goroutine — keeping multi-second corpus generation off the
// boot path so a -store restart serves within milliseconds. Next and
// Position are only ever called from that one goroutine; the sync.Once
// guards the Position-before-Next ordering, not cross-goroutine use.
type lazyStream struct {
	once  sync.Once
	build func() (*ingest.Stream, error)
	src   *ingest.Stream
	err   error
}

func (l *lazyStream) init() { l.once.Do(func() { l.src, l.err = l.build() }) }

func (l *lazyStream) Next(ctx context.Context) ([]ingest.Event, error) {
	l.init()
	if l.err != nil {
		return nil, l.err
	}
	return l.src.Next(ctx)
}

func (l *lazyStream) Position() ingest.SourcePosition {
	l.init()
	if l.err != nil {
		return ingest.SourcePosition{}
	}
	return l.src.Position()
}

// discardLoaded handles a persisted checkpoint that no longer matches the
// feed (file truncated or rewritten, or the source kind changed): the
// loaded epoch is dropped and the process cold-starts from the feed's
// beginning rather than serve a model whose history cannot be extended
// consistently.
func discardLoaded(es *epochstore.Store, err error) *epochstore.LoadResult {
	fmt.Fprintf(os.Stderr, "live: stored checkpoint does not match the feed (%v); cold-starting\n", err)
	es.RecordRecovery("resume_mismatch")
	return nil
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains. In live
// mode startFeed builds the ingest manager on a background goroutine —
// after the listener is already up, so slow feed setup (staging rebuild,
// corpus generation) never delays readiness — and its manager is then run
// until the context ends.
func serve(s *staleserve.Server, addr string, drain time.Duration, startFeed func() (*ingest.Manager, error)) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Keep the wikistale_go_* runtime gauges fresh between scrapes.
	s.StartRuntimeSampler()
	defer s.StopRuntimeSampler()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if startFeed != nil {
		go func() {
			mgr, err := startFeed()
			if err != nil {
				// Serving continues on whatever detector is installed; only
				// the feed is lost.
				log.Printf("ingest disabled: %v", err)
				return
			}
			if err := mgr.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("ingest stopped: %v", err)
				return
			}
			stats := mgr.Stats()
			if stats.SourceDone {
				fmt.Fprintf(os.Stderr, "live: feed ended after %d events; serving the final detector\n",
					stats.Staging.Events)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "listening on %s\n", addr)

	select {
	case err := <-errCh:
		// ListenAndServe only returns on failure here; Shutdown is what
		// produces ErrServerClosed, and that path goes through ctx.Done.
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		fmt.Fprintf(os.Stderr, "shutting down, draining for up to %v\n", drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		fmt.Fprintln(os.Stderr, "bye")
	}
}

// parseSimScale parses a "sim:scale=N" source spec.
func parseSimScale(source string) (int, error) {
	spec := strings.TrimPrefix(source, "sim:")
	val, ok := strings.CutPrefix(spec, "scale=")
	if !ok {
		return 0, fmt.Errorf(`-source %q: expected "sim:scale=N"`, source)
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("-source %q: scale must be a positive integer", source)
	}
	return n, nil
}

// parseByteSize parses "512MiB"-style sizes (binary units) or plain bytes.
func parseByteSize(s string) (int64, error) {
	mult := int64(1)
	num := s
	for suffix, m := range map[string]int64{
		"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "TiB": 1 << 40,
	} {
		if v, ok := strings.CutSuffix(s, suffix); ok {
			num, mult = v, m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("cannot parse %q (want e.g. 4GiB, 512MiB, or bytes)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("%q overflows a 64-bit byte count", s)
	}
	return n * mult, nil
}

func readCube(path string) *changecube.Cube {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	cube, err := changecube.ReadBinary(f)
	if err != nil {
		log.Fatalf("reading %s: %v", path, err)
	}
	return cube
}
