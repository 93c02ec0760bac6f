package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs/olog"
	"github.com/wikistale/wikistale/internal/obs/quality"
	"github.com/wikistale/wikistale/internal/staleserve"
	"github.com/wikistale/wikistale/internal/timeline"
)

// inproc is staleserve's live wiring (epoch store → server → JSONL feed →
// ingest manager, as cmd/staleserve -live -store builds it) running inside
// the benchmark, with a span around every call the benchmark makes into a
// layer. Traced runs use it instead of a child process.
type inproc struct {
	srv   *staleserve.Server
	es    *epochstore.Store
	spans *spanLog
	start time.Time

	mgr     atomic.Pointer[ingest.Manager]
	current atomic.Pointer[core.Detector] // the detector most recently swapped in
	cancel  context.CancelFunc
	feedErr chan error // the feed goroutine's result; buffered for its one send
	feed    *os.File

	mu      sync.Mutex
	replays []replay
	reuse   reuseTotals
	keys    map[*core.Detector]map[fieldName]changecube.FieldKey
}

// replay is detector work the server did inside a request, re-run on the
// same key after the measured phase to time it.
type replay struct {
	parent uint64 // the request's handler span
	req    int64
	c      *call
	det    *core.Detector
}

// reuseTotals sums the incremental trainers' reuse counters over retrains.
type reuseTotals struct {
	pagesReused, pagesTotal         int
	templatesReused, templatesTotal int
	familiesReused, familiesTotal   int
	seasonalFields, thresholdFields int
}

// bootInproc opens the epoch store at store, boots from its newest epoch
// when it has one, and starts consuming the feed.
func bootInproc(ctx context.Context, feedPath, store string, follow bool, spans *spanLog, logw io.Writer) (*inproc, error) {
	// cmd/staleserve logs through olog at info level; the manager and the
	// store capture slog.Default at construction, so set it first.
	logger, err := olog.Setup(logw, "info", "text")
	if err != nil {
		return nil, err
	}
	p := &inproc{spans: spans, start: time.Now(), feedErr: make(chan error, 1),
		keys: map[*core.Detector]map[fieldName]changecube.FieldKey{}}
	cfg := core.DefaultConfig()
	if p.es, err = epochstore.Open(epochstore.Options{Dir: store, Retain: epochstore.DefaultRetain}); err != nil {
		return nil, err
	}
	var loaded *epochstore.LoadResult
	spans.timed("epochstore.load", func() { loaded, err = p.es.LoadLatest(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	if loaded.Outcome == "cold" {
		loaded = nil
	}
	if p.feed, err = os.Open(feedPath); err != nil {
		return nil, err
	}
	var js *ingest.JSONLSource
	if loaded != nil {
		if js, err = ingest.ResumeJSONL(p.feed, loaded.Checkpoint); err != nil {
			p.feed.Close()
			return nil, err
		}
	} else {
		js = ingest.NewJSONLSource(p.feed)
	}
	if follow {
		js.Follow(0)
	}

	p.srv = staleserve.NewLive()
	p.srv.SetLogger(slog.New(&outcomeHandler{inner: logger.Handler()}))
	scorer := quality.New(quality.DefaultHorizonDays)
	if loaded != nil && len(loaded.Quality) > 0 {
		if err := scorer.Restore(loaded.Quality); err != nil {
			logger.Warn("quality state unusable; scoring starts fresh", "epoch", loaded.Record.Seq, "error", err)
		}
	}
	p.srv.SetQualityScorer(scorer)
	p.es.SetQualitySource(scorer.MarshalBinary)
	p.srv.SetIngestStats(func() any {
		if m := p.mgr.Load(); m != nil {
			return m.Stats()
		}
		return ingest.Stats{}
	})
	p.srv.SetLagSource(func() float64 {
		if m := p.mgr.Load(); m != nil {
			return m.FeedLag()
		}
		return 0
	})
	p.srv.SetStoreStats(func() any { return p.es.Stats() })
	if loaded != nil {
		p.swap(loaded.Detector)
		p.es.RecordRecovery(loaded.Outcome)
	}
	p.srv.StartRuntimeSampler()

	fctx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	go func() {
		p.feedErr <- p.runFeed(fctx, js, loaded, cfg, scorer)
	}()
	return p, nil
}

// runFeed builds the staging buffer and runs the ingest manager until the
// feed ends or the context is cancelled.
func (p *inproc) runFeed(ctx context.Context, js *ingest.JSONLSource, loaded *epochstore.LoadResult, cfg core.Config, scorer *quality.Scorer) error {
	var st *ingest.Staging
	var err error
	if loaded != nil {
		p.spans.timed("ingest.staging_rebuild", func() { st, err = loaded.Staging() })
	} else {
		st, err = ingest.NewStaging(cfg.Filter)
	}
	if err != nil {
		return err
	}
	runID := p.spans.newID()
	src := &tracedSource{src: js, spans: p.spans, parent: runID}
	mgr := ingest.NewManager(src, st, p.swap, liveConfig(cfg))
	mgr.SetEventObserver(func(events []ingest.Event) {
		for _, ev := range events {
			scorer.Observe(ev.Page, ev.Property, int32(timeline.DayOfUnix(ev.Time)))
		}
	})
	mgr.SetPostSwap(func(ctx context.Context, det *core.Detector, cp ingest.Checkpoint) {
		p.spans.timed("epochstore.snapshot", func() { _, _ = p.es.Snapshot(ctx, det, cp) })
	})
	p.mgr.Store(mgr)
	start := time.Now()
	err = mgr.Run(ctx)
	p.spans.add(span{ID: runID, Name: "ingest.run", Start: start, End: time.Now()})
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// liveConfig is the manager configuration cmd/staleserve -live builds
// from its default flags (TestInprocMatchesCommand checks them).
func liveConfig(train core.Config) ingest.Config {
	return ingest.Config{
		Train:            train,
		RetrainInterval:  15 * time.Second, // -retrain-every
		RetrainChanges:   5000,             // -retrain-changes
		Incremental:      true,             // -retrain-incremental
		FullRebuildEvery: 32,               // -retrain-full-every
	}
}

// swap is the manager's swap callback: it installs det and records the
// swap plus the training stages det reports.
func (p *inproc) swap(det *core.Detector) {
	t0 := time.Now()
	p.srv.Swap(det)
	t1 := time.Now()
	p.current.Store(det)
	p.spans.add(span{Name: "staleserve.swap", Start: t0, End: t1})
	rep := det.TrainReport()
	if rep.Total <= 0 {
		return // loaded from the store, not trained
	}
	// Training ended just before the swap; its stages ran back to back.
	start := t0.Add(-rep.Total)
	id := p.spans.add(span{Name: "core.train", Start: start, End: t0, Attrs: map[string]any{"reconstructed": true}})
	at := start
	for _, st := range rep.Stages {
		p.spans.add(span{Parent: id, Name: "core." + strings.ReplaceAll(st.Name, "/", "."), Start: at, End: at.Add(st.Duration)})
		at = at.Add(st.Duration)
	}
	corr, assoc, fam := det.CorrelationRetrain(), det.AssocRetrain(), det.FamilyRetrain()
	p.mu.Lock()
	p.reuse.pagesReused += corr.PagesReused
	p.reuse.pagesTotal += corr.PagesTotal
	p.reuse.templatesReused += assoc.TemplatesReused
	p.reuse.templatesTotal += assoc.TemplatesTotal
	p.reuse.familiesReused += fam.FamiliesReused
	p.reuse.familiesTotal += fam.FamiliesTotal
	p.reuse.seasonalFields += det.SeasonalRetrain().FieldsRecomputed
	p.reuse.thresholdFields += det.ThresholdRetrain().FieldsRecomputed
	p.mu.Unlock()
}

func (p *inproc) get(path string) (int, []byte, error) {
	status, body := serveLocal(p.srv, path)
	return status, body, nil
}

func (p *inproc) since() time.Duration { return time.Since(p.start) }

// do serves a load request through the handler and records its span. A
// request that computed alerts (cache miss) or an explanation is queued
// for a replay of that work once the phase is over.
func (p *inproc) do() doFunc {
	h := p.srv.Handler()
	return func(i int, c *call, parent uint64, keep bool) (int, []byte, error) {
		note := &requestNote{}
		req := httptest.NewRequest("GET", c.path, nil)
		req = req.WithContext(context.WithValue(req.Context(), noteKey{}, note))
		rec := httptest.NewRecorder()
		det := p.current.Load()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		id := p.spans.add(span{Parent: parent, Req: int64(i) + 1, Name: "staleserve." + c.route, Start: start, End: end,
			Attrs: map[string]any{"cache": note.cache}})
		if c.route == "explain" || note.cache == "miss" {
			p.mu.Lock()
			p.replays = append(p.replays, replay{parent: id, req: int64(i) + 1, c: c, det: det})
			p.mu.Unlock()
		}
		var body []byte
		if keep {
			body = rec.Body.Bytes()
		}
		return rec.Code, body, nil
	}
}

// replayAll re-runs the queued detector work, one span per request, each
// a replayed child of the request's handler span.
func (p *inproc) replayAll() {
	p.mu.Lock()
	replays := p.replays
	p.replays = nil
	p.mu.Unlock()
	for _, r := range replays {
		asOf, window := r.c.asOf, r.c.window
		if asOf == 0 {
			asOf = r.det.Histories().Span().End
		}
		if window == 0 {
			window = 7
		}
		start := time.Now()
		name := "core.detect_stale"
		if r.c.route == "explain" {
			name = "core.explain"
			fk, ok := p.fieldKey(r.det, r.c.field)
			if !ok {
				continue
			}
			r.det.Explain(fk, asOf, window)
		} else {
			r.det.DetectStale(asOf, window)
		}
		p.spans.add(span{Parent: r.parent, Req: r.req, Name: name, Start: start, End: time.Now(), Replayed: true})
	}
}

// fieldKey resolves a (page, property) pair to the detector's field the
// way the server's field index does: observed histories first, then
// history-less rule consequents, lowest entity first.
func (p *inproc) fieldKey(det *core.Detector, f fieldName) (changecube.FieldKey, bool) {
	m, ok := p.keys[det]
	if !ok {
		m = map[fieldName]changecube.FieldKey{}
		cube := det.Histories().Cube()
		addKey := func(fk changecube.FieldKey) {
			n := fieldName{cube.Pages.Name(int32(cube.Page(fk.Entity))), cube.Properties.Name(int32(fk.Property))}
			if _, dup := m[n]; !dup {
				m[n] = fk
			}
		}
		for _, h := range det.Histories().Histories() {
			addKey(h.Field)
		}
		for _, fk := range det.HistorylessConsequents() {
			addKey(fk)
		}
		p.keys[det] = m
	}
	fk, ok := m[f]
	return fk, ok
}

// finish times the detector work the run's requests did, and records the
// per-layer metrics from the spans and the manager's counters.
func (p *inproc) finish(_ context.Context, r *runner) error {
	p.replayAll()
	var stats ingest.Stats
	if m := p.mgr.Load(); m != nil {
		stats = m.Stats()
	}
	if err := p.stop(); err != nil {
		return err
	}
	r.layerMetrics(p, stats)
	return nil
}

// alive returns the feed goroutine's error once it has ended on its own.
func (p *inproc) alive() error {
	select {
	case err := <-p.feedErr:
		p.feedErr <- err // keep it for stop
		if err != nil {
			return fmt.Errorf("in-process feed: %w", err)
		}
	default:
	}
	return nil
}

// kill and stop end the feed goroutine and wait for it; in-process there
// is no difference between the two.
func (p *inproc) kill() { _ = p.stop() }

func (p *inproc) stop() error {
	p.cancel()
	err := <-p.feedErr
	p.srv.StopRuntimeSampler()
	p.feed.Close()
	p.feedErr <- err // a second stop returns the same result
	return err
}

// tracedSource wraps the feed: each Next call is an ingest.next span and
// the gap until the next call, where the manager consumes the batch, is an
// ingest.consume span.
type tracedSource struct {
	src      *ingest.JSONLSource
	spans    *spanLog
	parent   uint64
	lastDone time.Time
}

func (s *tracedSource) Next(ctx context.Context) ([]ingest.Event, error) {
	start := time.Now()
	if !s.lastDone.IsZero() {
		s.spans.add(span{Parent: s.parent, Name: "ingest.consume", Start: s.lastDone, End: start})
	}
	events, err := s.src.Next(ctx)
	s.lastDone = time.Now()
	if len(events) > 0 || err == nil {
		s.spans.add(span{Parent: s.parent, Name: "ingest.next", Start: start, End: s.lastDone,
			Attrs: map[string]any{"events": len(events)}})
	} else {
		s.lastDone = time.Time{} // nothing to consume after EOF or cancellation
	}
	return events, err
}

// Position passes the feed cursor through, so checkpoints still work.
func (s *tracedSource) Position() ingest.SourcePosition { return s.src.Position() }

// requestNote carries a request's alert-cache outcome from the server's
// request log line back to the benchmark.
type requestNote struct{ cache string }

type noteKey struct{}

// outcomeHandler is the server's log handler with one addition: it copies
// the "cache" attribute of each request log line into the request's note.
type outcomeHandler struct{ inner slog.Handler }

func (h *outcomeHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h *outcomeHandler) Handle(ctx context.Context, r slog.Record) error {
	if n, ok := ctx.Value(noteKey{}).(*requestNote); ok {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "cache" {
				n.cache = a.Value.String()
				return false
			}
			return true
		})
	}
	return h.inner.Handle(ctx, r)
}

func (h *outcomeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &outcomeHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *outcomeHandler) WithGroup(name string) slog.Handler {
	return &outcomeHandler{inner: h.inner.WithGroup(name)}
}
