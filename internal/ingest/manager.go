package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/ring"
	"github.com/wikistale/wikistale/internal/obs/trace"
)

// batchBuckets sizes the batch-size histogram (events per source batch).
var batchBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Config tunes the manager's retrain loop.
type Config struct {
	// Train is the detector configuration every retrain uses.
	Train core.Config
	// RetrainInterval retrains at most this often on wall-clock time while
	// new changes are pending (0 disables the time trigger).
	RetrainInterval time.Duration
	// RetrainChanges triggers a retrain once this many events accumulated
	// since the last one (0 disables the count trigger).
	RetrainChanges int
	// Incremental passes the last successful detector to every retrain,
	// so each model stage reuses its work for what the new snapshot left
	// unchanged: correlation rules per page, association rules per
	// template, seasonal anchors and thresholds per field, family
	// correlations per family (bit-identical to a cold retrain; see
	// core.TrainHints). False forces a full rebuild of every stage on
	// every retrain.
	Incremental bool
	// FullRebuildEvery forces a full rebuild of every stage after this
	// many consecutive incremental retrains, so a periodic retrain
	// re-checks reuse against a cold build (0 never forces one).
	FullRebuildEvery int
}

// DefaultConfig retrains every 15 seconds or 5000 changes, whichever comes
// first, incrementally with a forced full rebuild every 32 retrains, with
// the paper's training configuration.
func DefaultConfig() Config {
	return Config{
		Train:            core.DefaultConfig(),
		RetrainInterval:  15 * time.Second,
		RetrainChanges:   5000,
		Incremental:      true,
		FullRebuildEvery: 32,
	}
}

// recentRetrainCap bounds the retrain history kept in Stats — enough for
// /statusz to show the last few minutes of a busy loop.
const recentRetrainCap = 16

// RetrainRecord is one background retrain attempt, kept in a bounded
// history for /v1/ingest/stats and /statusz.
type RetrainRecord struct {
	Time    string  `json:"time"`
	Trigger string  `json:"trigger"` // "interval", "count", or "flush"
	Seconds float64 `json:"seconds"`
	// Mode is "incremental" or "full" on success, empty on failure.
	Mode           string `json:"mode,omitempty"`
	PagesReused    int    `json:"pages_reused,omitempty"`
	PagesRetrained int    `json:"pages_retrained,omitempty"`
	Error          string `json:"error,omitempty"`
	// TraceID links the attempt to its trace in /debug/traces while the
	// trace is still buffered.
	TraceID string `json:"trace_id,omitempty"`
}

// Stats is the manager's point-in-time summary, served on
// /v1/ingest/stats.
type Stats struct {
	Staging StagingStats `json:"staging"`
	// Batches is the number of source batches consumed.
	Batches uint64 `json:"batches"`
	// LastBatchEvents is the size of the most recent batch.
	LastBatchEvents int `json:"last_batch_events"`
	// LastEventTime is the timestamp of the newest event seen (RFC 3339);
	// it never moves backwards when a batch of older events arrives.
	LastEventTime string `json:"last_event_time,omitempty"`
	// FeedLagSeconds is the wall-clock age of the newest event — large on
	// historical replays, near zero on a live feed.
	FeedLagSeconds float64 `json:"feed_lag_seconds"`
	// PendingChanges counts events appended since the last retrain began.
	PendingChanges uint64 `json:"pending_changes"`
	// Retrains and RetrainErrors count background training runs.
	Retrains      uint64 `json:"retrains"`
	RetrainErrors uint64 `json:"retrain_errors"`
	// Swaps counts detectors handed to the swap callback.
	Swaps uint64 `json:"swaps"`
	// LastRetrainSeconds is the duration of the last successful retrain.
	LastRetrainSeconds float64 `json:"last_retrain_seconds,omitempty"`
	// RetrainsIncremental and RetrainsFull break successful retrains down
	// by correlation-training mode; full counts cold starts, forced
	// rebuilds, and every retrain when Config.Incremental is off.
	RetrainsIncremental uint64 `json:"retrains_incremental,omitempty"`
	RetrainsFull        uint64 `json:"retrains_full,omitempty"`
	// LastRetrainPagesReused / LastRetrainPagesRetrained is the page
	// accounting of the most recent successful retrain.
	LastRetrainPagesReused    int `json:"last_retrain_pages_reused,omitempty"`
	LastRetrainPagesRetrained int `json:"last_retrain_pages_retrained,omitempty"`
	// RetrainDeferrals counts the times the change-count trigger was held
	// back by the retrain limit (see Manager.Run), and
	// RetrainDeferredSeconds sums how long each hold lasted, from when the
	// trigger first wanted to fire to when its retrain started.
	RetrainDeferrals       uint64  `json:"retrain_deferrals"`
	RetrainDeferredSeconds float64 `json:"retrain_deferred_seconds"`
	// LastError is the most recent retrain failure ("span too short" until
	// a cold start has accumulated enough history).
	LastError string `json:"last_error,omitempty"`
	// SourceDone reports that the feed ended (io.EOF); the serving layer
	// stays up on the final model.
	SourceDone bool `json:"source_done"`
	// Drift is the feed drift watch summary (EWMAs + raised flags).
	Drift DriftStats `json:"drift"`
	// RecentRetrains is the bounded history of retrain attempts, newest
	// first.
	RecentRetrains []RetrainRecord `json:"recent_retrains,omitempty"`
}

// Manager runs the online loop: consume batches from a Source into a
// Staging buffer, retrain in the background when the time or change-count
// trigger fires, and hand every fresh detector to the swap callback.
// Appends never wait for training: retrains run on a snapshot in a
// separate goroutine, one at a time.
type Manager struct {
	src  Source
	pos  Positioned // src, when it can report positions; nil otherwise
	st   *Staging
	cfg  Config
	swap func(*core.Detector)

	// postSwap, when set, runs after every successful swap with the fresh
	// detector and the staging checkpoint matching its training snapshot —
	// the epoch store's persistence hook. It runs on the retrain goroutine
	// (never the consume loop), so a slow disk stalls snapshots, not
	// ingestion.
	postSwap func(ctx context.Context, det *core.Detector, cp Checkpoint)

	// eventObserver, when set, sees every applied batch after it is staged
	// — the quality scorer's live-outcome feed. It runs on the consume
	// goroutine, so it must be fast and must never block on the serving
	// layer.
	eventObserver func(events []Event)

	// drift is the feed drift watch; always non-nil.
	drift *DriftWatch

	pending   atomic.Uint64 // events since the last retrain started
	retrainMu sync.Mutex    // held for the duration of one retrain
	wg        sync.WaitGroup

	// The count trigger's retrain limit. now is its clock (time.Now; a
	// test seam). notBefore (Unix nanoseconds) is the earliest the count
	// trigger may start the next retrain: as long after the last
	// background retrain that produced a detector ended as that retrain
	// took; the retrain goroutine sets it. deferredSince is when the
	// trigger first wanted to fire during the current hold (zero when
	// none); only the consume loop touches it.
	now           func() time.Time
	notBefore     atomic.Int64
	deferredSince time.Time

	// Incremental-retraining state, guarded by retrainMu: the last
	// successfully trained detector, or before the first retrain the
	// epoch detector the staging was booted from (rule-reuse source; the
	// retrain delta is derived from its histories), and the count of
	// incremental retrains since the last full rebuild.
	lastGood  *core.Detector
	sinceFull int

	mu    sync.Mutex
	stats Stats
	// retrains is the bounded history behind Stats().RecentRetrains;
	// pushed under mu so it always agrees with the stats counters.
	retrains *ring.Ring[RetrainRecord]
	// newestEvent is the newest event time applied so far (Unix seconds;
	// meaningful once stats.Batches > 0). It only moves forward, so a
	// batch of older events never makes the feed lag jump up.
	newestEvent int64

	logger *slog.Logger

	eventsTotal    *obs.Counter
	batchesTotal   *obs.Counter
	batchSize      *obs.Histogram
	feedLag        *obs.Gauge
	stagedChanges  *obs.Gauge
	retrainSeconds *obs.Histogram
	retrainsTotal  *obs.Counter
	retrainErrors  *obs.Counter
	deferrals      *obs.Counter
	deferredSecs   *obs.Gauge
}

// NewManager wires a source and staging buffer to a swap callback. The
// callback receives every freshly trained detector; it must be safe to
// call from a background goroutine (staleserve's epoch swap is). A
// staging built by NewStagingFromEpoch hands over its epoch's detector,
// which the first retrain reuses as if it had trained it.
func NewManager(src Source, st *Staging, swap func(*core.Detector), cfg Config) *Manager {
	reg := obs.Default
	reg.SetHelp("wikistale_ingest_events_total", "Change events consumed from the live feed.")
	reg.SetHelp("wikistale_ingest_batches_total", "Source batches consumed from the live feed.")
	reg.SetHelp("wikistale_ingest_batch_events", "Events per consumed source batch.")
	reg.SetHelp("wikistale_ingest_lag_seconds", "Wall-clock age of the newest ingested event (now minus newest applied event time).")
	reg.SetHelp("wikistale_ingest_staged_changes", "Raw changes in the staging cube.")
	reg.SetHelp("wikistale_ingest_retrain_seconds", "Background retrain duration (snapshot + train).")
	reg.SetHelp("wikistale_ingest_retrains_total", "Background retrains that produced a detector.")
	reg.SetHelp("wikistale_ingest_retrain_errors_total", "Background retrains that failed.")
	reg.SetHelp("wikistale_ingest_retrain_deferrals_total", "Times the change-count trigger was held back because the previous retrain ended less than its own duration ago.")
	reg.SetHelp("wikistale_ingest_retrain_deferred_seconds_total", "Total time count-triggered retrains were held back, from when the trigger first wanted to fire to when the retrain started (only ever added to).")
	positioned, _ := src.(Positioned)
	return &Manager{
		src:            src,
		pos:            positioned,
		st:             st,
		cfg:            cfg,
		swap:           swap,
		lastGood:       st.takeSeed(),
		drift:          NewDriftWatch(),
		retrains:       ring.New[RetrainRecord](recentRetrainCap),
		logger:         slog.Default(),
		eventsTotal:    reg.Counter("wikistale_ingest_events_total", nil),
		batchesTotal:   reg.Counter("wikistale_ingest_batches_total", nil),
		batchSize:      reg.Histogram("wikistale_ingest_batch_events", batchBuckets, nil),
		feedLag:        reg.Gauge("wikistale_ingest_lag_seconds", nil),
		stagedChanges:  reg.Gauge("wikistale_ingest_staged_changes", nil),
		retrainSeconds: reg.Histogram("wikistale_ingest_retrain_seconds", obs.DurationBuckets, nil),
		retrainsTotal:  reg.Counter("wikistale_ingest_retrains_total", nil),
		retrainErrors:  reg.Counter("wikistale_ingest_retrain_errors_total", nil),
		deferrals:      reg.Counter("wikistale_ingest_retrain_deferrals_total", nil),
		deferredSecs:   reg.Gauge("wikistale_ingest_retrain_deferred_seconds_total", nil),
		now:            time.Now,
	}
}

// SetLogger replaces the structured logger (default: slog.Default() at
// construction).
func (m *Manager) SetLogger(l *slog.Logger) {
	if l != nil {
		m.logger = l
	}
}

// SetPostSwap installs the post-swap hook. Call before Run.
func (m *Manager) SetPostSwap(fn func(ctx context.Context, det *core.Detector, cp Checkpoint)) {
	m.postSwap = fn
}

// SetEventObserver installs the applied-batch observer (the quality
// scorer's live feed). Call before Run; it runs on the consume
// goroutine after each batch is staged.
func (m *Manager) SetEventObserver(fn func(events []Event)) {
	m.eventObserver = fn
}

// Drift returns the feed drift watch (for tests and direct inspection;
// its summary also rides in Stats).
func (m *Manager) Drift() *DriftWatch { return m.drift }

// Stats returns the manager's current summary.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.RecentRetrains = m.retrains.Newest()
	if s.Batches > 0 {
		newest := time.Unix(m.newestEvent, 0)
		s.LastEventTime = newest.UTC().Format(time.RFC3339)
		s.FeedLagSeconds = time.Since(newest).Seconds()
	}
	s.Staging = m.st.Stats()
	s.PendingChanges = m.pending.Load()
	s.Drift = m.drift.Stats()
	return s
}

// FeedLag returns the wall-clock age in seconds of the newest event the
// manager has applied — the data-freshness number the serving layer puts
// next to its SLO burn rates (staleserve.SetLagSource). Recomputed from
// the newest event time so it keeps growing while the feed is silent;
// zero before any event has arrived.
func (m *Manager) FeedLag() float64 {
	m.mu.Lock()
	seen, newest := m.stats.Batches > 0, m.newestEvent
	m.mu.Unlock()
	if !seen {
		return 0
	}
	return time.Since(time.Unix(newest, 0)).Seconds()
}

// Run consumes the feed until it ends (io.EOF, returning nil after one
// final flush retrain) or ctx is cancelled (returning ctx.Err after
// waiting for any in-flight retrain). A time trigger runs alongside so a
// trickling feed still retrains on schedule.
//
// The change-count trigger is limited to half of one core: after a
// background retrain that produced a detector, it does not fire again
// until as long after that retrain ended as the retrain took. During a
// catch-up it would otherwise start the next retrain the moment the last
// one ends, so retraining and ingestion would each keep a core busy and
// a request would wait for the scheduler to poll the network. Pending
// changes keep accumulating meanwhile, and the first batch after the
// limit starts the retrain. A failed retrain sets no limit (a cold start
// fails until the corpus spans enough days), and neither the interval
// trigger nor the EOF flush is limited.
func (m *Manager) Run(ctx context.Context) error {
	defer m.wg.Wait()
	if m.cfg.RetrainInterval > 0 {
		tickCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			ticker := time.NewTicker(m.cfg.RetrainInterval)
			defer ticker.Stop()
			for {
				select {
				case <-tickCtx.Done():
					return
				case <-ticker.C:
					if m.pending.Load() > 0 {
						m.tryRetrain("interval")
					}
				}
			}
		}()
	}
	for {
		events, err := m.src.Next(ctx)
		if len(events) > 0 {
			if aerr := m.consume(events); aerr != nil {
				return aerr
			}
			// A catch-up reads batches back to back without blocking.
			// The yield puts this goroutine behind every runnable one,
			// so a request handler that is ready gets the core between
			// batches. It does not poll the network: a connection that
			// became readable still waits for the scheduler's next poll.
			// On the benchmark's backfill workload (2 vCPUs, retrain
			// limit in force), dropping it raised the dashboard's p75
			// from 0.86-0.98 ms to 1.7-2.3 ms over four seeds.
			runtime.Gosched()
		}
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			m.mu.Lock()
			m.stats.SourceDone = true
			m.mu.Unlock()
			// Final flush: fold everything still pending into one last
			// detector before reporting the feed done.
			if m.pending.Load() > 0 {
				m.endDeferral()
				m.retrain("flush")
			}
			return nil
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return ctx.Err()
		default:
			return fmt.Errorf("ingest: source: %w", err)
		}
		if n := m.cfg.RetrainChanges; n > 0 {
			m.countTrigger(uint64(n))
		}
	}
}

// countTrigger starts a count-triggered retrain once n changes are
// pending and the retrain limit has passed (see Run), counting the time
// it spends held back by the limit. It runs on the consume loop only.
func (m *Manager) countTrigger(n uint64) {
	if m.pending.Load() < n {
		// Not due, or the interval trigger took the changes during a hold.
		m.endDeferral()
		return
	}
	if now := m.now(); now.UnixNano() < m.notBefore.Load() {
		if m.deferredSince.IsZero() {
			m.deferredSince = now
			m.deferrals.Inc()
			m.mu.Lock()
			m.stats.RetrainDeferrals++
			m.mu.Unlock()
		}
		return
	}
	m.endDeferral()
	m.tryRetrain("count")
}

// endDeferral closes the count trigger's current hold, if any, adding
// its length to the deferred-time total.
func (m *Manager) endDeferral() {
	if m.deferredSince.IsZero() {
		return
	}
	held := m.now().Sub(m.deferredSince).Seconds()
	m.deferredSince = time.Time{}
	m.deferredSecs.Add(held)
	m.mu.Lock()
	m.stats.RetrainDeferredSeconds += held
	m.mu.Unlock()
}

// consume appends one batch and updates metrics and stats. The source
// position after the batch is recorded with it (same staging mutex), so
// any snapshot pairs the data with the cursor that produced it. Its cost
// is O(batch): the one staging lock returns every count the gauges and
// the drift watch need.
func (m *Manager) consume(events []Event) error {
	var pos *SourcePosition
	if m.pos != nil {
		p := m.pos.Position()
		pos = &p
	}
	res, err := m.st.appendAt(events, pos)
	if err != nil {
		return err
	}
	m.drift.Batch(events, res.newEntities, res.newProperties, time.Now())
	m.pending.Add(uint64(len(events)))
	m.eventsTotal.Add(uint64(len(events)))
	m.batchesTotal.Inc()
	m.batchSize.Observe(float64(len(events)))
	newest := events[0].Time
	for _, ev := range events[1:] {
		if ev.Time > newest {
			newest = ev.Time
		}
	}
	m.mu.Lock()
	if m.stats.Batches == 0 || newest > m.newestEvent {
		m.newestEvent = newest
	}
	newest = m.newestEvent
	m.stats.Batches++
	m.stats.LastBatchEvents = len(events)
	m.mu.Unlock()
	lag := time.Since(time.Unix(newest, 0)).Seconds()
	m.feedLag.Set(lag)
	m.stagedChanges.Set(float64(res.changes))
	m.logger.Debug("batch applied",
		"events", len(events), "fields_touched", res.touched,
		"pending", m.pending.Load(), "lag_seconds", lag)
	if m.eventObserver != nil {
		m.eventObserver(events)
	}
	return nil
}

// tryRetrain starts a background retrain unless one is already running —
// the triggers re-fire, so a skipped attempt is never lost. A retrain that
// produces a detector sets the count trigger's limit, timed over the
// whole job, post-swap hook included.
func (m *Manager) tryRetrain(trigger string) {
	if !m.retrainMu.TryLock() {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.retrainMu.Unlock()
		start := m.now()
		if m.retrainLocked(trigger) {
			end := m.now()
			m.notBefore.Store(end.Add(end.Sub(start)).UnixNano())
		}
	}()
}

// retrain runs one synchronous retrain (used for the EOF flush).
func (m *Manager) retrain(trigger string) {
	m.retrainMu.Lock()
	defer m.retrainMu.Unlock()
	m.retrainLocked(trigger)
}

// retrainLocked snapshots, trains, and swaps under a fresh root trace, so
// /debug/traces shows the trigger and the filter/train stage breakdown of
// every retrain, and reports whether it produced a detector. Caller holds
// retrainMu.
func (m *Manager) retrainLocked(trigger string) bool {
	m.pending.Store(0)
	ctx, root := trace.StartIn(trace.Default, context.Background(), "retrain")
	root.SetAttr("trigger", trigger)
	start := time.Now()
	det, err := m.train(ctx)
	elapsed := time.Since(start)
	rec := RetrainRecord{
		Time:    start.UTC().Format(time.RFC3339),
		Trigger: trigger,
		Seconds: elapsed.Seconds(),
		TraceID: root.TraceID(),
	}
	if err != nil {
		root.SetAttr("error", err.Error())
		root.End()
		rec.Error = err.Error()
		m.retrainErrors.Inc()
		m.mu.Lock()
		m.stats.RetrainErrors++
		m.stats.LastError = err.Error()
		m.retrains.Push(rec)
		m.mu.Unlock()
		m.logger.LogAttrs(ctx, slog.LevelWarn, "retrain failed",
			slog.String("trigger", trigger),
			slog.Duration("elapsed", elapsed),
			slog.String("error", err.Error()))
		return false
	}
	inc := det.CorrelationRetrain()
	rec.Mode = "full"
	if !inc.Full {
		rec.Mode = "incremental"
	}
	rec.PagesReused = inc.PagesReused
	rec.PagesRetrained = inc.PagesRetrained
	root.SetAttr("mode", rec.Mode)
	root.End()
	m.retrainSeconds.Observe(elapsed.Seconds())
	m.retrainsTotal.Inc()
	m.mu.Lock()
	m.stats.Retrains++
	m.stats.LastRetrainSeconds = elapsed.Seconds()
	m.stats.LastError = ""
	if inc.Full {
		m.stats.RetrainsFull++
	} else {
		m.stats.RetrainsIncremental++
	}
	m.stats.LastRetrainPagesReused = rec.PagesReused
	m.stats.LastRetrainPagesRetrained = rec.PagesRetrained
	m.retrains.Push(rec)
	m.mu.Unlock()
	m.logger.LogAttrs(ctx, slog.LevelInfo, "retrain done",
		slog.String("trigger", trigger),
		slog.Duration("elapsed", elapsed),
		slog.String("mode", rec.Mode),
		slog.Int("pages_reused", rec.PagesReused),
		slog.Int("pages_retrained", rec.PagesRetrained))
	if m.swap != nil {
		m.swap(det)
		m.mu.Lock()
		m.stats.Swaps++
		m.mu.Unlock()
		m.logger.LogAttrs(ctx, slog.LevelDebug, "detector handed to swap",
			slog.String("trigger", trigger))
	}
	if m.postSwap != nil {
		// SnapshotCheckpoint still reflects this retrain's snapshot:
		// retrainMu serializes retrains, and appends only move the live
		// cursor, not the snapshot capture.
		m.postSwap(ctx, det, m.st.SnapshotCheckpoint())
	}
	return true
}

// train builds a detector from the current staging snapshot with the last
// good detector as Prev, so every stage reuses what the snapshot left
// unchanged since it; with Config.Incremental off, or every
// FullRebuildEvery retrains, ForceFull rebuilds every stage. A failed
// attempt keeps lastGood, so the next delta still spans everything since
// it. Caller holds retrainMu.
func (m *Manager) train(ctx context.Context) (*core.Detector, error) {
	ctx, span := obs.StartSpanCtx(ctx, "ingest/retrain")
	defer span.End()
	hs, stats, err := m.st.Snapshot()
	if err != nil {
		return nil, err
	}
	forceFull := !m.cfg.Incremental ||
		(m.cfg.FullRebuildEvery > 0 && m.sinceFull >= m.cfg.FullRebuildEvery)
	det, err := core.TrainFilteredHintedCtx(ctx, hs, stats, m.cfg.Train, core.TrainHints{
		Prev:      m.lastGood,
		ForceFull: forceFull,
	})
	if err != nil {
		return nil, err
	}
	m.lastGood = det
	if det.CorrelationRetrain().Full {
		m.sinceFull = 0
	} else {
		m.sinceFull++
	}
	return det, nil
}
