package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
)

// swapRecorder captures every detector the manager hands to the serving
// layer.
type swapRecorder struct {
	mu   sync.Mutex
	dets []*core.Detector
}

func (r *swapRecorder) swap(d *core.Detector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dets = append(r.dets, d)
}

func (r *swapRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.dets)
}

func (r *swapRecorder) last() *core.Detector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.dets) == 0 {
		return nil
	}
	return r.dets[len(r.dets)-1]
}

// TestManagerEOFFlush: a finite replay must end with one synchronous
// final retrain so nothing pending is lost, then report the source done.
func TestManagerEOFFlush(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	cfg := Config{Train: core.DefaultConfig()} // no triggers: only the EOF flush
	m := NewManager(NewStream(cube), st, rec.swap, cfg)

	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("swaps = %d, want exactly the EOF flush", rec.count())
	}
	stats := m.Stats()
	if !stats.SourceDone {
		t.Fatal("SourceDone not reported")
	}
	if stats.Retrains != 1 || stats.Swaps != 1 {
		t.Fatalf("retrains = %d, swaps = %d, want 1/1", stats.Retrains, stats.Swaps)
	}
	if stats.PendingChanges != 0 {
		t.Fatalf("pending = %d after flush", stats.PendingChanges)
	}
	if stats.Staging.Changes != cube.NumChanges() {
		t.Fatalf("staged %d changes, corpus has %d", stats.Staging.Changes, cube.NumChanges())
	}
	if rec.last().Histories().Len() == 0 {
		t.Fatal("final detector has no fields")
	}
}

// TestManagerCountTrigger: the change-count trigger must fire mid-stream.
// Early attempts fail while the streamed span is still too short for the
// split protocol — those must surface as retrain errors, not crashes —
// and the run must still end with a working detector.
func TestManagerCountTrigger(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	cfg := Config{Train: core.DefaultConfig(), RetrainChanges: cube.NumChanges() / 4}
	m := NewManager(NewStream(cube), st, rec.swap, cfg)

	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats.Retrains+stats.RetrainErrors < 2 {
		t.Fatalf("count trigger never fired mid-stream: %d retrains, %d errors",
			stats.Retrains, stats.RetrainErrors)
	}
	if rec.count() == 0 || rec.last().Histories().Len() == 0 {
		t.Fatal("no usable final detector")
	}
	if uint64(rec.count()) != stats.Swaps {
		t.Fatalf("recorder saw %d swaps, stats claim %d", rec.count(), stats.Swaps)
	}
}

// errSource fails after one batch.
type errSource struct{ sent bool }

func (s *errSource) Next(ctx context.Context) ([]Event, error) {
	if s.sent {
		return nil, fmt.Errorf("feed connection lost")
	}
	s.sent = true
	return sampleEvents(), nil
}

// TestManagerSourceError: a broken feed must stop the loop with the error.
func TestManagerSourceError(t *testing.T) {
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(&errSource{}, st, nil, Config{Train: core.DefaultConfig()})
	if err := m.Run(context.Background()); err == nil ||
		err.Error() != "ingest: source: feed connection lost" {
		t.Fatalf("err = %v", err)
	}
	if got := m.Stats().Staging.Events; got != uint64(len(sampleEvents())) {
		t.Fatalf("events before failure = %d", got)
	}
}

// blockSource delivers nothing until cancelled.
type blockSource struct{}

func (blockSource) Next(ctx context.Context) ([]Event, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestManagerCancel: cancelling the context must end Run promptly with
// the context error.
func TestManagerCancel(t *testing.T) {
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(blockSource{}, st, nil, Config{Train: core.DefaultConfig(), RetrainInterval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// batchSource hands out fixed batches, then io.EOF.
type batchSource struct {
	batches [][]Event
	next    int
}

func (s *batchSource) Next(ctx context.Context) ([]Event, error) {
	if s.next == len(s.batches) {
		return nil, io.EOF
	}
	s.next++
	return s.batches[s.next-1], nil
}

// chunk splits events into consecutive batches whose sizes cycle through
// sizes.
func chunk(events []Event, sizes ...int) [][]Event {
	var batches [][]Event
	for i := 0; len(events) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(events))
		batches = append(batches, events[:n])
		events = events[n:]
	}
	return batches
}

// TestManagerFullModeReportsFullRetrains: with Incremental off every
// retrain is a full rebuild, and the stats and the retrain history count
// each one as full.
func TestManagerFullModeReportsFullRetrains(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	m := NewManager(NewStream(cube), st, rec.swap, Config{
		Train:          core.DefaultConfig(),
		RetrainChanges: cube.NumChanges() / 12,
		Incremental:    false,
	})
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats.Retrains < 2 {
		t.Fatalf("%d retrains, want the count trigger to fire mid-stream", stats.Retrains)
	}
	if stats.RetrainsFull != stats.Retrains || stats.RetrainsIncremental != 0 {
		t.Fatalf("retrains %d: %d full, %d incremental; want all full",
			stats.Retrains, stats.RetrainsFull, stats.RetrainsIncremental)
	}
	for _, r := range stats.RecentRetrains {
		if r.Error == "" && r.Mode != "full" {
			t.Fatalf("retrain %+v: mode %q, want full", r, r.Mode)
		}
	}
}

// TestManagerRecentRetrainsEvictOldest records more retrain attempts than
// the history keeps: Stats lists the newest recentRetrainCap, newest
// first, while the counters include every attempt.
func TestManagerRecentRetrainsEvictOldest(t *testing.T) {
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(&batchSource{}, st, nil, Config{Train: core.DefaultConfig()})
	m.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	const n = recentRetrainCap + 4
	for i := 0; i < n; i++ {
		m.retrain(fmt.Sprintf("t%02d", i)) // empty staging: every attempt fails
	}
	stats := m.Stats()
	if stats.RetrainErrors != n || len(stats.RecentRetrains) != recentRetrainCap {
		t.Fatalf("%d attempts, %d kept; want %d, %d", stats.RetrainErrors, len(stats.RecentRetrains), n, recentRetrainCap)
	}
	for i, r := range stats.RecentRetrains {
		if want := fmt.Sprintf("t%02d", n-1-i); r.Trigger != want || r.Error == "" {
			t.Fatalf("recent_retrains[%d] = %+v, want the failed %s attempt (newest first)", i, r, want)
		}
	}
}

// TestManagerBookkeepingMatchesStaging: after every batch of a replay in
// uneven batches, the staged-changes gauge equals what Staging.Stats
// reports, and the drift watch has been fed the batch's
// new-entity and new-property counts exactly as the cube's dimensions
// grew (checked against a reference watch fed those deltas).
func TestManagerBookkeepingMatchesStaging(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	src := &batchSource{batches: chunk(CubeEvents(cube), 1, 17, 256, 3, 999, 64)}
	m := NewManager(src, st, nil, Config{Train: core.DefaultConfig()})
	ref := NewDriftWatch()
	dims := func() (int, int) {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.cube.NumEntities(), st.cube.Properties.Len()
	}
	var ents, props, batches int
	m.SetEventObserver(func(events []Event) {
		batches++
		stats := st.Stats()
		if got := int(m.stagedChanges.Value()); got != stats.Changes {
			t.Fatalf("batch %d: staged-changes gauge %d, staging has %d", batches, got, stats.Changes)
		}
		e, p := dims()
		ref.Batch(events, e-ents, p-props, time.Now())
		ents, props = e, p
		got, want := m.Drift().Stats(), ref.Stats()
		if got.NewEntityEWMA != want.NewEntityEWMA || got.NewPropertyEWMA != want.NewPropertyEWMA {
			t.Fatalf("batch %d: drift new-entity/new-property EWMAs %v/%v, cube dimensions give %v/%v",
				batches, got.NewEntityEWMA, got.NewPropertyEWMA, want.NewEntityEWMA, want.NewPropertyEWMA)
		}
	})
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if batches != len(src.batches) {
		t.Fatalf("observer saw %d batches, source sent %d", batches, len(src.batches))
	}
	if ents != cube.NumEntities() || props != cube.Properties.Len() {
		t.Fatalf("staged %d entities / %d properties, corpus has %d / %d",
			ents, props, cube.NumEntities(), cube.Properties.Len())
	}
}

// TestManagerLastEventTimeNeverRegresses: a batch of events older than
// one already applied must not move LastEventTime (or the lag gauge and
// FeedLag that derive from it) backwards.
func TestManagerLastEventTimeNeverRegresses(t *testing.T) {
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	ev := func(times ...int64) []Event {
		var out []Event
		for _, tm := range times {
			out = append(out, Event{Time: tm, Page: "Berlin", Template: "settlement", Property: "population", Value: "1", Kind: changecube.Update})
		}
		return out
	}
	src := &batchSource{batches: [][]Event{ev(5000, 6000), ev(2000, 1000), ev(7000), ev(3000), ev(6999, 4000)}}
	m := NewManager(src, st, nil, Config{Train: core.DefaultConfig()})
	if m.Stats().LastEventTime != "" || m.FeedLag() != 0 {
		t.Fatal("event time reported before any batch")
	}
	var newest int64
	m.SetEventObserver(func(events []Event) {
		for _, e := range events {
			newest = max(newest, e.Time)
		}
		want := time.Unix(newest, 0)
		if got := m.Stats().LastEventTime; got != want.UTC().Format(time.RFC3339) {
			t.Fatalf("LastEventTime %s after batch %v, newest applied is %d", got, events, newest)
		}
		// Both lags are wall-clock ages of the newest event: at most the
		// age measured now, and not older by more than this test can take.
		for name, lag := range map[string]float64{"gauge": m.feedLag.Value(), "FeedLag": m.FeedLag()} {
			if since := time.Since(want).Seconds(); lag > since || lag < since-60 {
				t.Fatalf("%s lag %.0fs, newest event is %.0fs old", name, lag, since)
			}
		}
	})
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if newest != 7000 {
		t.Fatalf("observer saw newest %d", newest)
	}
}

// BenchmarkManagerReplay replays the small generated corpus through a
// Manager's consume path in DefaultBatchSize batches, with both retrain
// triggers off (and no EOF flush, since Run is bypassed), and reports the
// cost per event. A per-batch cost that grows with the staged corpus
// shows here as ns/event rising with the corpus size.
func BenchmarkManagerReplay(b *testing.B) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		b.Fatal(err)
	}
	batches := chunk(CubeEvents(cube), DefaultBatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := NewStaging(filter.Default())
		if err != nil {
			b.Fatal(err)
		}
		m := NewManager(&batchSource{batches: batches}, st, nil, Config{Train: core.DefaultConfig()})
		b.StartTimer()
		for _, batch := range batches {
			if err := m.consume(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cube.NumChanges()), "ns/event")
}
