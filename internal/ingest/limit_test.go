package ingest

import (
	"context"
	"io"
	"log/slog"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
)

// fakeClock is the manager's clock in these tests: it moves only when a
// test (or a hook the test installed) advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// retrainTakes is a log handler that advances the clock by d whenever the
// manager logs a retrain's outcome, so every retrain job, failed or not,
// lasts d on the clock.
type retrainTakes struct {
	clock *fakeClock
	d     time.Duration
}

func (h retrainTakes) Enabled(context.Context, slog.Level) bool { return true }
func (h retrainTakes) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h retrainTakes) WithGroup(string) slog.Handler            { return h }
func (h retrainTakes) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "retrain done" || r.Message == "retrain failed" {
		h.clock.advance(h.d)
	}
	return nil
}

// stepSource hands the manager one batch per step. Next announces on
// ready that the loop wants a batch, which also means the previous batch
// and its retrain triggers have been handled; closing batches ends the
// feed.
type stepSource struct {
	ready   chan struct{}
	batches chan []Event
}

func (s *stepSource) Next(ctx context.Context) ([]Event, error) {
	s.ready <- struct{}{}
	b, ok := <-s.batches
	if !ok {
		return nil, io.EOF
	}
	return b, nil
}

// limitRig drives a Manager batch by batch on a fake clock, every
// retrain taking retrainD on it.
type limitRig struct {
	t     *testing.T
	m     *Manager
	clock *fakeClock
	src   *stepSource
	done  chan error
}

const retrainD = 10 * time.Second

func newLimitRig(t *testing.T, retrainChanges int) *limitRig {
	t.Helper()
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	r := &limitRig{
		t:     t,
		clock: newFakeClock(),
		src:   &stepSource{ready: make(chan struct{}), batches: make(chan []Event)},
		done:  make(chan error, 1),
	}
	r.m = NewManager(r.src, st, nil, Config{Train: core.DefaultConfig(), RetrainChanges: retrainChanges})
	r.m.now = r.clock.now
	r.m.SetLogger(slog.New(retrainTakes{r.clock, retrainD}))
	go func() { r.done <- r.m.Run(context.Background()) }()
	<-r.src.ready
	return r
}

// step feeds one batch and returns once the loop has handled it and any
// retrain it started has finished.
func (r *limitRig) step(b []Event) Stats {
	r.src.batches <- b
	<-r.src.ready
	r.m.wg.Wait() // the loop is parked in Next: only a retrain can be running
	return r.m.Stats()
}

// end closes the feed and waits for Run's EOF flush.
func (r *limitRig) end() Stats {
	close(r.src.batches)
	if err := <-r.done; err != nil {
		r.t.Fatal(err)
	}
	return r.m.Stats()
}

// smallEvents is the small generated corpus as a feed, in time order.
func smallEvents(t *testing.T) []Event {
	t.Helper()
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	return CubeEvents(cube)
}

// TestCountTriggerLimit: after a retrain that took d, the count trigger
// holds until d after its end, however many changes pile up; one hold
// counts as one deferral, and its length runs from the first held batch
// to the retrain's start.
func TestCountTriggerLimit(t *testing.T) {
	events := smallEvents(t)
	const n = 1000
	r := newLimitRig(t, n)
	half := len(events) / 2
	s := r.step(events[:half])
	if s.Retrains != 1 || s.RetrainErrors != 0 {
		t.Fatalf("first retrain: %d ok, %d failed (%s); want one detector", s.Retrains, s.RetrainErrors, s.LastError)
	}
	// The retrain ended at +10s having taken 10s: the count trigger may
	// fire again from +20s.
	r.clock.advance(5 * time.Second)
	next := half
	for i := 0; i < 3; i++ {
		s = r.step(events[next : next+n])
		next += n
		r.clock.advance(time.Second)
		if s.Retrains != 1 || s.RetrainDeferrals != 1 || s.PendingChanges != uint64((i+1)*n) {
			t.Fatalf("held batch %d: %d retrains, %d deferrals, %d pending; want 1, 1, %d",
				i, s.Retrains, s.RetrainDeferrals, s.PendingChanges, (i+1)*n)
		}
	}
	if s.RetrainDeferredSeconds != 0 {
		t.Fatalf("deferred %.0fs while still holding", s.RetrainDeferredSeconds)
	}
	r.clock.advance(2 * time.Second) // +20s: the limit has passed
	s = r.step(events[next : next+n])
	next += n
	if s.Retrains != 2 || s.RetrainDeferrals != 1 || s.RetrainDeferredSeconds != 5 {
		t.Fatalf("after the limit: %d retrains, %d deferrals, %.1fs deferred; want 2, 1, 5s",
			s.Retrains, s.RetrainDeferrals, s.RetrainDeferredSeconds)
	}
	if got := s.RecentRetrains[0]; got.Trigger != "count" || got.Error != "" {
		t.Fatalf("newest retrain %+v, want a successful count retrain", got)
	}
	// That retrain ended at +30s: the next batch, at +30s, is held again.
	s = r.step(events[next : next+n])
	if s.Retrains != 2 || s.RetrainDeferrals != 2 {
		t.Fatalf("second hold: %d retrains, %d deferrals; want 2, 2", s.Retrains, s.RetrainDeferrals)
	}
	if got, want := r.m.deferrals.Value(), uint64(2); got < want {
		t.Fatalf("deferrals counter %d, want at least %d", got, want)
	}
	// The EOF flush closes the hold at once.
	s = r.end()
	if s.Retrains != 3 || s.RecentRetrains[0].Trigger != "flush" || s.RetrainDeferredSeconds != 5 {
		t.Fatalf("flush: %d retrains (newest %q), %.1fs deferred; want 3, flush, 5s",
			s.Retrains, s.RecentRetrains[0].Trigger, s.RetrainDeferredSeconds)
	}
}

// TestCountTriggerFailedRetrainSetsNoLimit: failed retrains (a cold start
// whose span is still too short) take time but hold nothing back, so
// every batch past the threshold starts the next attempt.
func TestCountTriggerFailedRetrainSetsNoLimit(t *testing.T) {
	events := smallEvents(t)
	const n = 100
	r := newLimitRig(t, n)
	for i := 1; i <= 4; i++ {
		s := r.step(events[(i-1)*n : i*n])
		if s.Retrains != 0 || s.RetrainErrors != uint64(i) || s.RetrainDeferrals != 0 {
			t.Fatalf("batch %d: %d ok, %d failed, %d deferrals; want 0, %d, 0",
				i, s.Retrains, s.RetrainErrors, s.RetrainDeferrals, i)
		}
	}
	r.end()
}

// TestEOFFlushNotLimited: with the limit in force and fewer changes
// pending than the count trigger needs, the end of the feed still
// retrains at once.
func TestEOFFlushNotLimited(t *testing.T) {
	events := smallEvents(t)
	r := newLimitRig(t, len(events)/2)
	half := len(events) / 2
	if s := r.step(events[:half]); s.Retrains != 1 {
		t.Fatalf("first retrain failed: %s", s.LastError)
	}
	r.step(events[half : half+10])
	start := r.clock.now()
	s := r.end()
	if s.Retrains != 2 || s.RecentRetrains[0].Trigger != "flush" || s.RetrainDeferrals != 0 {
		t.Fatalf("%d retrains (newest %q), %d deferrals; want a second, flush retrain and no deferral",
			s.Retrains, s.RecentRetrains[0].Trigger, s.RetrainDeferrals)
	}
	if s.PendingChanges != 0 {
		t.Fatalf("%d changes still pending after the flush", s.PendingChanges)
	}
	if took := r.clock.now().Sub(start); took != retrainD {
		t.Fatalf("the flush ran after %v on the clock, want at once (just its own %v)", took-retrainD, retrainD)
	}
}

// TestIntervalTriggerNotLimited: while the count trigger is held, the
// interval trigger still starts a retrain, which sets a new limit.
func TestIntervalTriggerNotLimited(t *testing.T) {
	events := smallEvents(t)
	const n = 1000
	r := newLimitRig(t, n)
	half := len(events) / 2
	r.step(events[:half])
	if s := r.step(events[half : half+n]); s.RetrainDeferrals != 1 || s.Retrains != 1 {
		t.Fatalf("%d retrains, %d deferrals; want the count trigger held", s.Retrains, s.RetrainDeferrals)
	}
	// The interval ticker's goroutine calls exactly this.
	r.m.tryRetrain("interval")
	r.m.wg.Wait()
	s := r.m.Stats()
	if s.Retrains != 2 || s.RecentRetrains[0].Trigger != "interval" || s.PendingChanges != 0 {
		t.Fatalf("interval retrain: %d retrains (newest %q), %d pending; want 2, interval, 0",
			s.Retrains, s.RecentRetrains[0].Trigger, s.PendingChanges)
	}
	// With nothing pending the hold ends at the next batch's check.
	s = r.step(events[half+n : half+n+10])
	if s.RetrainDeferredSeconds != retrainD.Seconds() {
		t.Fatalf("hold lasted %.1fs, want the interval retrain's %v", s.RetrainDeferredSeconds, retrainD)
	}
	// The interval retrain ended at +20s having taken 10s: held again.
	if s = r.step(events[half+n+10 : half+2*n+10]); s.RetrainDeferrals != 2 || s.Retrains != 2 {
		t.Fatalf("%d retrains, %d deferrals; want the interval retrain's limit to hold", s.Retrains, s.RetrainDeferrals)
	}
	r.end()
}

// TestStreamBatchEquivalenceUnderLimit: a day-by-day replay whose swap
// hook is slow, so the limit holds the count trigger again and again,
// ends on the detector batch training gives for the same corpus.
func TestStreamBatchEquivalenceUnderLimit(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	st, err := NewStaging(cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	var last *core.Detector
	swaps := 0
	slowSwap := func(d *core.Detector) {
		clock.advance(6 * time.Hour) // a swap that takes six hours on the clock
		last = d
		swaps++
	}
	src := &clockedSource{Stream: NewStream(cube), clock: clock}
	m := NewManager(src, st, slowSwap, Config{Train: cfg, Incremental: true, RetrainChanges: cube.NumChanges() / 40})
	m.now = clock.now
	m.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	src.wait = m.wg.Wait
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.RetrainDeferrals < 5 || s.Retrains < 5 {
		t.Fatalf("%d retrains, %d deferrals; want the limit to bind repeatedly mid-stream", s.Retrains, s.RetrainDeferrals)
	}
	if uint64(swaps) != s.Swaps || s.RecentRetrains[0].Trigger != "flush" {
		t.Fatalf("%d swaps seen, %d counted, newest retrain %q", swaps, s.Swaps, s.RecentRetrains[0].Trigger)
	}
	batch, err := core.Train(last.Histories().Cube(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last.Histories().Histories(), batch.Histories().Histories()) {
		t.Fatal("filtered histories differ between stream and batch")
	}
	end := last.Histories().Span().End
	for _, w := range []int{7, 30} {
		if got, want := last.DetectStale(end, w), batch.DetectStale(end, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("DetectStale(end, %d): streamed %d alerts, batch %d", w, len(got), len(want))
		}
	}
}

// clockedSource is a Stream read one minute per batch on the clock, and
// only between retrains (wait), so a retrain's length on the clock is its
// hooks' alone and the run is the same every time.
type clockedSource struct {
	*Stream
	clock *fakeClock
	wait  func()
}

func (s *clockedSource) Next(ctx context.Context) ([]Event, error) {
	s.wait()
	s.clock.advance(time.Minute)
	return s.Stream.Next(ctx)
}
