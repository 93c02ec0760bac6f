package staleserve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs/quality"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestQualityEndpointDisabled: without a wired scorer /debug/quality
// answers 404, while /debug/epochdiff always serves (the ring exists on
// every server).
func TestQualityEndpointDisabled(t *testing.T) {
	s := newServer(trainSeed(t, 301))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var body map[string]any
	if code := getJSON(t, srv.URL+"/debug/quality", &body); code != http.StatusNotFound {
		t.Fatalf("/debug/quality without scorer: code %d, want 404", code)
	}
	var diff struct {
		Count int                 `json:"count"`
		Diffs []quality.EpochDiff `json:"diffs"`
	}
	if code := getJSON(t, srv.URL+"/debug/epochdiff", &diff); code != http.StatusOK {
		t.Fatalf("/debug/epochdiff: code %d", code)
	}
	if diff.Count != 1 || len(diff.Diffs) != 1 {
		t.Fatalf("one swap, diff count %d", diff.Count)
	}
	// The first swap diffs against nothing: everything the detector knows
	// reads as added, nothing as removed.
	d := diff.Diffs[0]
	if d.FromSeq != 0 || d.ToSeq != 1 {
		t.Fatalf("first diff %d -> %d, want 0 -> 1", d.FromSeq, d.ToSeq)
	}
	if d.CorrRemoved != 0 || d.AssocRemoved != 0 || d.AlertsLeft != 0 {
		t.Fatalf("first diff shows removals: %+v", d)
	}
}

// TestEpochDiffRecordsRuleChurn is the acceptance check for diffing: a
// swap to a detector trained on different data must surface removed
// rules and alert-set churn in the newest /debug/epochdiff entry and in
// the metrics.
func TestEpochDiffRecordsRuleChurn(t *testing.T) {
	detA := trainSeed(t, 302)
	detB := trainSeed(t, 303)
	if detA.FieldCorrelations().NumRules() == 0 && detA.AssociationRules().NumRules() == 0 {
		t.Skip("seed detector trained no rules")
	}
	s := newServer(detA)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.Swap(detB) // different corpus: detA's rules vanish wholesale

	var diff struct {
		Count int                 `json:"count"`
		Diffs []quality.EpochDiff `json:"diffs"`
	}
	if code := getJSON(t, srv.URL+"/debug/epochdiff", &diff); code != http.StatusOK {
		t.Fatalf("/debug/epochdiff: code %d", code)
	}
	if diff.Count != 2 {
		t.Fatalf("diff count %d after two swaps", diff.Count)
	}
	newest := diff.Diffs[0] // newest first
	if newest.FromSeq != 1 || newest.ToSeq != 2 {
		t.Fatalf("newest diff %d -> %d, want 1 -> 2", newest.FromSeq, newest.ToSeq)
	}
	removed := newest.CorrRemoved + newest.AssocRemoved
	if removed == 0 {
		t.Fatalf("swap to a foreign detector removed no rules: %+v", newest)
	}
	if newest.CorrRemoved > 0 && len(newest.CorrRemovedSample) == 0 {
		t.Fatal("removal counted but not sampled")
	}
	if total := s.reg.Counter("wikistale_epoch_diff_total", nil).Value(); total < 2 {
		t.Fatalf("wikistale_epoch_diff_total = %d", total)
	}
}

// TestSwapMetrics: every swap lands one swap-duration observation and
// refreshes the compile-arena gauge to the new epoch's size.
func TestSwapMetrics(t *testing.T) {
	det := trainSeed(t, 304)
	s := newServer(det)
	before := s.swapSeconds.Count()
	s.Swap(det)
	if got := s.swapSeconds.Count(); got != before+1 {
		t.Fatalf("swap histogram count %d, want %d", got, before+1)
	}
	if got, want := s.swapBytes.Value(), float64(len(s.epoch().fields.arena)); got != want {
		t.Fatalf("wikistale_swap_compile_bytes = %v, arena is %v", got, want)
	}
	if s.epoch().fields.arena == nil {
		t.Fatal("epoch compiled an empty arena; gauge check is vacuous")
	}
}

// TestCacheCarryAcrossSwapChurn is the hot-key carry regression under
// repeated swaps: (asOf, window) keys observed in epoch N must still be
// pre-warmed in epoch N+2 with no traffic in between, with keys pinned to
// the newest day following the data forward.
func TestCacheCarryAcrossSwapChurn(t *testing.T) {
	det := trainSeed(t, 305)
	s := newServer(det)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	end := s.epoch().span.End

	// Observe two keys in epoch 1.
	for _, w := range []int{9, 11} {
		resp, err := http.Get(srv.URL + "/v1/stale?window=" + itoa(w))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Two swaps with zero traffic: the carry must survive epoch-to-epoch,
	// not just one hop (prewarmed keys are the next epoch's hot keys).
	s.Swap(det)
	s.Swap(det)
	for _, w := range []int{9, 11} {
		if _, ok := s.epoch().cache.lookup(packCacheKey(end, w)); !ok {
			t.Fatalf("window %d observed in epoch 1 not pre-warmed in epoch 3", w)
		}
	}

	// Eviction interplay: more observed keys than prewarmCarryKeys — the
	// carry is bounded, so some keys are deliberately dropped, and the
	// default-window key survives regardless.
	windows := []int{9, 11, 13, 15, 17, 19}
	for _, w := range windows {
		resp, err := http.Get(srv.URL + "/v1/stale?window=" + itoa(w))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s.Swap(det)
	carried := 0
	for _, w := range windows {
		if _, ok := s.epoch().cache.lookup(packCacheKey(end, w)); ok {
			carried++
		}
	}
	if carried == 0 || carried > prewarmCarryKeys {
		t.Fatalf("carried %d of %d observed keys, want 1..%d (bounded carry)", carried, len(windows), prewarmCarryKeys)
	}
	if _, ok := s.epoch().cache.lookup(packCacheKey(end, defaultWindow)); !ok {
		t.Fatal("default-window key not pre-warmed after churn")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// confirmSource drives the end-to-end quality scenario: it streams a
// whole corpus, waits for the count-triggered retrain to swap (so the
// scorer holds that epoch's alert set), then emits one change for a
// chosen alerted field inside the horizon and ends the feed.
type confirmSource struct {
	stream   *ingest.Stream
	swapped  chan struct{}
	confirm  func() []ingest.Event
	emitted  bool
	streamed bool
}

func (c *confirmSource) Next(ctx context.Context) ([]ingest.Event, error) {
	if !c.streamed {
		evs, err := c.stream.Next(ctx)
		if err == nil {
			return evs, nil
		}
		if err != io.EOF {
			return evs, err
		}
		c.streamed = true
	}
	if !c.emitted {
		select {
		case <-c.swapped:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c.emitted = true
		return c.confirm(), nil
	}
	return nil, io.EOF
}

// TestQualityEndToEnd is the acceptance path for alert-outcome scoring: a
// live server fed by a manager registers the swapped epoch's alerts, a
// later change event for a known-stale field confirms it, and
// /debug/quality reports the confirmation with the right per-family
// attribution.
func TestQualityEndToEnd(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ingest.NewStaging(core.DefaultConfig().Filter)
	if err != nil {
		t.Fatal(err)
	}
	s := NewLive()
	scorer := quality.New(14)
	s.SetQualityScorer(scorer)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	swapped := make(chan struct{})
	src := &confirmSource{
		stream:  ingest.NewStream(cube),
		swapped: swapped,
		confirm: func() []ingest.Event {
			// By the time this runs the swap has registered the alert set;
			// confirm the first alerted field one day after its alert day.
			ep := s.epoch()
			a := ep.alerts.alerts[0]
			return []ingest.Event{{
				Time:     (ep.span.End + 1).Unix(),
				Page:     ep.cube.Pages.Name(int32(ep.cube.Page(a.Field.Entity))),
				Template: ep.cube.Templates.Name(int32(ep.cube.Entity(a.Field.Entity).Template)),
				Property: ep.cube.Properties.Name(int32(a.Field.Property)),
				Value:    "updated at last",
			}}
		},
	}
	swapFn := func(det *core.Detector) {
		s.Swap(det)
		select {
		case <-swapped:
		default:
			if len(s.epoch().alerts.alerts) > 0 {
				close(swapped)
			}
		}
	}
	// The count trigger fires once the whole corpus is staged, so the
	// retrain sees every change and its alert set matches a batch train.
	m := ingest.NewManager(src, st, swapFn, ingest.Config{
		Train:          core.DefaultConfig(),
		RetrainChanges: cube.NumChanges(),
	})
	m.SetEventObserver(func(events []ingest.Event) {
		for _, ev := range events {
			scorer.Observe(ev.Page, ev.Property, int32(timeline.DayOfUnix(ev.Time)))
		}
	})
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var report quality.Report
	if code := getJSON(t, srv.URL+"/debug/quality", &report); code != http.StatusOK {
		t.Fatalf("/debug/quality: code %d", code)
	}
	if report.Overall.Confirmed != 1 {
		t.Fatalf("confirmed = %d, want exactly the emitted change: %+v", report.Overall.Confirmed, report.Overall)
	}
	if report.TrackedTotal == 0 || report.Epoch == 0 || report.Watermark == "" {
		t.Fatalf("implausible report: %+v", report)
	}

	// The confirmation is attributed to the families whose votes fired
	// for the alert (per the final epoch's vote attribution).
	var confirmed *quality.Outcome
	for i := range report.Recent {
		if report.Recent[i].Outcome == "confirmed" {
			confirmed = &report.Recent[i]
			break
		}
	}
	if confirmed == nil {
		t.Fatal("no confirmed outcome in the recent ring")
	}
	if len(confirmed.Families) == 0 {
		t.Fatalf("confirmed outcome %+v carries no family attribution", confirmed)
	}
	for _, fam := range confirmed.Families {
		found := false
		for _, f := range report.Families {
			if f.Family == fam && f.Confirmed >= 1 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("family %q of the confirmed outcome missing from per-family tallies: %+v", fam, report.Families)
		}
	}
}

// TestStatuszMemlimitUnset: with -memlimit unset the runtime section must
// say so rather than implying a zero-byte limit.
func TestStatuszMemlimitUnset(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "mem limit:  none (-memlimit unset") {
		t.Fatalf("/statusz memlimit line wrong:\n%s", body)
	}
}
