package staleserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/ingest"
)

// TestRestartBitIdentity is the restart contract end to end: a detector
// trained from the live stream, snapshotted to an epoch store, and loaded
// back in a "new process" must serve byte-identical /v1/stale and
// /v1/explain bodies. Readers see no difference between a process that
// trained its epoch and one that booted from the store.
func TestRestartBitIdentity(t *testing.T) {
	cube, tr, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	st, err := ingest.NewStaging(cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	src := ingest.NewStream(cube)
	ctx := context.Background()
	for {
		events, err := src.Next(ctx)
		if len(events) > 0 {
			if _, err := st.AppendAt(events, src.Position()); err != nil {
				t.Fatal(err)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}

	store, err := epochstore.Open(epochstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Snapshot(ctx, det, st.SnapshotCheckpoint()); err != nil {
		t.Fatal(err)
	}
	res, err := store.LoadLatest(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "latest" {
		t.Fatalf("load outcome %q (errors %v)", res.Outcome, res.Errors)
	}

	trained := httptest.NewServer(newServer(det).Handler())
	defer trained.Close()
	reloaded := httptest.NewServer(newServer(res.Detector).Handler())
	defer reloaded.Close()

	fetch := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	missed := tr.CaseStudy.MissedDays[0]
	paths := []string{
		"/v1/stale", // the pre-warmed default key
		fmt.Sprintf("/v1/stale?asof=%s&window=3", (missed + 2).String()),
		fmt.Sprintf("/v1/stale?asof=%s&window=30&limit=5", (missed + 2).String()),
	}
	// Probe /v1/explain for every field the default listing flags (bounded)
	// plus one fresh field from the stats endpoint's perspective.
	var listing struct {
		Alerts []Alert `json:"alerts"`
	}
	listedAt := fmt.Sprintf("asof=%s&window=30&limit=5", (missed + 2).String())
	if err := json.Unmarshal(fetch(trained.URL, "/v1/stale?"+listedAt), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Alerts) == 0 {
		t.Fatal("stale listing flagged nothing; probe corpus too quiet")
	}
	for _, a := range listing.Alerts {
		field := fmt.Sprintf("page=%s&property=%s",
			url.QueryEscape(a.Page), url.QueryEscape(a.Property))
		paths = append(paths, "/v1/explain?"+field, "/v1/field?"+field)
	}
	for _, path := range paths {
		got, want := fetch(reloaded.URL, path), fetch(trained.URL, path)
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs after reload:\n  trained:  %s\n  reloaded: %s", path, want, got)
		}
	}
}

// TestSwapPrewarmsDefaultAlerts: after a swap the default (asof, window)
// key is already cached, so the first dashboard request is a hit.
func TestSwapPrewarmsDefaultAlerts(t *testing.T) {
	initShared(t)
	ep := sharedServer.epoch()
	if _, ok := ep.cache.lookup(packCacheKey(ep.span.End, defaultWindow)); !ok {
		t.Fatal("default alert key not pre-warmed at swap time")
	}
}

// TestSeededFirstRetrainMatchesCold: a server restarted from a week-old
// epoch catches up through the staging LoadResult.Staging builds, and the
// manager's first retrain reuses the booted detector as its previous
// training, so it runs incrementally in every stage. The detector it
// publishes must equal a cold training over the same snapshot: the same
// model bytes, the same family index, and the same /v1/* bodies.
func TestSeededFirstRetrainMatchesCold(t *testing.T) {
	cube, tr, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	st, err := ingest.NewStaging(cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := ingest.NewStream(cube)
	for src.Remaining() > 7 {
		events, err := src.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendAt(events, src.Position()); err != nil {
			t.Fatal(err)
		}
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := epochstore.Open(epochstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Snapshot(ctx, det, st.SnapshotCheckpoint()); err != nil {
		t.Fatal(err)
	}
	res, err := store.LoadLatest(ctx, cfg)
	if err != nil || res.Outcome != "latest" {
		t.Fatalf("load: %v (outcome %q)", err, res.Outcome)
	}
	restarted, err := res.Staging()
	if err != nil {
		t.Fatal(err)
	}
	feed := ingest.NewStream(cube)
	if err := feed.Seek(res.Checkpoint); err != nil {
		t.Fatal(err)
	}
	var seeded *core.Detector
	m := ingest.NewManager(feed, restarted, func(d *core.Detector) { seeded = d },
		ingest.Config{Train: cfg, Incremental: true, FullRebuildEvery: 32})
	if err := m.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Retrains != 1 || s.RetrainsIncremental != 1 {
		t.Fatalf("first retrain after the restart: %d retrains, %d incremental", s.Retrains, s.RetrainsIncremental)
	}
	// A stage may still rebuild by its own rule (the threshold baseline
	// does when the validation span moves), but none may start cold.
	reasons := map[string]string{
		"correlation": seeded.CorrelationRetrain().FullReason,
		"assocrules":  seeded.AssocRetrain().FullReason,
		"seasonal":    seeded.SeasonalRetrain().FullReason,
		"familycorr":  seeded.FamilyRetrain().FullReason,
		"threshold":   seeded.ThresholdRetrain().FullReason,
	}
	for stage, reason := range reasons {
		if reason == "cold" {
			t.Errorf("stage %s trained cold on the seeded retrain", stage)
		}
	}

	cold, err := core.TrainFiltered(seeded.Histories(), seeded.FilterStats(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mSeeded, _ := seeded.MarshalModel()
	mCold, _ := cold.MarshalModel()
	if !bytes.Equal(mSeeded, mCold) {
		t.Fatal("seeded first retrain's model differs from a cold training")
	}
	if got, want := seeded.FamilyCorrelations().Families(), cold.FamilyCorrelations().Families(); got != want {
		t.Fatalf("seeded retrain indexes %d families, cold %d", got, want)
	}

	seededSrv := httptest.NewServer(newServer(seeded).Handler())
	defer seededSrv.Close()
	coldSrv := httptest.NewServer(newServer(cold).Handler())
	defer coldSrv.Close()
	fetch := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	listedAt := fmt.Sprintf("/v1/stale?asof=%s&window=30&limit=5", (tr.CaseStudy.MissedDays[0] + 2).String())
	paths := []string{"/v1/stale", "/v1/stats", "/v1/stale?window=30", listedAt}
	var listing struct {
		Alerts []Alert `json:"alerts"`
	}
	if err := json.Unmarshal(fetch(coldSrv.URL, listedAt), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Alerts) == 0 {
		t.Fatal("stale listing flagged nothing; probe corpus too quiet")
	}
	for _, a := range listing.Alerts {
		field := fmt.Sprintf("page=%s&property=%s", url.QueryEscape(a.Page), url.QueryEscape(a.Property))
		paths = append(paths, "/v1/explain?"+field, "/v1/field?"+field)
	}
	for _, path := range paths {
		if got, want := fetch(seededSrv.URL, path), fetch(coldSrv.URL, path); !bytes.Equal(got, want) {
			t.Errorf("GET %s differs:\n  cold:   %s\n  seeded: %s", path, want, got)
		}
	}
}
