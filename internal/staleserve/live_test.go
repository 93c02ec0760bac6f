package staleserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
)

func queryEscape(s string) string { return url.QueryEscape(s) }

// trainSeed trains a detector over a freshly generated small corpus.
func trainSeed(t *testing.T, seed int64) *core.Detector {
	t.Helper()
	cfg := dataset.Small()
	cfg.Seed = seed
	cube, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.Train(cube, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestLiveColdStart: before the first swap every data endpoint answers
// 503 and readiness reports false; after a swap the server is ready and
// serving.
func TestLiveColdStart(t *testing.T) {
	s := NewLive()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var ready struct {
		Ready bool    `json:"ready"`
		Epoch float64 `json:"epoch"`
	}
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("cold /readyz: code %d, body %+v", code, ready)
	}
	for _, path := range []string{"/v1/stale", "/v1/field?page=x&property=y", "/v1/stats", "/demo?page=x"} {
		var body map[string]any
		if code := getJSON(t, srv.URL+path, &body); code != http.StatusServiceUnavailable {
			t.Fatalf("cold %s: code %d, want 503", path, code)
		}
	}
	// Liveness must NOT depend on readiness: a warming-up process is alive.
	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("cold /healthz: code %d", code)
	}

	s.Swap(trainSeed(t, 101))
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusOK || !ready.Ready || ready.Epoch != 1 {
		t.Fatalf("warm /readyz: code %d, body %+v", code, ready)
	}
	var stale map[string]any
	if code := getJSON(t, srv.URL+"/v1/stale", &stale); code != http.StatusOK {
		t.Fatalf("warm /v1/stale: code %d", code)
	}
}

// TestIngestStatsEndpoint: 404 without live mode, live payload once
// wired.
func TestIngestStatsEndpoint(t *testing.T) {
	s := NewLive()
	s.Swap(trainSeed(t, 102))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var body map[string]any
	if code := getJSON(t, srv.URL+"/v1/ingest/stats", &body); code != http.StatusNotFound {
		t.Fatalf("without live mode: code %d, want 404", code)
	}
	s.SetIngestStats(func() any {
		return ingest.Stats{Batches: 42, SourceDone: true}
	})
	var stats ingest.Stats
	if code := getJSON(t, srv.URL+"/v1/ingest/stats", &stats); code != http.StatusOK {
		t.Fatalf("live mode: code %d", code)
	}
	if stats.Batches != 42 || !stats.SourceDone {
		t.Fatalf("payload %+v not passed through", stats)
	}
}

// TestFieldUnknownPairNotFound: a page name and property name that both
// exist in the corpus — but never together as an observed or
// rule-covered field — must 404, not answer a zero-value "not stale".
func TestFieldUnknownPairNotFound(t *testing.T) {
	srv, _ := testServer(t)
	s := sharedServer
	ep := s.epoch()

	// Hunt for a (page, property) pair of valid names outside the
	// compiled servable set.
	var page, property string
search:
	for p := 0; p < ep.cube.Pages.Len(); p++ {
		for q := 0; q < ep.cube.Properties.Len(); q++ {
			k := packKey(changecube.PageID(p), changecube.PropertyID(q))
			if ep.fields.lookup(k) == nil {
				page = ep.cube.Pages.Name(int32(p))
				property = ep.cube.Properties.Name(int32(q))
				break search
			}
		}
	}
	if page == "" {
		t.Skip("corpus observes every page × property combination")
	}
	var body map[string]any
	url := fmt.Sprintf("%s/v1/field?page=%s&property=%s", srv.URL, queryEscape(page), queryEscape(property))
	if code := getJSON(t, url, &body); code != http.StatusNotFound {
		t.Fatalf("unobserved pair (%q, %q): code %d, body %v, want 404", page, property, code, body)
	}

	// Control: a known pair still answers 200.
	h := ep.det.Histories().Histories()[0]
	url = fmt.Sprintf("%s/v1/field?page=%s&property=%s", srv.URL,
		queryEscape(ep.cube.Pages.Name(int32(ep.cube.Page(h.Field.Entity)))),
		queryEscape(ep.cube.Properties.Name(int32(h.Field.Property))))
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("known pair: code %d, body %v", code, body)
	}
}

// sameShardKeys returns n distinct keys that all hash to one shard of c,
// so LRU tests exercise a single shard's capacity deterministically.
func sameShardKeys(c *alertCache, n int) []uint64 {
	target := c.shardIndex(1)
	keys := make([]uint64, 0, n)
	for k := uint64(1); len(keys) < n; k++ {
		if c.shardIndex(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestAlertCacheLRUEviction exercises one bounded shard directly: the
// 4th distinct same-shard key must evict the least recently used one,
// and a hit must refresh recency.
func TestAlertCacheLRUEviction(t *testing.T) {
	c := newAlertCache(3)
	keys := sameShardKeys(c, 4)
	a, b, k3, d := keys[0], keys[1], keys[2], keys[3]
	var hits, misses, waits countStub
	get := func(key uint64) {
		c.getOrCompute(key, &hits, &misses, &waits, func() *alertSet { return &alertSet{} })
	}
	get(a)
	get(b)
	get(k3)
	if c.len() != 3 || misses != 3 {
		t.Fatalf("len %d, misses %d", c.len(), misses)
	}
	get(a) // refresh a: LRU order is now b, k3, a
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
	get(d) // evicts b
	if c.len() != 3 {
		t.Fatalf("len = %d after eviction", c.len())
	}
	get(a)  // still cached
	get(k3) // still cached
	if hits != 3 {
		t.Fatalf("hits = %d, want refreshed entries to survive", hits)
	}
	get(b) // evicted: must recompute
	if misses != 5 {
		t.Fatalf("misses = %d, want evicted key to miss", misses)
	}
	// The alloc-free fast path sees the same entries.
	if _, ok := c.lookup(b); !ok {
		t.Fatal("lookup misses a key getOrCompute just cached")
	}
	if _, ok := c.lookup(d); ok {
		// d was the LRU victim of re-inserting b.
		t.Fatal("lookup found a key the LRU should have evicted")
	}
}

type countStub uint64

func (c *countStub) Inc() { *c++ }

// TestAlertCacheLRUOverHTTP is the regression test at the API surface:
// repeated windows hit, and distinct windows beyond one shard's capacity
// evict that shard's oldest entry. The windows are picked at runtime so
// their packed (asOf, window) keys all hash into the same shard —
// otherwise the sharding would spread them and nothing would evict.
func TestAlertCacheLRUOverHTTP(t *testing.T) {
	srv, _ := testServer(t)
	s := sharedServer
	ep := s.epoch()
	asOf := ep.det.Histories().Span().End

	// shardCap+1 same-shard windows, starting past every window other
	// tests use so the fill is all misses.
	var windows []int
	target := -1
	for w := 60; len(windows) < alertCacheShardCap+1; w++ {
		sh := ep.cache.shardIndex(packCacheKey(asOf, w))
		if target == -1 {
			target = sh
		}
		if sh == target {
			windows = append(windows, w)
		}
	}

	delta := func() (hits, misses uint64) {
		return s.cacheHits.Value(), s.cacheMisses.Value()
	}
	get := func(window int) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/stale?window=%d", srv.URL, window))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d: status %d", window, resp.StatusCode)
		}
	}

	h0, m0 := delta()
	// Fill the shard past capacity: all misses, and the first window ends
	// up evicted (any entries other tests left in this shard go first,
	// then ours in insertion order).
	for _, w := range windows {
		get(w)
	}
	h1, m1 := delta()
	if m1-m0 != uint64(len(windows)) || h1 != h0 {
		t.Fatalf("fill: %d misses, %d hits; want %d misses, 0 hits", m1-m0, h1-h0, len(windows))
	}
	get(windows[len(windows)-1]) // most recent: hit
	h2, m2 := delta()
	if h2-h1 != 1 || m2 != m1 {
		t.Fatalf("recent key: %d hits, %d misses; want a pure hit", h2-h1, m2-m1)
	}
	get(windows[0]) // evicted: miss again
	_, m3 := delta()
	if m3-m2 != 1 {
		t.Fatalf("evicted key: %d misses, want 1", m3-m2)
	}
}

// canonicalBody fetches a URL and returns the decoded JSON with the
// "epoch" field removed, so responses can be compared across epochs.
func canonicalBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	delete(m, "epoch")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestSwapUnderLoad: with sustained concurrent /v1/stale and /v1/field
// traffic, every response during detector churn must be byte-identical
// to what one of the two detectors serves alone — no torn epochs, no
// errors. Run under -race this also proves the swap path is data-race
// free.
func TestSwapUnderLoad(t *testing.T) {
	detA := trainSeed(t, 201)
	detB := trainSeed(t, 202)

	// The case-study page is planted in every generated corpus, so both
	// detectors can answer this field lookup.
	asOf := detA.Histories().Span().End.String()
	staleQ := "/v1/stale?asof=" + asOf + "&window=9"
	fieldQ := "/v1/field?page=" + queryEscape("2018-19 Handball-Bundesliga") +
		"&property=matches&asof=" + asOf + "&window=9"

	// Canonical answers, one server per detector.
	expect := map[string]map[string]bool{staleQ: {}, fieldQ: {}}
	for _, det := range []*core.Detector{detA, detB} {
		s := newServer(det)
		srv := httptest.NewServer(s.Handler())
		for q := range expect {
			code, body := canonicalBody(t, srv.URL+q)
			if code != http.StatusOK {
				t.Fatalf("canonical %s: status %d", q, code)
			}
			expect[q][body] = true
		}
		srv.Close()
	}

	s := newServer(detA)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for i := 0; i < 4; i++ {
		q := staleQ
		if i%2 == 1 {
			q = fieldQ
		}
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for n := 0; n < 150 && ctx.Err() == nil && failures.Load() == 0; n++ {
				code, body := canonicalBody(t, srv.URL+q)
				if code != http.StatusOK {
					fail("%s: status %d", q, code)
					return
				}
				if !expect[q][body] {
					fail("%s: response matches neither epoch:\n%s", q, body)
					return
				}
			}
		}(q)
	}
	// Churn detectors while the readers hammer the server.
	for n := 0; n < 40; n++ {
		if n%2 == 0 {
			s.Swap(detB)
		} else {
			s.Swap(detA)
		}
	}
	cancel()
	wg.Wait()
}

// TestLiveIngestServing is the end-to-end acceptance path: a live feed
// streams into staging, background retrains hot-swap the serving epoch
// under concurrent traffic, and the final served detector is
// bit-identical to a batch train over the same data.
func TestLiveIngestServing(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ingest.NewStaging(core.DefaultConfig().Filter)
	if err != nil {
		t.Fatal(err)
	}
	s := NewLive()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Several mid-stream retrains: early ones fail on the too-short span,
	// later ones swap live under the query load below.
	mcfg := ingest.Config{Train: core.DefaultConfig(), RetrainChanges: cube.NumChanges() / 5}
	m := ingest.NewManager(ingest.NewStream(cube), st, s.Swap, mcfg)
	s.SetIngestStats(func() any { return m.Stats() })

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			resp, err := http.Get(srv.URL + "/v1/stale?window=5")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// 503 before the first swap, 200 after; anything else is a bug.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("/v1/stale during ingest: status %d", resp.StatusCode)
				return
			}
		}
	}()

	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	ep := s.epoch()
	if ep == nil {
		t.Fatal("no epoch after the stream ended")
	}
	batch, err := core.Train(ep.det.Histories().Cube(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	end := ep.det.Histories().Span().End
	if got, want := ep.det.DetectStale(end, 7), batch.DetectStale(end, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("served detector diverges from batch train: %d vs %d alerts", len(got), len(want))
	}

	var stats ingest.Stats
	if code := getJSON(t, srv.URL+"/v1/ingest/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/ingest/stats: code %d", code)
	}
	if !stats.SourceDone || stats.Swaps == 0 || stats.Staging.Changes != cube.NumChanges() {
		t.Fatalf("implausible ingest stats: %+v", stats)
	}
}
