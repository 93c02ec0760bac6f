package staleserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line whose name and
// labels contain every given substring. Returns -1 when absent.
func metricValue(text string, substrs ...string) float64 {
line:
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		for _, s := range substrs {
			if !strings.Contains(l, s) {
				continue line
			}
		}
		fields := strings.Fields(l)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		return v
	}
	return -1
}

var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|\+Inf|NaN)$`)

func TestMetricsPrometheusParseable(t *testing.T) {
	srv, _ := testServer(t)
	text := scrape(t, srv.URL)
	if strings.TrimSpace(text) == "" {
		t.Fatal("empty /metrics")
	}
	for _, l := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(l, "#") {
			if !strings.HasPrefix(l, "# HELP ") && !strings.HasPrefix(l, "# TYPE ") {
				t.Errorf("unknown comment line %q", l)
			}
			continue
		}
		if !sampleLine.MatchString(l) {
			t.Errorf("malformed sample line %q", l)
		}
	}
}

func TestMetricsExposesTrainStages(t *testing.T) {
	srv, _ := testServer(t)
	text := scrape(t, srv.URL)
	// Training ran in testServer; every train stage, the filter included,
	// must have recorded at least one observation.
	for _, stage := range []string{
		"train/filter", "train/correlation", "train/assocrules", "train/seasonal",
		"train/familycorr", "train/threshold", "train/ensembles", "train/evidence",
		"train/assoc_transactions", "train/assoc_holdout", "train/assoc_mine", "train/assoc_validate",
	} {
		v := metricValue(text, "wikistale_train_stage_seconds_count", fmt.Sprintf(`stage="%s"`, stage))
		if v < 1 {
			t.Errorf("no wikistale_train_stage_seconds observation for stage %q", stage)
		}
	}
	for _, counter := range []string{
		"wikistale_filter_stage_in_total", "wikistale_filter_stage_out_total",
	} {
		if v := metricValue(text, counter, `stage="filter/bot_reverts"`); v < 0 {
			t.Errorf("%s missing", counter)
		}
	}
}

func TestMetricsJSONFormat(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var decoded map[string]obs.JSONFamily
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if f, ok := decoded["wikistale_train_stage_seconds"]; !ok || f.Type != "histogram" || len(f.Series) == 0 {
		t.Fatalf("wikistale_train_stage_seconds JSON family = %+v (present=%v)", f, ok)
	}
}

func TestMiddlewareCountsRequests(t *testing.T) {
	srv, _ := testServer(t)
	before := scrape(t, srv.URL)
	b := metricValue(before, "wikistale_http_requests_total", `route="/healthz"`)
	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, srv.URL)
	a := metricValue(after, "wikistale_http_requests_total", `route="/healthz"`)
	if a < b+1 || b < 0 && a < 1 {
		t.Fatalf("request counter not monotone: before=%v after=%v", b, a)
	}
	if v := metricValue(after, "wikistale_http_responses_total", `class="2xx"`); v < 1 {
		t.Fatalf("no 2xx responses counted: %v", v)
	}
}

func TestMiddlewareRecordsStatusClasses(t *testing.T) {
	srv, _ := testServer(t)
	before := metricValue(scrape(t, srv.URL), "wikistale_http_responses_total", `class="4xx"`)
	resp, err := http.Get(srv.URL + "/v1/field?page=onlypage") // 400: property missing
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	after := metricValue(scrape(t, srv.URL), "wikistale_http_responses_total", `class="4xx"`)
	if before < 0 {
		before = 0
	}
	if after < before+1 {
		t.Fatalf("4xx counter: before=%v after=%v", before, after)
	}
}

func TestLatencyHistogramConsistent(t *testing.T) {
	srv, _ := testServer(t)
	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, srv.URL)
	count := metricValue(text, "wikistale_http_request_seconds_count", `route="/healthz"`)
	inf := metricValue(text, "wikistale_http_request_seconds_bucket", `route="/healthz"`, `le="+Inf"`)
	if count < 1 {
		t.Fatalf("latency histogram count = %v", count)
	}
	if inf != count {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
	if sum := metricValue(text, "wikistale_http_request_seconds_sum", `route="/healthz"`); sum < 0 {
		t.Fatalf("latency sum missing (= %v)", sum)
	}
}

func TestAlertCacheCounters(t *testing.T) {
	srv, tr := testServer(t)
	asof := (tr.CaseStudy.MissedDays[0] + 2).String()
	// A window size no other test uses, so the first request is a miss.
	url := fmt.Sprintf("%s/v1/stale?asof=%s&window=17", srv.URL, asof)

	misses0 := metricValue(scrape(t, srv.URL), "wikistale_alert_cache_misses_total")
	hits0 := metricValue(scrape(t, srv.URL), "wikistale_alert_cache_hits_total")
	if misses0 < 0 || hits0 < 0 {
		t.Fatal("cache counters not exposed")
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	text := scrape(t, srv.URL)
	misses1 := metricValue(text, "wikistale_alert_cache_misses_total")
	hits1 := metricValue(text, "wikistale_alert_cache_hits_total")
	if misses1 != misses0+1 {
		t.Errorf("misses: %v -> %v, want exactly one new miss", misses0, misses1)
	}
	if hits1 < hits0+2 {
		t.Errorf("hits: %v -> %v, want at least two new hits", hits0, hits1)
	}
}

func TestAlertSingleflight(t *testing.T) {
	srv, tr := testServer(t)
	asof := (tr.CaseStudy.MissedDays[0] + 2).String()
	// Unique window again: the concurrent burst shares one computation.
	url := fmt.Sprintf("%s/v1/stale?asof=%s&window=19", srv.URL, asof)

	misses0 := metricValue(scrape(t, srv.URL), "wikistale_alert_cache_misses_total")
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	misses1 := metricValue(scrape(t, srv.URL), "wikistale_alert_cache_misses_total")
	if misses1 != misses0+1 {
		t.Fatalf("misses %v -> %v: concurrent identical requests must share one computation", misses0, misses1)
	}
}

func TestInFlightGaugeExposed(t *testing.T) {
	srv, _ := testServer(t)
	text := scrape(t, srv.URL)
	// The scraping request itself is in flight while /metrics renders.
	if v := metricValue(text, "wikistale_http_in_flight"); v < 1 {
		t.Fatalf("in-flight gauge = %v, want >= 1", v)
	}
}

func TestPprofServable(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
	}
	// The CPU profile endpoint streams for ?seconds=N; just confirm the
	// route is wired by asking for a tiny profile.
	resp, err := http.Get(srv.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/profile status = %d", resp.StatusCode)
	}
}

func TestFieldHistoryIndexMatchesScan(t *testing.T) {
	srv, _ := testServer(t)
	_ = srv
	// Rebuild a server handle to reach internals: testServer keeps only
	// the httptest server, so reconstruct the index check through the
	// package-level instance created there.
	s := sharedServer
	if s == nil {
		t.Skip("shared server not initialized")
	}
	ep := s.epoch()
	if ep == nil {
		t.Fatal("no epoch installed")
	}
	if len(ep.fields.entries) == 0 {
		t.Fatal("compiled field index empty")
	}
	// Entries must be strictly sorted by packed key — the binary search
	// contract — and every entry must address a consistent entity.
	for i := range ep.fields.entries {
		e := &ep.fields.entries[i]
		if i > 0 && ep.fields.entries[i-1].key >= e.key {
			t.Fatalf("entries unsorted at %d: %#x then %#x", i, ep.fields.entries[i-1].key, e.key)
		}
		if ep.cube.Page(e.entity) != e.key.page() {
			t.Fatalf("entry %#x addresses entity %d on page %d", e.key, e.entity, ep.cube.Page(e.entity))
		}
	}
	// Every recorded history must resolve through the compiled index to
	// an entry with history coverage.
	histCount := 0
	for _, h := range ep.det.Histories().Histories() {
		k := packKey(ep.cube.Page(h.Field.Entity), h.Field.Property)
		fe := ep.fields.lookup(k)
		if fe == nil {
			t.Fatalf("history field %+v missing from compiled index", h.Field)
		}
		if !fe.hasHistory {
			t.Fatalf("history field %+v compiled without history coverage", h.Field)
		}
	}
	for i := range ep.fields.entries {
		if ep.fields.entries[i].hasHistory {
			histCount++
		}
	}
	if histCount > ep.det.Histories().Len() {
		t.Fatalf("index holds more history entries than the history set: %d > %d",
			histCount, ep.det.Histories().Len())
	}
	// A key outside the compiled set must miss.
	if fe := ep.fields.lookup(packKey(changecube.PageID(1<<30), changecube.PropertyID(1<<30))); fe != nil {
		t.Fatalf("lookup of absent key returned %+v", fe)
	}
}
