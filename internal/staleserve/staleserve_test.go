package staleserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
)

var (
	once         sync.Once
	server       *httptest.Server
	sharedServer *Server
	truth        *dataset.Truth
	initE        error
)

// initShared trains the shared detector and boots the shared server once
// per test binary. testing.TB so benchmarks share the fixture.
func initShared(tb testing.TB) {
	tb.Helper()
	once.Do(func() {
		cube, tr, err := dataset.Generate(dataset.Small())
		if err != nil {
			initE = err
			return
		}
		det, err := core.Train(cube, core.DefaultConfig())
		if err != nil {
			initE = err
			return
		}
		truth = tr
		sharedServer = newServer(det)
		server = httptest.NewServer(sharedServer.Handler())
	})
	if initE != nil {
		tb.Fatal(initE)
	}
}

// newServer returns a server serving det, the way cmd/staleserve serves a
// trained or loaded epoch.
func newServer(det *core.Detector) *Server {
	s := NewLive()
	s.Swap(det)
	return s
}

func testServer(t *testing.T) (*httptest.Server, *dataset.Truth) {
	t.Helper()
	initShared(t)
	t.Cleanup(func() {}) // the server lives for the whole test binary
	return server, truth
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	srv, _ := testServer(t)
	var body map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["status"] != "ok" || body["fields"].(float64) <= 0 {
		t.Fatalf("body = %v", body)
	}
}

func TestStaleEndpoint(t *testing.T) {
	srv, tr := testServer(t)
	// Ask for staleness right after a planted missed update.
	missed := tr.CaseStudy.MissedDays[0]
	url := fmt.Sprintf("%s/v1/stale?asof=%s&window=3", srv.URL, (missed + 2).String())
	var body struct {
		AsOf   string  `json:"asof"`
		Window int     `json:"window"`
		Total  int     `json:"total"`
		Alerts []Alert `json:"alerts"`
	}
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.Window != 3 || body.Total != len(body.Alerts) {
		t.Fatalf("body = %+v", body)
	}
	found := false
	for _, a := range body.Alerts {
		if a.Page == "2018-19 Handball-Bundesliga" && a.Property == "total_goals" {
			found = true
			if a.Explanation == "" || len(a.Sources) == 0 {
				t.Fatalf("alert without explanation: %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("case-study alert missing among %d alerts", body.Total)
	}
}

func TestStaleLimit(t *testing.T) {
	srv, tr := testServer(t)
	missed := tr.CaseStudy.MissedDays[0]
	url := fmt.Sprintf("%s/v1/stale?asof=%s&window=30&limit=1", srv.URL, (missed + 2).String())
	var body struct {
		Total  int     `json:"total"`
		Alerts []Alert `json:"alerts"`
	}
	getJSON(t, url, &body)
	if len(body.Alerts) > 1 {
		t.Fatalf("limit ignored: %d alerts", len(body.Alerts))
	}
}

func TestFieldMarkerLookup(t *testing.T) {
	srv, tr := testServer(t)
	missed := tr.CaseStudy.MissedDays[0]
	base := fmt.Sprintf("%s/v1/field?page=%s&property=%s&window=3&asof=%s",
		srv.URL, "2018-19%20Handball-Bundesliga", "total_goals", (missed + 2).String())
	var status FieldStatus
	if code := getJSON(t, base, &status); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !status.Stale {
		t.Fatalf("marker not raised: %+v", status)
	}
	if status.LastChanged == "" {
		t.Fatal("last_changed missing")
	}
	// The same field is healthy on a day when it was updated.
	healthy := fmt.Sprintf("%s/v1/field?page=%s&property=%s&window=1&asof=2005-01-01",
		srv.URL, "2018-19%20Handball-Bundesliga", "total_goals")
	var h2 FieldStatus
	getJSON(t, healthy, &h2)
	if h2.Stale {
		t.Fatalf("field stale before it existed: %+v", h2)
	}
}

func TestFieldValidation(t *testing.T) {
	srv, _ := testServer(t)
	var e map[string]string
	if code := getJSON(t, srv.URL+"/v1/field?page=X", &e); code != http.StatusBadRequest {
		t.Fatalf("missing property: status %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/field?page=NoSuchPage&property=nope", &e); code != http.StatusNotFound {
		t.Fatalf("unknown page: status %d", code)
	}
}

func TestBadParameters(t *testing.T) {
	srv, _ := testServer(t)
	var e map[string]string
	for _, q := range []string{"asof=tomorrow", "window=0", "window=abc", "limit=-3"} {
		if code := getJSON(t, srv.URL+"/v1/stale?"+q, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

func TestStats(t *testing.T) {
	srv, _ := testServer(t)
	var body map[string]any
	if code := getJSON(t, srv.URL+"/v1/stats", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, key := range []string{"fields", "correlation_rules", "association_rules", "survival", "span_end"} {
		if _, ok := body[key]; !ok {
			t.Errorf("stats lacks %q", key)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/stale", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestDemoPage(t *testing.T) {
	srv, tr := testServer(t)
	missed := tr.CaseStudy.MissedDays[0]
	url := fmt.Sprintf("%s/demo?page=%s&window=3&asof=%s",
		srv.URL, "2018-19%20Handball-Bundesliga", (missed + 2).String())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	html := string(body)
	for _, want := range []string{"2018-19 Handball-Bundesliga", "total_goals",
		"might be out of date", "matches -&gt; total_goals"} {
		if !strings.Contains(html, want) {
			t.Errorf("demo HTML lacks %q", want)
		}
	}
	// The healthy matches field must not carry a marker row class on its
	// own line... count markers: exactly the stale fields.
	if strings.Count(html, "might be out of date") < 1 {
		t.Error("no stale marker rendered")
	}
}

func TestDemoValidation(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing page: status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/demo?page=NoSuchPage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown page: status = %d", resp.StatusCode)
	}
}
