package staleserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/obs/profilering"
	"github.com/wikistale/wikistale/internal/obs/slo"
)

// newSLOTestServer builds an isolated server (not the shared one — these
// tests mutate SLO state) with a permissive trip policy and a fast
// profile ring.
func newSLOTestServer(t *testing.T) *Server {
	t.Helper()
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.Train(cube, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(det)
	s.slo = slo.New(DefaultSLOs(), DefaultSLOWindows(), slo.TripPolicy{
		ShortWindow:   5 * time.Minute,
		LongWindow:    time.Hour,
		BurnThreshold: 10,
		MinEvents:     20,
	})
	ring := profilering.New(4, 0)
	ring.CPUDuration = 50 * time.Millisecond
	s.profiles = ring
	return s
}

// TestForcedLatencyTripsProfileCapture is the acceptance path: inject
// latency violations, run the burn-rate check, and find a CPU profile in
// the ring and on /debug/profiles.
func TestForcedLatencyTripsProfileCapture(t *testing.T) {
	s := newSLOTestServer(t)

	// Forced latency injection: 30 requests at 50 ms against a 5 ms
	// objective — 100% bad, burning 100x budget on both windows.
	for i := 0; i < 30; i++ {
		s.slo.Record(50*time.Millisecond, false)
	}
	s.checkSLONow()

	// The capture runs in the background; poll the ring.
	deadline := time.Now().Add(5 * time.Second)
	var profiles []profilering.Profile
	for time.Now().Before(deadline) {
		if profiles = s.profiles.Profiles(); len(profiles) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(profiles) == 0 {
		t.Fatal("burn-rate trip captured no profile")
	}
	if profiles[0].Kind != profilering.KindCPU {
		t.Fatalf("latency trip captured %s, want cpu", profiles[0].Kind)
	}
	if !strings.Contains(profiles[0].Reason, "latency_p99_5ms") {
		t.Fatalf("capture reason %q does not name the objective", profiles[0].Reason)
	}

	// The trip is edge-triggered: a second check during the same incident
	// must not schedule another capture.
	before := len(s.profiles.Profiles())
	s.checkSLONow()
	time.Sleep(100 * time.Millisecond)
	if after := len(s.profiles.Profiles()); after != before {
		t.Fatalf("sustained incident captured again: %d -> %d profiles", before, after)
	}

	// /debug/profiles serves the capture.
	rr := doReq(t, s, "/debug/profiles")
	var body struct {
		Profiles []profilering.Profile `json:"profiles"`
	}
	if err := json.Unmarshal(rr, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Profiles) == 0 || body.Profiles[0].Kind != profilering.KindCPU {
		t.Fatalf("/debug/profiles = %+v", body)
	}
}

// TestErrorBurnCapturesHeapProfile proves the availability objective maps
// to a heap capture.
func TestErrorBurnCapturesHeapProfile(t *testing.T) {
	s := newSLOTestServer(t)
	for i := 0; i < 30; i++ {
		s.slo.Record(time.Microsecond, true) // fast 5xx
	}
	s.checkSLONow()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ps := s.profiles.Profiles()
		// Both objectives trip (errors are bad under both); a heap
		// capture must be among them.
		for _, p := range ps {
			if p.Kind == profilering.KindHeap {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("availability burn captured no heap profile: %+v", s.profiles.Profiles())
}

// doReq runs one request through the full handler (middleware included)
// and returns the body.
func doReq(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rr.Code, rr.Body.String())
	}
	return rr.Body.Bytes()
}

// TestDebugSLOEndpoint checks the /debug/slo body shape: objectives,
// windows, burn rates, and the lag context when a source is wired.
func TestDebugSLOEndpoint(t *testing.T) {
	s := newSLOTestServer(t)
	s.SetLagSource(func() float64 { return 12.5 })
	for i := 0; i < 10; i++ {
		s.slo.Record(time.Millisecond, false)
	}

	var body struct {
		Objectives []struct {
			Objective struct {
				Name string `json:"name"`
			} `json:"objective"`
			Windows []struct {
				Window   string  `json:"window"`
				Total    uint64  `json:"total"`
				BurnRate float64 `json:"burn_rate"`
			} `json:"windows"`
			Tripping bool `json:"tripping"`
		} `json:"objectives"`
		IngestLagSeconds *float64 `json:"ingest_lag_seconds"`
		ProfilesBuffered int      `json:"profiles_buffered"`
	}
	if err := json.Unmarshal(doReq(t, s, "/debug/slo"), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(body.Objectives))
	}
	lat := body.Objectives[0]
	if lat.Objective.Name != "latency_p99_5ms" || len(lat.Windows) != 2 {
		t.Fatalf("latency objective = %+v", lat)
	}
	if lat.Windows[0].Total != 10 || lat.Windows[0].BurnRate != 0 {
		t.Fatalf("latency 5m window = %+v, want 10 good requests", lat.Windows[0])
	}
	if body.IngestLagSeconds == nil || *body.IngestLagSeconds != 12.5 {
		t.Fatalf("lag = %v, want 12.5", body.IngestLagSeconds)
	}
}

// TestMiddlewareRecordsDataPlaneOnly proves /v1/* requests land in the
// SLO windows and observability routes do not.
func TestMiddlewareRecordsDataPlaneOnly(t *testing.T) {
	s := newSLOTestServer(t)

	doReq(t, s, "/v1/stats")
	doReq(t, s, "/metrics")
	doReq(t, s, "/statusz")

	rep := s.slo.Snapshot()
	if got := rep.Objectives[0].Windows[0].Total; got != 1 {
		t.Fatalf("SLO saw %d requests, want exactly the /v1/stats one", got)
	}
}

// TestColdStart503DoesNotBurnSLO: a live server answering 503 before its
// first epoch is warming up, not failing — those responses must not
// count against the availability SLO (a cold start would otherwise trip
// burn-rate alerts and heap captures before there is a service at all).
// Once an epoch is installed, data-plane requests record normally.
func TestColdStart503DoesNotBurnSLO(t *testing.T) {
	s := NewLive()
	req, _ := http.NewRequest("GET", "/v1/stale", nil)
	for i := 0; i < 5; i++ {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("cold /v1/stale = %d, want 503", rr.Code)
		}
	}
	rep := s.slo.Snapshot()
	for _, or := range rep.Objectives {
		for _, ws := range or.Windows {
			if ws.Total != 0 {
				t.Fatalf("cold-start 503s recorded against %s: %+v", or.Objective.Name, ws)
			}
		}
	}

	s.Swap(trainSeed(t, 404))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("warm /v1/stale = %d", rr.Code)
	}
	rep = s.slo.Snapshot()
	if got := rep.Objectives[0].Windows[0].Total; got != 1 {
		t.Fatalf("warm request not recorded: total = %d, want 1", got)
	}
}

// TestCatalogEndpoint checks /v1/catalog lists servable pairs that
// /v1/field actually answers for, deterministically ordered.
func TestCatalogEndpoint(t *testing.T) {
	s := newSLOTestServer(t)
	var body struct {
		Epoch  uint64         `json:"epoch"`
		Total  int            `json:"total"`
		Fields []catalogField `json:"fields"`
	}
	if err := json.Unmarshal(doReq(t, s, "/v1/catalog"), &body); err != nil {
		t.Fatal(err)
	}
	if body.Total == 0 || len(body.Fields) == 0 {
		t.Fatalf("empty catalog: %+v", body)
	}
	for i := 1; i < len(body.Fields); i++ {
		a, b := body.Fields[i-1], body.Fields[i]
		if a.Page > b.Page || (a.Page == b.Page && a.Property >= b.Property) {
			t.Fatalf("catalog unsorted at %d: %+v then %+v", i, a, b)
		}
	}
	// Every catalog entry must answer 200 on /v1/field.
	f := body.Fields[0]
	req, _ := http.NewRequest("GET", "/v1/field?page="+url.QueryEscape(f.Page)+"&property="+url.QueryEscape(f.Property), nil)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("catalog entry %+v not servable: %d %s", f, rr.Code, rr.Body.String())
	}

	// Limit caps the list but reports the full total.
	var limited struct {
		Total  int            `json:"total"`
		Fields []catalogField `json:"fields"`
	}
	if err := json.Unmarshal(doReq(t, s, "/v1/catalog?limit=1"), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Fields) != 1 || limited.Total != body.Total {
		t.Fatalf("limited catalog = %d fields total %d, want 1/%d", len(limited.Fields), limited.Total, body.Total)
	}
}

// TestStatuszHasRuntimeAndSLO checks the new /statusz sections render.
func TestStatuszHasRuntimeAndSLO(t *testing.T) {
	s := newSLOTestServer(t)
	out := string(doReq(t, s, "/statusz"))
	for _, want := range []string{"runtime:", "goroutines:", "slo (data-plane routes", "latency_p99_5ms", "availability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("statusz missing %q:\n%s", want, out)
		}
	}
}
