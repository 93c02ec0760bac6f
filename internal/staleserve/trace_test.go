package staleserve

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/obs/trace"
)

// findSpan returns the first span with the given name, or nil.
func findSpan(tr trace.Trace, name string) *trace.SpanData {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

// spanByID indexes a trace's spans for parent-chain walks.
func spanByID(tr trace.Trace) map[string]trace.SpanData {
	m := make(map[string]trace.SpanData, len(tr.Spans))
	for _, s := range tr.Spans {
		m[s.SpanID] = s
	}
	return m
}

// TestTracePropagationSingleflight pins the tentpole trace contract: a
// cache-miss request yields one trace whose span tree links the HTTP root
// span through the alert-cache singleflight into DetectStale, and a
// concurrent request for the same key collapses onto that computation
// without growing a second detect_stale span.
func TestTracePropagationSingleflight(t *testing.T) {
	testServer(t) // trains the shared detector once
	rec := trace.New(16)
	s := newServer(sharedServer.epoch().det)
	s.tracer = rec
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 2
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// window=9 dodges the pre-warmed default key: this test needs
			// a genuine miss to observe the singleflight trace chain.
			resp, err := http.Get(srv.URL + "/v1/stale?window=9")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET /v1/stale: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	// The root span ends (and the trace publishes) just after the handler
	// returns, which can trail the client's read by a scheduling beat.
	var staleTraces []trace.Trace
	for range 200 {
		staleTraces = staleTraces[:0]
		for _, tr := range rec.Newest() {
			if tr.Root == "/v1/stale" {
				staleTraces = append(staleTraces, tr)
			}
		}
		if len(staleTraces) == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(staleTraces) != n {
		t.Fatalf("got %d /v1/stale traces, want %d", len(staleTraces), n)
	}

	// Exactly one request computed; the other hit the cache or waited on
	// the in-flight singleflight call.
	var computed []trace.Trace
	for _, tr := range staleTraces {
		if findSpan(tr, "detect_stale") != nil {
			computed = append(computed, tr)
		}
	}
	if len(computed) != 1 {
		t.Fatalf("got %d traces with a detect_stale span, want exactly 1 (singleflight)", len(computed))
	}

	tr := computed[0]
	byID := spanByID(tr)
	detect := findSpan(tr, "detect_stale")
	cache, ok := byID[detect.ParentID]
	if !ok || cache.Name != "alert_cache" {
		t.Fatalf("detect_stale parent = %+v, want the alert_cache span", cache)
	}
	root, ok := byID[cache.ParentID]
	if !ok || root.Name != "/v1/stale" || root.ParentID != "" {
		t.Fatalf("alert_cache parent = %+v, want the /v1/stale root span", root)
	}

	outcomes := map[string]int{}
	for _, st := range staleTraces {
		r := findSpan(st, "/v1/stale")
		if r == nil {
			t.Fatalf("trace %s has no root span record", st.TraceID)
		}
		for _, a := range r.Attrs {
			if a.Key == "cache" {
				outcome, _ := a.Value.(string)
				outcomes[outcome]++
			}
		}
	}
	if outcomes["miss"] != 1 {
		t.Fatalf("cache outcomes %v, want exactly one miss", outcomes)
	}
	if outcomes["hit"]+outcomes["wait"] != n-1 {
		t.Fatalf("cache outcomes %v, want %d hit/wait", outcomes, n-1)
	}
}
