package trace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeLinks(t *testing.T) {
	rec := New(4)
	ctx, root := StartIn(rec, context.Background(), "root")
	ctx2, child := Start(ctx, "child")
	_, grand := Start(ctx2, "grandchild")
	grand.SetAttr("k", 42)
	grand.End()
	child.End()
	root.SetAttr("route", "/test")
	root.End()

	traces := rec.Newest()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root != "root" || len(tr.Spans) != 3 {
		t.Fatalf("trace = %+v", tr)
	}
	byName := map[string]SpanData{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Errorf("child parent = %s, want root %s", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Errorf("grandchild parent = %s, want child %s", byName["grandchild"].ParentID, byName["child"].SpanID)
	}
	if byName["root"].ParentID != "" {
		t.Errorf("root has parent %s", byName["root"].ParentID)
	}
	if len(byName["grandchild"].Attrs) != 1 || byName["grandchild"].Attrs[0].Key != "k" {
		t.Errorf("grandchild attrs = %v", byName["grandchild"].Attrs)
	}
	if tr.TraceID == "" || tr.DurationNS < byName["child"].DurationNS {
		t.Errorf("trace id/duration inconsistent: %+v", tr)
	}
}

func TestStartChildWithoutTraceIsNoop(t *testing.T) {
	ctx, s := StartChild(context.Background(), "orphan")
	if s != nil {
		t.Fatalf("StartChild on a bare context returned a span")
	}
	// All methods must be nil-safe.
	s.SetAttr("k", "v")
	s.End()
	if s.TraceID() != "" || s.SpanID() != "" || s.Name() != "" {
		t.Errorf("nil span leaked identifiers")
	}
	if FromContext(ctx) != nil {
		t.Errorf("context gained a span")
	}
}

func TestRingEviction(t *testing.T) {
	rec := New(2)
	for i := 0; i < 5; i++ {
		_, s := StartIn(rec, context.Background(), "t")
		s.SetAttr("i", i)
		s.End()
	}
	if rec.Len() != 2 {
		t.Fatalf("len = %d, want 2", rec.Len())
	}
	if rec.Total() != 5 {
		t.Fatalf("total = %d, want 5", rec.Total())
	}
	traces := rec.Newest()
	// Newest first: attrs i=4 then i=3.
	want := []int{4, 3}
	for j, tr := range traces {
		got := tr.Spans[0].Attrs[0].Value.(int)
		if got != want[j] {
			t.Errorf("trace %d has i=%v, want %d", j, got, want[j])
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	rec := New(4)
	ctx, root := StartIn(rec, context.Background(), "root")
	_, child := Start(ctx, "child")
	child.End()
	child.End()
	root.End()
	root.End()
	if rec.Len() != 1 {
		t.Fatalf("len = %d, want 1", rec.Len())
	}
	if n := len(rec.Newest()[0].Spans); n != 2 {
		t.Fatalf("spans = %d, want 2", n)
	}
}

func TestLateChildDropped(t *testing.T) {
	rec := New(4)
	ctx, root := StartIn(rec, context.Background(), "root")
	_, child := Start(ctx, "late")
	root.End()
	child.End() // after the trace froze
	tr := rec.Newest()[0]
	if len(tr.Spans) != 1 || tr.DroppedSpans != 1 {
		t.Fatalf("spans=%d dropped=%d, want 1/1", len(tr.Spans), tr.DroppedSpans)
	}
}

func TestConcurrentChildren(t *testing.T) {
	rec := New(4)
	ctx, root := StartIn(rec, context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := Start(ctx, "worker")
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	tr := rec.Newest()[0]
	if len(tr.Spans) != 33 {
		t.Fatalf("spans = %d, want 33", len(tr.Spans))
	}
	for _, s := range tr.Spans {
		if s.Name == "worker" && s.ParentID != root.SpanID() {
			t.Fatalf("worker parent = %s, want %s", s.ParentID, root.SpanID())
		}
	}
}

func TestHandlerJSON(t *testing.T) {
	rec := New(4)
	_, s := StartIn(rec, context.Background(), "req")
	s.End()
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Total  uint64  `json:"total"`
		Traces []Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Total != 1 || len(body.Traces) != 1 || body.Traces[0].Root != "req" {
		t.Fatalf("body = %+v", body)
	}

	// Single-trace lookup and the 404 path.
	resp2, err := srv.Client().Get(srv.URL + "?trace_id=" + body.Traces[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("trace_id lookup = %d", resp2.StatusCode)
	}
	resp3, err := srv.Client().Get(srv.URL + "?trace_id=deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 404 {
		t.Fatalf("missing trace = %d, want 404", resp3.StatusCode)
	}
}

func TestHandlerFilters(t *testing.T) {
	rec := New(8)
	// Two fast /v1/field traces, one slow /v1/stale trace.
	for i := 0; i < 2; i++ {
		_, s := StartIn(rec, context.Background(), "/v1/field")
		s.End()
	}
	_, slow := StartIn(rec, context.Background(), "/v1/stale")
	time.Sleep(2 * time.Millisecond)
	slow.End()

	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	get := func(query string) (int, tracesResponse) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body tracesResponse
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, body
	}

	// route= isolates one endpoint's traces.
	if code, body := get("?route=/v1/field"); code != 200 || len(body.Traces) != 2 {
		t.Fatalf("route filter: code=%d traces=%d, want 200/2", code, len(body.Traces))
	}
	// min_ns keeps only the slow trace (the fast ones end in < 1 ms).
	if code, body := get("?min_ns=1000000"); code != 200 || len(body.Traces) != 1 || body.Traces[0].Root != "/v1/stale" {
		t.Fatalf("min_ns filter: code=%d body=%+v", code, body)
	}
	// Filters compose: a route with no trace that slow matches nothing.
	if code, body := get("?route=/v1/field&min_ns=1000000000"); code != 200 || len(body.Traces) != 0 {
		t.Fatalf("composed filter: code=%d traces=%d, want 200/0", code, len(body.Traces))
	}
	// Filters apply before limit.
	if code, body := get("?route=/v1/field&limit=1"); code != 200 || len(body.Traces) != 1 || body.Traces[0].Root != "/v1/field" {
		t.Fatalf("filter+limit: code=%d body=%+v", code, body)
	}
	// Total still reports the recorder's lifetime count, not the filtered view.
	if _, body := get("?route=/v1/field"); body.Total != 3 {
		t.Fatalf("total = %d, want 3", body.Total)
	}
	// Malformed min_ns is a 400, not a silent full listing.
	if code, _ := get("?min_ns=soon"); code != 400 {
		t.Fatalf("bad min_ns: code=%d, want 400", code)
	}
}
