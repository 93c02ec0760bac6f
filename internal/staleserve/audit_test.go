package staleserve

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// TestAuditLogEvictsOldest serves more positive verdicts than the audit
// log keeps: /v1/audit counts every one in total but buffers only the
// newest auditLogSize, newest first.
func TestAuditLogEvictsOldest(t *testing.T) {
	testServer(t) // trains the shared detector once
	s := newServer(sharedServer.epoch().det)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ep := s.epoch()
	if len(ep.alerts.alerts) < 2 {
		t.Fatalf("need two stale fields, the default window has %d", len(ep.alerts.alerts))
	}
	fieldPath := func(i int) (page, path string) {
		f := ep.alerts.alerts[i].Field
		page = ep.cube.Pages.Name(int32(ep.cube.Page(f.Entity)))
		q := url.Values{"page": {page}, "property": {ep.cube.Properties.Name(int32(f.Property))}}
		return page, "/v1/field?" + q.Encode()
	}
	older, olderPath := fieldPath(0)
	newer, newerPath := fieldPath(1)

	// 200 verdicts on one field, then 100 on another: the buffer keeps all
	// 100 newer ones first, then the newest 156 older ones.
	const nOlder, nNewer = 200, 100
	for i := 0; i < nOlder; i++ {
		doReq(t, s, olderPath)
	}
	for i := 0; i < nNewer; i++ {
		doReq(t, s, newerPath)
	}

	var body struct {
		Total   uint64       `json:"total"`
		Entries []AuditEntry `json:"entries"`
	}
	if err := json.Unmarshal(doReq(t, s, "/v1/audit"), &body); err != nil {
		t.Fatal(err)
	}
	if body.Total != nOlder+nNewer || len(body.Entries) != auditLogSize {
		t.Fatalf("total = %d, buffered = %d; want %d, %d", body.Total, len(body.Entries), nOlder+nNewer, auditLogSize)
	}
	for i, e := range body.Entries {
		want := older
		if i < nNewer {
			want = newer
		}
		if e.Page != want {
			t.Fatalf("entries[%d].page = %q, want %q (newest first)", i, e.Page, want)
		}
	}
}

// TestListLimitParam: /v1/audit and /debug/traces answer a malformed or
// negative ?limit with 400, as /v1/stale and /v1/catalog do, and
// otherwise return at most limit entries.
func TestListLimitParam(t *testing.T) {
	testServer(t) // trains the shared detector once
	s := newServer(sharedServer.epoch().det)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ep := s.epoch()
	f := ep.alerts.alerts[0].Field
	q := url.Values{
		"page":     {ep.cube.Pages.Name(int32(ep.cube.Page(f.Entity)))},
		"property": {ep.cube.Properties.Name(int32(f.Property))},
	}
	// More verdicts than the trace buffer holds, fewer than the audit log
	// does: both lists are stable while the cases below run.
	for i := 0; i < 100; i++ {
		doReq(t, s, "/v1/field?"+q.Encode())
	}

	for _, ep := range []struct{ path, list string }{
		{"/v1/audit", "entries"},
		{"/debug/traces", "traces"},
	} {
		var all map[string]json.RawMessage
		var unlimited []json.RawMessage
		if err := json.Unmarshal(doReq(t, s, ep.path), &all); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(all[ep.list], &unlimited); err != nil {
			t.Fatal(err)
		}
		buffered := len(unlimited)
		if buffered < 10 {
			t.Fatalf("GET %s: %d entries, want at least 10", ep.path, buffered)
		}
		for _, tc := range []struct {
			limit string
			code  int
			want  int // entries returned; -1 = every buffered entry
		}{
			{"abc", http.StatusBadRequest, 0},
			{"-1", http.StatusBadRequest, 0},
			{"1.5", http.StatusBadRequest, 0},
			{"0", http.StatusOK, 0},
			{"2", http.StatusOK, 2},
			{"1000", http.StatusOK, -1},
		} {
			path := ep.path + "?limit=" + tc.limit
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != tc.code {
				t.Fatalf("GET %s = %d, want %d: %s", path, rr.Code, tc.code, rr.Body.String())
			}
			var body map[string]json.RawMessage
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			if tc.code != http.StatusOK {
				if _, ok := body["error"]; !ok {
					t.Fatalf("GET %s: 400 without an error message: %s", path, rr.Body.String())
				}
				continue
			}
			var list []json.RawMessage
			if err := json.Unmarshal(body[ep.list], &list); err != nil {
				t.Fatalf("GET %s: .%s: %v", path, ep.list, err)
			}
			want := tc.want
			if want < 0 {
				want = buffered
			}
			if len(list) != want {
				t.Fatalf("GET %s: %d entries, want %d", path, len(list), want)
			}
		}
	}
}
