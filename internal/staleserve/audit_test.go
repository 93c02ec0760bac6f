package staleserve

import (
	"encoding/json"
	"io"
	"log/slog"
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
