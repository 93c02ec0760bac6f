package staleserve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/wikistale/wikistale/internal/obs/trace"
	"github.com/wikistale/wikistale/internal/timeline"
)

// auditLogSize bounds the in-memory audit log of recent positive
// predictions. Positive verdicts are the system's outward-facing claims
// ("this value might be out of date"), so the last few hundred are kept
// reviewable at /v1/audit without any storage dependency.
const auditLogSize = 256

// AuditEntry is one positive staleness verdict the server handed out.
type AuditEntry struct {
	Time     time.Time `json:"time"`
	Route    string    `json:"route"`
	Page     string    `json:"page"`
	Property string    `json:"property"`
	AsOf     string    `json:"asof"`
	Window   int       `json:"window_days"`
	Epoch    uint64    `json:"epoch"`
	Summary  string    `json:"summary"`
	// TraceID links the verdict to its request trace in /debug/traces,
	// when the trace is still buffered.
	TraceID string `json:"trace_id,omitempty"`
}

// recordAudit appends one positive verdict served to a client.
func (s *Server) recordAudit(r *http.Request, ep *epoch, page, property string, asOf timeline.Day, window int, summary string) {
	s.audit.Push(AuditEntry{
		Time:     time.Now(),
		Route:    routeLabel(r.URL.Path),
		Page:     page,
		Property: property,
		AsOf:     asOf.String(),
		Window:   window,
		Epoch:    ep.seq,
		Summary:  summary,
		TraceID:  trace.FromContext(r.Context()).TraceID(),
	})
}

// handleAudit serves the recent positive predictions, newest first.
// ?limit=N truncates the list; a malformed or negative N is a 400.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	entries := s.audit.Newest()
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		entries = entries[:min(n, len(entries))]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   s.audit.Total(),
		"entries": entries,
	})
}
