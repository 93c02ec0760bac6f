package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// tracesResponse is the JSON shape of /debug/traces.
type tracesResponse struct {
	// Total counts every trace ever recorded, including evicted ones.
	Total uint64 `json:"total"`
	// Traces lists the buffered traces, newest first.
	Traces []Trace `json:"traces"`
}

// Handler serves the recorder's buffered traces as JSON, newest first.
// ?limit=N truncates the list (a malformed or negative N is a 400);
// ?trace_id=<id> returns just that trace
// (404 when it has been evicted). ?route=<root> keeps only traces whose
// root span has that name (the HTTP middleware roots request traces at
// the route label, so ?route=/v1/stale isolates one endpoint), and
// ?min_ns=<n> keeps only traces at least that slow — together they are
// the triage loop under load: "show me the slow /v1/stale requests".
// Filters apply before limit.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		traces := r.Newest()
		if id := req.URL.Query().Get("trace_id"); id != "" {
			for _, t := range traces {
				if t.TraceID == id {
					writeTraceJSON(w, http.StatusOK, t)
					return
				}
			}
			writeTraceJSON(w, http.StatusNotFound,
				map[string]string{"error": "trace " + id + " not in the buffer (evicted or never recorded)"})
			return
		}
		route := req.URL.Query().Get("route")
		var minNS int64
		if v := req.URL.Query().Get("min_ns"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				writeTraceJSON(w, http.StatusBadRequest,
					map[string]string{"error": "bad min_ns " + strconv.Quote(v) + ": want a non-negative integer"})
				return
			}
			minNS = n
		}
		if route != "" || minNS > 0 {
			kept := traces[:0]
			for _, t := range traces {
				if route != "" && t.Root != route {
					continue
				}
				if t.DurationNS < minNS {
					continue
				}
				kept = append(kept, t)
			}
			traces = kept
		}
		if v := req.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeTraceJSON(w, http.StatusBadRequest,
					map[string]string{"error": "bad limit " + strconv.Quote(v) + ": want a non-negative integer"})
				return
			}
			traces = traces[:min(n, len(traces))]
		}
		writeTraceJSON(w, http.StatusOK, tracesResponse{Total: r.Total(), Traces: traces})
	})
}

func writeTraceJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
