package staleserve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/wikistale/wikistale/internal/obs/profilering"
	"github.com/wikistale/wikistale/internal/obs/slo"
)

// Serving-SLO defaults. The latency objective is deliberately tight —
// the hot path answers cached lookups in microseconds, so 5 ms at p99 is
// the "something changed" line, not an aspiration.
const (
	profileRingSize = 8
	profileCooldown = 2 * time.Minute
)

// DefaultSLOs returns the serving objectives: 99% of data-plane requests
// under 5 ms, and 99.9% not answering 5xx.
func DefaultSLOs() []slo.Objective {
	return []slo.Objective{
		{Name: "latency_p99_5ms", Target: 0.99, LatencyThreshold: 5 * time.Millisecond},
		{Name: "availability", Target: 0.999},
	}
}

// DefaultSLOWindows returns the rolling windows burn rates are computed
// over: 5 minutes (is it happening now?) and 1 hour (is it substantial?).
func DefaultSLOWindows() []time.Duration {
	return []time.Duration{5 * time.Minute, time.Hour}
}

// DefaultTripPolicy returns the multi-window burn-rate rule that arms
// triggered profiling: both the 5 m and 1 h burn above 10x budget, with
// at least 200 requests in the short window so a traffic trickle cannot
// page.
func DefaultTripPolicy() slo.TripPolicy {
	return slo.TripPolicy{
		ShortWindow:   5 * time.Minute,
		LongWindow:    time.Hour,
		BurnThreshold: 10,
		MinEvents:     200,
	}
}

// SetLagSource wires the live ingest feed lag (seconds) into /debug/slo
// and /statusz — the freshness context next to the serving burn rates
// (typically ingest.Manager.FeedLag).
func (s *Server) SetLagSource(fn func() float64) { s.lagSource = fn }

// StartRuntimeSampler launches the background runtime/metrics loop;
// binaries call it at boot so the wikistale_go_* gauges stay fresh
// between scrapes. Scrape-time sampling works without it.
func (s *Server) StartRuntimeSampler() { s.rtstats.Start() }

// StopRuntimeSampler stops the background loop (shutdown path).
func (s *Server) StopRuntimeSampler() { s.rtstats.Stop() }

// maybeCheckSLO runs the burn-rate trip check at most once per second —
// the per-request cost is one atomic load on the fast path.
func (s *Server) maybeCheckSLO() {
	now := time.Now().Unix()
	last := s.lastSLOCheck.Load()
	if now == last || !s.lastSLOCheck.CompareAndSwap(last, now) {
		return
	}
	s.checkSLONow()
}

// checkSLONow evaluates the trip policy and, for every objective that
// just started tripping, captures a profile into the ring in the
// background: a CPU profile for a latency burn (where is the time
// going?), a heap profile for an availability burn (what state did the
// failures leave behind?). The ring's cooldown and single-capture guard
// bound the cost no matter how often trips fire.
func (s *Server) checkSLONow() {
	trips := s.slo.CheckTrips()
	if len(trips) == 0 {
		return
	}
	type capture struct {
		kind   profilering.Kind
		reason string
	}
	captures := make([]capture, 0, len(trips))
	for _, tr := range trips {
		kind := profilering.KindCPU
		if tr.Objective.LatencyThreshold == 0 {
			kind = profilering.KindHeap
		}
		reason := fmt.Sprintf("slo %s burning %.1fx budget (short) / %.1fx (long)",
			tr.Objective.Name, tr.ShortBurn, tr.LongBurn)
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slo burn-rate trip",
			slog.String("objective", tr.Objective.Name),
			slog.Float64("short_burn", tr.ShortBurn),
			slog.Float64("long_burn", tr.LongBurn),
			slog.String("profile", string(kind)),
		)
		captures = append(captures, capture{kind, reason})
	}
	// One goroutine runs the captures serially: concurrent attempts would
	// race for the ring's single-capture guard and drop all but one, and a
	// CPU profile blocks for its whole sampling window.
	go func() {
		for _, c := range captures {
			captured, err := s.profiles.TryCapture(c.kind, c.reason)
			switch {
			case err != nil:
				s.logger.LogAttrs(context.Background(), slog.LevelWarn, "triggered profile failed",
					slog.String("kind", string(c.kind)), slog.String("error", err.Error()))
			case captured:
				s.logger.LogAttrs(context.Background(), slog.LevelInfo, "triggered profile captured",
					slog.String("kind", string(c.kind)), slog.String("reason", c.reason))
			}
		}
	}()
}

// sloResponse is the JSON body of /debug/slo: the tracker snapshot plus
// the serving-freshness context an SLO review needs alongside it.
type sloResponse struct {
	slo.Report
	// EpochAgeSeconds is the age of the serving detector epoch (0 before
	// the first swap).
	EpochAgeSeconds float64 `json:"epoch_age_seconds"`
	// IngestLagSeconds is the live feed lag; absent without a feed (-live).
	IngestLagSeconds *float64 `json:"ingest_lag_seconds,omitempty"`
	// ProfilesBuffered is the number of triggered profiles waiting in
	// /debug/profiles.
	ProfilesBuffered int `json:"profiles_buffered"`
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	resp := sloResponse{
		Report:           s.slo.Snapshot(),
		ProfilesBuffered: s.profiles.Len(),
	}
	if nanos := s.swapNanos.Load(); nanos > 0 {
		resp.EpochAgeSeconds = time.Since(time.Unix(0, nanos)).Seconds()
	}
	if s.lagSource != nil {
		lag := s.lagSource()
		resp.IngestLagSeconds = &lag
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	s.profiles.Handler().ServeHTTP(w, r)
}

// catalogField is one (page, property) pair the detector can answer for.
type catalogField struct {
	Page     string `json:"page"`
	Property string `json:"property"`
}

// handleCatalog lists the servable (page, property) pairs — every key
// /v1/field and /v1/explain will answer 200 for. The load harness
// (cmd/staleload) uses it to aim zipf-distributed traffic at the real
// keyspace instead of guessing names. ?limit=N caps the list (default
// 4096, 0 = everything); order is page-name then property-name, so the
// zipf head is stable across runs.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	ep := s.requireEpoch(w, r)
	if ep == nil {
		return
	}
	limit := 4096
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	fields := make([]catalogField, 0, len(ep.fields.entries))
	for i := range ep.fields.entries {
		k := ep.fields.entries[i].key
		fields = append(fields, catalogField{
			Page:     ep.cube.Pages.Name(int32(k.page())),
			Property: ep.cube.Properties.Name(int32(k.prop())),
		})
	}
	sort.Slice(fields, func(i, j int) bool {
		if fields[i].Page != fields[j].Page {
			return fields[i].Page < fields[j].Page
		}
		return fields[i].Property < fields[j].Property
	})
	total := len(fields)
	if limit > 0 && len(fields) > limit {
		fields = fields[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":  ep.seq,
		"total":  total,
		"fields": fields,
	})
}
