// Package staleserve exposes a trained detector over HTTP — the service
// behind the paper's Figure 1: a reader-facing marker asking "is this
// infobox value possibly out of date?", plus editor-facing listings of
// everything currently stale. Responses are JSON.
//
// The detector is held in an atomically swappable epoch: the trained
// model, its compiled (page, property) field index, and its alert cache
// travel together behind one atomic pointer, so a live retrain
// (internal/ingest) can hot-swap a fresh model with zero downtime and no
// request ever observing a mixed detector/index state. The field index is
// compiled at swap time into flat sorted arrays with pre-rendered
// response bodies (see compile.go), so the steady-state /v1/field path
// runs without maps, encoders, or allocations. Handlers load the epoch
// once per request and use it throughout; all per-epoch state is
// read-only after construction apart from the alert cache, which has its
// own per-shard locks.
//
// Every request passes through one observability middleware: a root trace
// span (propagated through the alert-cache singleflight into DetectStale,
// served at /debug/traces), request metrics with trace exemplars on the
// latency histogram, and one structured request log line carrying status,
// latency, cache outcome, and epoch. Error responses are structured JSON
// with the request's trace ID, so a failing call can be looked up in the
// trace buffer. GET /metrics renders the process-wide obs registry in
// Prometheus text format (or JSON with ?format=json), /statusz is the
// human-readable status page, and /debug/pprof/* serves the standard Go
// profiles.
package staleserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/olog"
	"github.com/wikistale/wikistale/internal/obs/profilering"
	"github.com/wikistale/wikistale/internal/obs/quality"
	"github.com/wikistale/wikistale/internal/obs/ring"
	"github.com/wikistale/wikistale/internal/obs/runtimestats"
	"github.com/wikistale/wikistale/internal/obs/slo"
	"github.com/wikistale/wikistale/internal/obs/trace"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Alert is the JSON shape of one stale-field finding.
type Alert struct {
	Page        string   `json:"page"`
	Template    string   `json:"template"`
	Property    string   `json:"property"`
	WindowStart string   `json:"window_start"`
	WindowEnd   string   `json:"window_end"`
	Sources     []string `json:"sources"`
	Explanation string   `json:"explanation"`
}

// FieldStatus answers the Figure-1 marker lookup for one field.
type FieldStatus struct {
	Page        string `json:"page"`
	Property    string `json:"property"`
	Stale       bool   `json:"stale"`
	Explanation string `json:"explanation,omitempty"`
	// LastChanged is the field's most recent known change day.
	LastChanged string `json:"last_changed,omitempty"`
}

// epoch is one served detector generation. Everything a request needs —
// the detector, the cube it references, the compiled field index, and the
// alert cache — lives together, so an atomic swap replaces all of it at
// once: a swap invalidates cached alerts and field lookups as a unit.
type epoch struct {
	seq  uint64
	det  *core.Detector
	cube *changecube.Cube
	// span is the detector's data span, computed once at swap time —
	// HistorySet.Span scans every history, and the default-asof path of
	// every staleness request needs span.End.
	span timeline.Span

	// fields is the compiled read-only lookup index: every (page,
	// property) pair the detector can say anything about — observed
	// histories plus history-less rule consequents — as a sorted flat
	// array of packed keys with pre-rendered /v1/field bodies. Pairs
	// outside it 404. See compile.go.
	fields *compiledFields

	cache *alertCache

	// alerts is the default-window alert set computed at swap time (the
	// same value pre-warmed into the cache) — the epoch-diff and quality
	// scorer read it without recomputing DetectStale.
	alerts *alertSet
}

// Server serves a trained detector behind an atomically swappable epoch.
type Server struct {
	mux    *http.ServeMux
	reg    *obs.Registry
	tracer *trace.Recorder
	logger *slog.Logger
	audit  *ring.Ring[AuditEntry]

	// ep is nil until the first Swap (live cold start); handlers answer
	// 503 in that state.
	ep   atomic.Pointer[epoch]
	seqs atomic.Uint64
	// swapNanos is the wall-clock time of the last Swap (unix nanoseconds),
	// backing the wikistale_epoch_age_seconds gauge and /statusz.
	swapNanos atomic.Int64
	started   time.Time

	// ingestStats, when set, backs /v1/ingest/stats and the ingest section
	// of /statusz.
	ingestStats func() any
	// storeStats, when set (-store), backs the epoch-store section of
	// /statusz: snapshot counts, durations, and the boot outcome.
	storeStats func() any
	// lagSource, when set (live mode), reports the current ingest feed lag
	// in seconds — the data-freshness context on /debug/slo and /statusz.
	lagSource func() float64

	// slo tracks the serving SLOs over the data-plane routes; profiles is
	// the triggered-profiling ring a burn-rate trip captures into; rtstats
	// samples runtime/metrics at scrape time (and continuously once a
	// binary calls StartRuntimeSampler).
	slo      *slo.Tracker
	profiles *profilering.Ring
	rtstats  *runtimestats.Sampler
	// lastSLOCheck gates the burn-rate evaluation to at most once per
	// second (unix seconds), so the trip check costs nothing per request.
	lastSLOCheck atomic.Int64

	inFlightGauge *obs.Gauge
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheWaits    *obs.Counter
	swapsTotal    *obs.Counter
	epochGauge    *obs.Gauge
	epochAge      *obs.Gauge
	swapSeconds   *obs.Histogram
	swapBytes     *obs.Gauge

	// scorer is the online alert-outcome scorer (nil unless wired via
	// SetQualityScorer); diffRing is the bounded epoch-diff history behind
	// /debug/epochdiff (always present).
	scorer   *quality.Scorer
	diffRing *ring.Ring[quality.EpochDiff]
}

// NewLive constructs a server with no detector yet: every data endpoint
// answers 503 and /readyz reports not-ready until the first Swap installs
// one: a loaded or trained epoch at boot, then every retrain of a live
// feed. Traces record into
// trace.Default and logs go to slog.Default() — binaries configure both
// before constructing the server (olog.Setup); tests may override with
// SetLogger.
func NewLive() *Server {
	s := &Server{
		mux:      http.NewServeMux(),
		reg:      obs.Default,
		tracer:   trace.Default,
		logger:   slog.Default(),
		audit:    ring.New[AuditEntry](auditLogSize),
		started:  time.Now(),
		slo:      slo.New(DefaultSLOs(), DefaultSLOWindows(), DefaultTripPolicy()),
		profiles: profilering.New(profileRingSize, profileCooldown),
		rtstats:  runtimestats.New(obs.Default, 10*time.Second),
		diffRing: ring.New[quality.EpochDiff](quality.DefaultRingCap),
	}

	s.reg.SetHelp("wikistale_http_requests_total", "HTTP requests served, by route and method.")
	s.reg.SetHelp("wikistale_http_responses_total", "HTTP responses, by status class (2xx/3xx/4xx/5xx).")
	s.reg.SetHelp("wikistale_http_request_seconds", "HTTP request latency in seconds, by route.")
	s.reg.SetHelp("wikistale_http_in_flight", "Requests currently being served.")
	s.reg.SetHelp("wikistale_alert_cache_hits_total", "DetectStale calls answered from the alert cache.")
	s.reg.SetHelp("wikistale_alert_cache_misses_total", "DetectStale calls that ran the detector.")
	s.reg.SetHelp("wikistale_alert_cache_waits_total", "DetectStale calls that waited on an identical in-flight computation.")
	s.reg.SetHelp("wikistale_detector_swaps_total", "Detector epochs installed (initial load included).")
	s.reg.SetHelp("wikistale_detector_epoch", "Sequence number of the currently served detector epoch.")
	s.reg.SetHelp("wikistale_epoch_age_seconds", "Seconds since the serving detector epoch was installed (computed at scrape time).")
	s.reg.SetHelp("wikistale_swap_duration_seconds", "Wall time of one epoch swap: field-index compile, cache pre-warm, diff, scorer registration.")
	s.reg.SetHelp("wikistale_swap_compile_bytes", "Bytes in the current epoch's compiled field-index arena (pre-rendered bodies).")
	s.reg.SetHelp("wikistale_epoch_diff_total", "Epoch diffs computed (one per swap).")
	s.reg.SetHelp("wikistale_epoch_diff_changes_total", "Individual model changes seen across epoch diffs, by kind.")
	s.reg.SetHelp("wikistale_epoch_diff_last", "Change counts of the most recent epoch diff, by kind.")
	s.inFlightGauge = s.reg.Gauge("wikistale_http_in_flight", nil)
	s.cacheHits = s.reg.Counter("wikistale_alert_cache_hits_total", nil)
	s.cacheMisses = s.reg.Counter("wikistale_alert_cache_misses_total", nil)
	s.cacheWaits = s.reg.Counter("wikistale_alert_cache_waits_total", nil)
	s.swapsTotal = s.reg.Counter("wikistale_detector_swaps_total", nil)
	s.epochGauge = s.reg.Gauge("wikistale_detector_epoch", nil)
	s.epochAge = s.reg.Gauge("wikistale_epoch_age_seconds", nil)
	s.swapSeconds = s.reg.Histogram("wikistale_swap_duration_seconds", obs.DurationBuckets, nil)
	s.swapBytes = s.reg.Gauge("wikistale_swap_compile_bytes", nil)
	registerBuildInfo(s.reg)

	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/stale", s.handleStale)
	s.mux.HandleFunc("GET /v1/field", s.handleField)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/audit", s.handleAudit)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/ingest/stats", s.handleIngestStats)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /demo", s.handleDemo)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/quality", s.handleQuality)
	s.mux.HandleFunc("GET /debug/epochdiff", s.handleEpochDiff)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	s.mux.HandleFunc("GET /debug/profiles", s.handleProfiles)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// SetLogger replaces the request logger (the default is the process
// logger at construction time).
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// Swap atomically installs a freshly trained detector as the new serving
// epoch. In-flight requests finish on the epoch they started with; new
// requests see the new detector, a new field index, and an empty alert
// cache. Safe to call from any goroutine — this is the callback live
// ingestion hands to ingest.NewManager.
func (s *Server) Swap(det *core.Detector) {
	start := time.Now()
	cube := det.Histories().Cube()
	// The servable keyspace is compiled once here: observed histories
	// plus the history-less rule consequents (association rules cover
	// them without any recorded history, so a freshly created infobox
	// gets coverage from day one). HistorylessConsequents is sorted, so
	// the entity winning a (page, property) tie is deterministic across
	// restarts — no map iteration feeds the index.
	ep := &epoch{
		seq:    s.seqs.Add(1),
		det:    det,
		cube:   cube,
		span:   det.Histories().Span(),
		fields: compileFields(det.Histories().Histories(), det.HistorylessConsequents(), cube),
		cache:  newAlertCache(alertCacheShardCap),
	}
	// Pre-warm the default dashboard key — no asof, default window — so
	// the first staleness request after a swap (or a store boot) hits the
	// cache instead of paying a full DetectStale. Warming happens before
	// the epoch is published: no request ever observes the cold cache.
	defKey := packCacheKey(ep.span.End, defaultWindow)
	ep.alerts = newAlertSet(cube, det.DetectStale(ep.span.End, defaultWindow))
	ep.cache.prewarm(defKey, ep.alerts)
	// Carry the previous epoch's observed-hot keys: dashboards poll the
	// same (asOf, window) combinations on every refresh, so the keys hot
	// before the swap are the ones about to miss after it. Keys pinned to
	// the previous epoch's newest day follow the data forward — that is
	// the "no asof" dashboard seen from the cache's side.
	prev := s.ep.Load()
	if prev != nil {
		warmed := map[uint64]bool{defKey: true}
		for _, key := range prev.cache.hotKeys(prewarmCarryKeys) {
			asOf := timeline.Day(int32(key >> 32))
			window := int(int32(uint32(key)))
			if asOf == prev.span.End {
				asOf = ep.span.End
			}
			k := packCacheKey(asOf, window)
			if window <= 0 || warmed[k] {
				continue
			}
			warmed[k] = true
			ep.cache.prewarm(k, newAlertSet(cube, det.DetectStale(asOf, window)))
		}
	}
	s.ep.Store(ep)
	s.swapNanos.Store(time.Now().UnixNano())
	s.swapsTotal.Inc()
	s.epochGauge.Set(float64(ep.seq))
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, "detector swapped",
		slog.Uint64("epoch", ep.seq),
		slog.Int("fields", det.Histories().Len()),
		slog.Int("correlation_rules", det.FieldCorrelations().NumRules()),
		slog.Int("association_rules", det.AssociationRules().NumRules()),
	)
	// Model-plane bookkeeping (quality.go): swap metrics, epoch diff, and
	// scorer registration. Runs after the epoch is published — the serving
	// path never waits on it.
	s.observeSwap(prev, ep, time.Since(start))
}

// SetIngestStats wires the /v1/ingest/stats payload (typically
// ingest.Manager.Stats); without it the endpoint 404s.
func (s *Server) SetIngestStats(fn func() any) { s.ingestStats = fn }

// SetStoreStats wires the epoch-store summary (epochstore.Store.Stats)
// into /statusz; without it the store section is omitted.
func (s *Server) SetStoreStats(fn func() any) { s.storeStats = fn }

// epoch returns the current serving epoch, or nil before the first Swap.
func (s *Server) epoch() *epoch { return s.ep.Load() }

// Handler returns the HTTP handler, wrapped in the observability
// middleware.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// knownRoutes bounds the cardinality of the route label: anything not
// listed (scans, typos) is reported as "other".
var knownRoutes = map[string]bool{
	"/healthz":         true,
	"/readyz":          true,
	"/v1/stale":        true,
	"/v1/field":        true,
	"/v1/explain":      true,
	"/v1/audit":        true,
	"/v1/stats":        true,
	"/v1/ingest/stats": true,
	"/v1/catalog":      true,
	"/demo":            true,
	"/metrics":         true,
	"/statusz":         true,
	"/debug/traces":    true,
	"/debug/quality":   true,
	"/debug/epochdiff": true,
	"/debug/slo":       true,
	"/debug/profiles":  true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof"
	}
	return "other"
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// reqInfo travels through the request context so inner layers (the alert
// cache) can report their outcome into the middleware's span and log line.
// Handlers run synchronously on the request goroutine, so plain fields
// suffice.
type reqInfo struct {
	cacheOutcome string // "hit", "miss", "wait", or "" when no cache ran
	// notReady marks a cold-start 503 from requireEpoch: the epoch does
	// not exist yet, so the response must not burn the availability SLO
	// (and trip heap-profile captures) before there is anything to serve.
	notReady bool
}

type reqInfoKey struct{}

func infoFrom(ctx context.Context) *reqInfo {
	i, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return i
}

// instrument is the observability middleware: a root trace span for the
// request, request/response counters, a per-route latency histogram with
// trace exemplars, an in-flight gauge, and one structured log line per
// request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inFlightGauge.Inc()
		defer s.inFlightGauge.Dec()

		route := routeLabel(r.URL.Path)
		ctx, span := trace.StartIn(s.tracer, r.Context(), route)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		if ep := s.epoch(); ep != nil {
			ctx = olog.WithEpoch(ctx, ep.seq)
		}
		info := &reqInfo{}
		ctx = context.WithValue(ctx, reqInfoKey{}, info)

		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))

		elapsed := time.Since(start)
		span.SetAttr("status", rec.code)
		if info.cacheOutcome != "" {
			span.SetAttr("cache", info.cacheOutcome)
		}

		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", rec.code),
			slog.Duration("latency", elapsed),
		}
		if info.cacheOutcome != "" {
			attrs = append(attrs, slog.String("cache", info.cacheOutcome))
		}
		s.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		span.End()

		s.reg.Counter("wikistale_http_requests_total",
			obs.Labels{"route": route, "method": r.Method}).Inc()
		s.reg.Counter("wikistale_http_responses_total",
			obs.Labels{"class": statusClass(rec.code)}).Inc()
		s.reg.Histogram("wikistale_http_request_seconds", obs.RequestBuckets,
			obs.Labels{"route": route}).ObserveExemplar(elapsed.Seconds(), span.TraceID())

		// SLOs cover the data plane only: an operator pulling a 2 MB
		// /debug/traces dump must not burn the serving latency budget.
		// Cold-start 503s are excluded too — before the first epoch
		// exists there is no service whose availability could burn.
		if dataPlaneRoute(route) && !info.notReady {
			s.slo.Record(elapsed, rec.code >= 500)
			s.maybeCheckSLO()
		}
	})
}

// dataPlaneRoute reports whether a route counts against the serving SLOs.
func dataPlaneRoute(route string) bool {
	return strings.HasPrefix(route, "/v1/")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshEpochAge()
	// Scrape-time refresh: runtime telemetry and SLO burn rates are
	// computed on demand, the same pattern as epoch age — a gauge that is
	// only updated when something happens freezes exactly when it matters.
	s.rtstats.Sample()
	s.slo.Publish(s.reg)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// refreshEpochAge recomputes the epoch-age gauge at scrape time — a gauge
// set only at swap time would freeze while the model silently grows stale,
// which is the exact condition it exists to expose.
func (s *Server) refreshEpochAge() {
	if nanos := s.swapNanos.Load(); nanos > 0 {
		s.epochAge.Set(time.Since(time.Unix(0, nanos)).Seconds())
	}
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.tracer.Handler().ServeHTTP(w, r)
}

// requireEpoch returns the serving epoch, answering 503 when none is
// installed yet (live cold start before the first successful retrain).
func (s *Server) requireEpoch(w http.ResponseWriter, r *http.Request) *epoch {
	ep := s.epoch()
	if ep == nil {
		if info := infoFrom(r.Context()); info != nil {
			info.notReady = true
		}
		writeError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("no detector yet: live ingestion is still warming up"))
	}
	return ep
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"status": "ok"}
	if ep := s.epoch(); ep != nil {
		body["fields"] = ep.det.Histories().Len()
		body["epoch"] = ep.seq
	} else {
		body["fields"] = 0
		body["epoch"] = 0
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReady is the readiness probe: 200 once a detector is installed,
// 503 while a live cold start is still accumulating data.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	ep := s.epoch()
	if ep == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":  true,
		"epoch":  ep.seq,
		"fields": ep.det.Histories().Len(),
	})
}

func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	if s.ingestStats == nil {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("not running in live mode"))
		return
	}
	writeJSON(w, http.StatusOK, s.ingestStats())
}

// defaultWindow is the staleness window (days) when the request names
// none — also the key Swap pre-warms in the alert cache.
const defaultWindow = 7

// parseWindow extracts the asof/window parameters shared by the staleness
// endpoints. asof defaults to the end of the epoch's data; window to 7
// days. It reads the raw query (see queryParam) so the default case —
// no asof, small window — allocates nothing.
func (ep *epoch) parseWindow(rawQuery string) (timeline.Day, int, error) {
	asOf := ep.span.End
	if v, _ := queryParam(rawQuery, "asof"); v != "" {
		t, err := time.Parse("2006-01-02", v)
		if err != nil {
			return 0, 0, fmt.Errorf("bad asof %q: want YYYY-MM-DD", v)
		}
		asOf = timeline.DayOf(t)
	}
	window := defaultWindow
	if v, _ := queryParam(rawQuery, "window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 3650 {
			return 0, 0, fmt.Errorf("bad window %q: want days in [1, 3650]", v)
		}
		window = n
	}
	return asOf, window, nil
}

// alerts runs DetectStale through the epoch's bounded sharded LRU cache:
// dashboards poll a handful of (asof, window) keys repeatedly, and two
// dashboards on different keys must not thrash each other. The hit path
// is allocation-free: a packed integer key, one shard lock, no closure
// and no trace span (the middleware still records the cache outcome on
// the root span). On a miss or wait, concurrent requests for the same key
// share one computation (singleflight) running outside the cache lock on
// the calling goroutine, so the computing request's trace carries the
// alert_cache → detect_stale span chain.
func (s *Server) alerts(ctx context.Context, ep *epoch, asOf timeline.Day, window int) *alertSet {
	key := packCacheKey(asOf, window)
	if as, ok := ep.cache.lookup(key); ok {
		s.cacheHits.Inc()
		if info := infoFrom(ctx); info != nil {
			info.cacheOutcome = "hit"
		}
		return as
	}
	cctx, span := trace.StartChild(ctx, "alert_cache")
	span.SetAttr("asof", asOf.String())
	span.SetAttr("window_days", window)
	as, outcome := ep.cache.getOrCompute(key, s.cacheHits, s.cacheMisses, s.cacheWaits, func() *alertSet {
		return newAlertSet(ep.cube, ep.det.DetectStaleCtx(cctx, asOf, window))
	})
	span.SetAttr("outcome", outcome)
	span.End()
	if info := infoFrom(ctx); info != nil {
		info.cacheOutcome = outcome
	}
	return as
}

func (s *Server) handleStale(w http.ResponseWriter, r *http.Request) {
	ep := s.requireEpoch(w, r)
	if ep == nil {
		return
	}
	asOf, window, err := ep.parseWindow(r.URL.RawQuery)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	limit := 0
	if v, _ := queryParam(r.URL.RawQuery, "limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
	}
	as := s.alerts(r.Context(), ep, asOf, window)
	if body := as.cachedBody(limit); body != nil {
		writeRawJSON(w, http.StatusOK, body)
		return
	}
	// First render for this (alert set, limit): the alert set is immutable
	// and already carries asof/window/epoch, so the body is cacheable
	// verbatim. Dashboards poll the same limit forever — steady state
	// serves pre-rendered bytes.
	out := make([]Alert, 0, len(as.alerts))
	for i, a := range as.alerts {
		if limit > 0 && i >= limit {
			break
		}
		out = append(out, ep.render(a))
	}
	body, err := json.Marshal(map[string]any{
		"asof":   asOf.String(),
		"window": window,
		"epoch":  ep.seq,
		"total":  len(as.alerts),
		"alerts": out,
	})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	as.storeBody(limit, body)
	writeRawJSON(w, http.StatusOK, body)
}

func (ep *epoch) render(a core.StaleAlert) Alert {
	return Alert{
		Page:        ep.cube.Pages.Name(int32(ep.cube.Page(a.Field.Entity))),
		Template:    ep.cube.Templates.Name(int32(ep.cube.Template(a.Field.Entity))),
		Property:    ep.cube.Properties.Name(int32(a.Field.Property)),
		WindowStart: a.Window.Start.String(),
		WindowEnd:   a.Window.End.String(),
		Sources:     a.Sources,
		Explanation: a.Explanation,
	}
}

// resolveField maps the page/property query parameters to the compiled
// field entry, writing the appropriate error response when it cannot.
func (ep *epoch) resolveField(w http.ResponseWriter, r *http.Request) (*fieldEntry, bool) {
	rawQuery := r.URL.RawQuery
	page, _ := queryParam(rawQuery, "page")
	property, _ := queryParam(rawQuery, "property")
	if page == "" || property == "" {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("page and property are required"))
		return nil, false
	}
	pageID, okPage := ep.cube.Pages.Lookup(page)
	propID, okProp := ep.cube.Properties.Lookup(property)
	if !okPage || !okProp {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown page or property"))
		return nil, false
	}
	fe := ep.fields.lookup(packKey(changecube.PageID(pageID), changecube.PropertyID(propID)))
	if fe == nil {
		// Both names exist somewhere in the corpus, but this page carries
		// no such observed field — a zero-value 200 here would read as "not
		// stale" when the detector actually knows nothing about the pair.
		writeError(w, r, http.StatusNotFound,
			fmt.Errorf("page %q has no observed field %q", page, property))
		return nil, false
	}
	return fe, true
}

// fieldAddress reconstructs the detector-facing field key of a compiled
// entry — the address /v1/explain hands to the detector.
func (fe *fieldEntry) fieldAddress() changecube.FieldKey {
	return changecube.FieldKey{Entity: fe.entity, Property: fe.key.prop()}
}

// handleField is the marker lookup: given page and property, is the value
// possibly out of date right now? The steady-state answer is pre-rendered
// at swap time: a fresh field serves one arena slice; a stale field
// splices the cached explanation between two arena slices through a
// pooled buffer. No maps, no encoder, no per-request allocations once the
// alert cache is warm.
func (s *Server) handleField(w http.ResponseWriter, r *http.Request) {
	ep := s.requireEpoch(w, r)
	if ep == nil {
		return
	}
	asOf, window, err := ep.parseWindow(r.URL.RawQuery)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	fe, ok := ep.resolveField(w, r)
	if !ok {
		return
	}
	as := s.alerts(r.Context(), ep, asOf, window)
	if i, stale := as.find(fe.key); stale {
		a := &as.alerts[i]
		s.recordAudit(r, ep,
			ep.cube.Pages.Name(int32(fe.key.page())),
			ep.cube.Properties.Name(int32(fe.key.prop())),
			asOf, window, a.Explanation)
		buf := bufPool.Get().(*bytes.Buffer)
		buf.Reset()
		buf.Write(ep.fields.bytes(fe.stalePrefix))
		buf.Write(appendJSONString(buf.AvailableBuffer(), a.Explanation))
		buf.Write(ep.fields.bytes(fe.staleSuffix))
		writeRawJSON(w, http.StatusOK, buf.Bytes())
		bufPool.Put(buf)
		return
	}
	writeRawJSON(w, http.StatusOK, ep.fields.bytes(fe.fresh))
}

// explainResponse is the JSON shape of /v1/explain: the field address and
// window echoed back, plus the detector's full audit record.
type explainResponse struct {
	Page     string `json:"page"`
	Property string `json:"property"`
	AsOf     string `json:"asof"`
	Window   int    `json:"window_days"`
	Epoch    uint64 `json:"epoch"`
	core.Explanation
}

// handleExplain is the audit lookup: why does (or doesn't) the detector
// consider this field stale? The response lists the fired correlation and
// association rules with their learned statistics and every predictor's
// vote; its stale verdict is exactly /v1/field's.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	ep := s.requireEpoch(w, r)
	if ep == nil {
		return
	}
	asOf, window, err := ep.parseWindow(r.URL.RawQuery)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	fe, ok := ep.resolveField(w, r)
	if !ok {
		return
	}
	ex := ep.det.ExplainCtx(r.Context(), fe.fieldAddress(), asOf, window)
	resp := explainResponse{
		Page:        ep.cube.Pages.Name(int32(fe.key.page())),
		Property:    ep.cube.Properties.Name(int32(fe.key.prop())),
		AsOf:        asOf.String(),
		Window:      window,
		Epoch:       ep.seq,
		Explanation: ex,
	}
	if ex.Stale {
		s.recordAudit(r, ep, resp.Page, resp.Property, asOf, window, ex.Summary)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ep := s.requireEpoch(w, r)
	if ep == nil {
		return
	}
	stats := ep.det.FilterStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":             ep.seq,
		"fields":            ep.det.Histories().Len(),
		"changes":           ep.det.Histories().TotalChanges(),
		"survival":          stats.Survival(),
		"correlation_rules": ep.det.FieldCorrelations().NumRules(),
		"association_rules": ep.det.AssociationRules().NumRules(),
		"covered_pages":     ep.det.AssociationRules().CoveredPages(ep.cube),
		"span_start":        ep.span.Start.String(),
		"span_end":          ep.span.End.String(),
	})
}

// bufPool recycles response-rendering buffers across requests. Buffers
// that ballooned rendering an unusually large body are dropped rather
// than pinned in the pool.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

// writeJSON renders v compactly. json.Marshal, not json.Encoder: Encode
// re-scans the marshaled bytes a second time (its indent pass runs even
// with no indentation configured), which showed up as ~7% of serving CPU.
// Cold and structured endpoints use it; the hot paths serve pre-rendered
// bytes via writeRawJSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := json.Marshal(v) // the value shapes here always encode
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // the connection is the only failure mode here
	_, _ = w.Write(newline)
}

var newline = []byte{'\n'}

// writeRawJSON writes an already-rendered JSON body.
func writeRawJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // the connection is the only failure mode here
}

// writeError renders the structured error body. Every error response
// carries the request's trace ID so a failing call can be looked up at
// /debug/traces?trace_id=....
func writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := trace.FromContext(r.Context()).TraceID(); id != "" {
		body["trace_id"] = id
	}
	writeJSON(w, code, body)
}
