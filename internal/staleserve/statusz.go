package staleserve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/runtimestats"
	"github.com/wikistale/wikistale/internal/obs/slo"
)

// buildVersion resolves the module version and VCS revision from the
// binary's embedded build info. "devel" when built outside a module
// release (go test, local go run).
func buildVersion() (version, revision string) {
	version, revision = "devel", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if info.Main.Version != "" && info.Main.Version != "(devel)" {
		version = info.Main.Version
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return version, revision
}

// registerBuildInfo publishes the classic build-info gauge: constant 1,
// with the interesting facts in the labels.
func registerBuildInfo(reg *obs.Registry) {
	version, revision := buildVersion()
	reg.SetHelp("wikistale_build_info",
		"Constant 1; the binary's version, VCS revision, and Go runtime are in the labels.")
	reg.Gauge("wikistale_build_info", obs.Labels{
		"version":    version,
		"revision":   revision,
		"go_version": runtime.Version(),
	}).Set(1)
}

// handleStatusz renders the human-readable status page: build identity,
// serving epoch, cache and audit counters, and the live-ingestion state
// when the server runs in live mode.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	s.refreshEpochAge()
	version, revision := buildVersion()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	fmt.Fprintf(w, "wikistale staleserve\n")
	fmt.Fprintf(w, "  version:    %s (%s)\n", version, revision)
	fmt.Fprintf(w, "  go:         %s\n", runtime.Version())
	fmt.Fprintf(w, "  uptime:     %s\n", time.Since(s.started).Round(time.Second))
	fmt.Fprintf(w, "\n")

	ep := s.epoch()
	if ep == nil {
		fmt.Fprintf(w, "detector: none yet (live cold start; /readyz is 503)\n")
	} else {
		fmt.Fprintf(w, "detector epoch %d\n", ep.seq)
		fmt.Fprintf(w, "  installed:  %s ago\n",
			time.Since(time.Unix(0, s.swapNanos.Load())).Round(time.Second))
		fmt.Fprintf(w, "  fields:     %d\n", ep.det.Histories().Len())
		fmt.Fprintf(w, "  servable:   %d compiled field keys (%s arena)\n",
			len(ep.fields.entries), humanBytes(float64(len(ep.fields.arena))))
		fmt.Fprintf(w, "  corr rules: %d\n", ep.det.FieldCorrelations().NumRules())
		fmt.Fprintf(w, "  assoc rules:%d\n", ep.det.AssociationRules().NumRules())
		fmt.Fprintf(w, "  data span:  %s .. %s\n", ep.span.Start, ep.span.End)
	}
	fmt.Fprintf(w, "\n")

	fmt.Fprintf(w, "alert cache: %d hits, %d misses, %d waits\n",
		s.cacheHits.Value(), s.cacheMisses.Value(), s.cacheWaits.Value())
	fmt.Fprintf(w, "audit log:   %d positive verdicts served (%d buffered; /v1/audit)\n", s.audit.Total(), s.audit.Len())
	fmt.Fprintf(w, "traces:      %d recorded (%d buffered; /debug/traces)\n",
		s.tracer.Total(), s.tracer.Len())
	fmt.Fprintf(w, "\n")

	s.writeRuntimeStatus(w)
	s.writeSLOStatus(w)

	if s.storeStats != nil {
		fmt.Fprintf(w, "epoch store:\n")
		if out, err := json.MarshalIndent(s.storeStats(), "  ", "  "); err != nil {
			fmt.Fprintf(w, "  <unrenderable: %v>\n", err)
		} else {
			fmt.Fprintf(w, "  %s\n", out)
		}
		fmt.Fprintf(w, "\n")
	}

	if s.ingestStats == nil {
		fmt.Fprintf(w, "ingest: not running in live mode\n")
		return
	}
	fmt.Fprintf(w, "ingest (see /v1/ingest/stats):\n")
	out, err := json.MarshalIndent(s.ingestStats(), "  ", "  ")
	if err != nil {
		fmt.Fprintf(w, "  <unrenderable: %v>\n", err)
		return
	}
	fmt.Fprintf(w, "  %s\n", out)
}

// writeRuntimeStatus renders the Go-runtime section: a fresh sample of
// the wikistale_go_* gauges (see internal/obs/runtimestats).
func (s *Server) writeRuntimeStatus(w io.Writer) {
	s.rtstats.Sample()
	g := func(name string) float64 { return s.reg.Gauge(name, nil).Value() }
	q := func(name, quantile string) float64 {
		return s.reg.Gauge(name, obs.Labels{"q": quantile}).Value()
	}
	fmt.Fprintf(w, "runtime:\n")
	fmt.Fprintf(w, "  goroutines: %.0f\n", g(runtimestats.Goroutines))
	fmt.Fprintf(w, "  heap:       %s live, %s idle, %s mapped\n",
		humanBytes(g(runtimestats.HeapLiveBytes)),
		humanBytes(g(runtimestats.HeapIdleBytes)),
		humanBytes(g(runtimestats.MemTotalBytes)))
	// SetMemoryLimit(-1) is the documented read-only query. MaxInt64 is
	// the runtime's "unlimited" sentinel; render it as such — an absent or
	// zero-looking limit line reads as "0-byte limit" to an operator
	// paging through at 3am.
	if limit := debug.SetMemoryLimit(-1); limit > 0 && limit < math.MaxInt64 {
		fmt.Fprintf(w, "  mem limit:  %s (%.1f%% used by live heap)\n",
			humanBytes(float64(limit)), 100*g(runtimestats.HeapLiveBytes)/float64(limit))
	} else {
		fmt.Fprintf(w, "  mem limit:  none (-memlimit unset; GC paced by GOGC alone)\n")
	}
	fmt.Fprintf(w, "  gc:         %d cycles, %.1f%% of CPU, pauses p50 %s / p99 %s / max %s\n",
		s.reg.Counter(runtimestats.GCCycles, nil).Value(),
		100*g(runtimestats.GCCPUFraction),
		humanSeconds(q(runtimestats.GCPauseSeconds, "0.5")),
		humanSeconds(q(runtimestats.GCPauseSeconds, "0.99")),
		humanSeconds(q(runtimestats.GCPauseSeconds, "max")))
	fmt.Fprintf(w, "  sched wait: p50 %s / p99 %s / max %s\n",
		humanSeconds(q(runtimestats.SchedLatency, "0.5")),
		humanSeconds(q(runtimestats.SchedLatency, "0.99")),
		humanSeconds(q(runtimestats.SchedLatency, "max")))
	fmt.Fprintf(w, "\n")
}

// writeSLOStatus renders the serving-SLO section: every objective's
// bad-fraction and burn rate per window, the trip state, and the
// triggered-profile ring (see /debug/slo for the JSON form).
func (s *Server) writeSLOStatus(w io.Writer) {
	rep := s.slo.Snapshot()
	fmt.Fprintf(w, "slo (data-plane routes; /debug/slo):\n")
	for _, or := range rep.Objectives {
		state := ""
		if or.Tripping {
			state = "  ** TRIPPING **"
		}
		fmt.Fprintf(w, "  %-16s %s%s\n", or.Objective.Name, slo.Describe(or.Objective), state)
		for _, ws := range or.Windows {
			fmt.Fprintf(w, "    %-5s %8d reqs, %6d bad (%.3f%%), burn %.2fx\n",
				ws.Window, ws.Total, ws.Bad, 100*ws.BadFraction, ws.BurnRate)
		}
	}
	n := s.profiles.Len()
	fmt.Fprintf(w, "  trips: %d; profiles captured: %d buffered (/debug/profiles)\n",
		rep.TripsTotal, n)
	if n > 0 {
		// The ring never shrinks, so it still holds a profile.
		p := s.profiles.Profiles()[0]
		fmt.Fprintf(w, "  newest profile: #%d %s (%s) at %s\n",
			p.ID, p.Kind, p.Reason, p.Taken.Format(time.RFC3339))
	}
	fmt.Fprintf(w, "\n")
}

// humanBytes renders a byte count with a binary-unit suffix.
func humanBytes(v float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f %s", v, units[i])
	}
	return fmt.Sprintf("%.1f %s", v, units[i])
}

// humanSeconds renders a second-valued quantile at a readable scale.
func humanSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}
